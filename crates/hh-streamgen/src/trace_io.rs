//! Reading and writing streams as plain-text trace files.
//!
//! So experiments can run on external data (and synthetic workloads can be
//! exported for other tools): one item per line for unweighted streams,
//! `item<TAB>weight` for weighted ones. Lines starting with `#` and blank
//! lines are skipped on read.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::generators::WeightedStream;
use crate::Item;

/// Writes an unweighted stream, one item id per line.
pub fn write_stream(mut w: impl Write, stream: &[Item]) -> std::io::Result<()> {
    for &x in stream {
        writeln!(w, "{x}")?;
    }
    Ok(())
}

/// Reads an unweighted stream (one `u64` item per line; `#` comments and
/// blank lines skipped).
pub fn read_stream(r: impl Read) -> std::io::Result<Vec<Item>> {
    let mut out = Vec::new();
    for line in BufReader::new(r).lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let item: Item = t.parse().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad item {t:?}: {e}"),
            )
        })?;
        out.push(item);
    }
    Ok(out)
}

/// Writes a weighted stream, `item<TAB>weight` per line.
pub fn write_weighted(mut w: impl Write, stream: &WeightedStream) -> std::io::Result<()> {
    for &(item, weight) in &stream.updates {
        writeln!(w, "{item}\t{weight}")?;
    }
    Ok(())
}

/// Reads a weighted stream (`item<TAB or space>weight` per line, the
/// weight a whole number of units).
pub fn read_weighted(r: impl Read) -> std::io::Result<WeightedStream> {
    let mut updates = Vec::new();
    for line in BufReader::new(r).lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let item: Item = parts
            .next()
            .ok_or_else(|| bad(format!("empty line {t:?}")))?
            .parse()
            .map_err(|e| bad(format!("bad item in {t:?}: {e}")))?;
        let weight: u64 = parts
            .next()
            .ok_or_else(|| bad(format!("missing weight in {t:?}")))?
            .parse()
            .map_err(|e| bad(format!("bad weight in {t:?}: {e}")))?;
        updates.push((item, weight));
    }
    Ok(WeightedStream { updates })
}

/// Convenience: round-trips a stream through a file path.
pub fn save_stream(path: impl AsRef<Path>, stream: &[Item]) -> std::io::Result<()> {
    write_stream(std::fs::File::create(path)?, stream)
}

/// Convenience: loads a stream from a file path.
pub fn load_stream(path: impl AsRef<Path>) -> std::io::Result<Vec<Item>> {
    read_stream(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unweighted_roundtrip() {
        let stream = vec![1u64, 5, 5, 2, 99];
        let mut buf = Vec::new();
        write_stream(&mut buf, &stream).unwrap();
        let back = read_stream(buf.as_slice()).unwrap();
        assert_eq!(back, stream);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# a trace\n1\n\n2\n  # indented comment\n3\n";
        let back = read_stream(text.as_bytes()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }

    #[test]
    fn bad_item_is_io_error() {
        assert!(read_stream("not-a-number\n".as_bytes()).is_err());
    }

    #[test]
    fn weighted_roundtrip() {
        let ws = WeightedStream {
            updates: vec![(1, 2_500), (7, 125)],
        };
        let mut buf = Vec::new();
        write_weighted(&mut buf, &ws).unwrap();
        let back = read_weighted(buf.as_slice()).unwrap();
        assert_eq!(back.updates, ws.updates);
    }

    #[test]
    fn weighted_rejects_garbage() {
        assert!(read_weighted("1\n".as_bytes()).is_err(), "missing weight");
        assert!(read_weighted("1 x\n".as_bytes()).is_err(), "bad weight");
        assert!(
            read_weighted("1 2.5\n".as_bytes()).is_err(),
            "fractional weight"
        );
        assert!(
            read_weighted("1 -2\n".as_bytes()).is_err(),
            "negative weight"
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hh_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.txt");
        let stream = vec![3u64, 1, 4, 1, 5];
        save_stream(&path, &stream).unwrap();
        assert_eq!(load_stream(&path).unwrap(), stream);
        std::fs::remove_file(&path).ok();
    }
}
