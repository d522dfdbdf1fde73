//! Durable, torn-write-safe checkpoints: the one on-disk snapshot format.
//!
//! Every snapshot file `hh` writes — `serve` checkpoints and drains,
//! `topk --snapshot-out`, `hh merge --snapshot-out` — is an envelope
//! written by [`write()`], and every reader goes through [`load_latest`].
//!
//! A checkpoint is a self-verifying envelope around the per-shard
//! [`Snapshot`]s of an epoch boundary plus the pipeline's unobserved
//! mass (see `Engine::add_unobserved` — lost-shard accounting is *not*
//! part of a snapshot, so it must travel alongside):
//!
//! ```text
//! hhckpt v1 crc=<8 hex> len=<payload bytes> shards=<n> unobserved=<u>\n
//! <payload: JSON array of shard snapshots>
//! ```
//!
//! The CRC-32 (IEEE) covers exactly the `len` payload bytes, so a torn
//! write — a crash mid-write, a truncated copy, a partially synced page
//! — is detected at load as a typed [`Error::CorruptSnapshot`] instead
//! of being deserialized into a silently wrong summary.
//!
//! Durability discipline, in order:
//!
//! 1. the full envelope is written to `<path>.tmp` and fsynced;
//! 2. the current `<path>` (if any) is renamed to `<path>.prev`;
//! 3. `<path>.tmp` is renamed to `<path>`;
//! 4. the parent directory is fsynced.
//!
//! Renames are atomic on POSIX filesystems, so at every instant either
//! generation is intact: a crash between steps leaves `<path>.prev`
//! valid, and [`load_latest`] falls back to it when `<path>` is missing
//! or fails its CRC. Two generations are kept; older ones are
//! overwritten.

use std::fmt;
use std::path::Path;

use hh_counters::error::Error;
use hh_sketches::engine::{Engine, EngineItem, Snapshot};
use hh_sketches::pipeline::check_partition;
use serde::{Deserialize, Serialize};

/// First token of every checkpoint envelope.
pub const MAGIC: &str = "hhckpt";

/// Envelope format version.
pub const CHECKPOINT_VERSION: u64 = 1;

/// One durable checkpoint: the epoch's per-shard snapshots plus the
/// mass already charged as unobserved (lost shards, prior resumes).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<I: EngineItem> {
    /// Per-shard snapshots from one epoch boundary, in shard order. `hh
    /// serve` resumes shard j from snapshot j, so the shard counts must
    /// match ([`PipelineConfig::resume`]). Offline readers (`hh topk`,
    /// `hh merge`) read them shard by shard too ([`load_shards`]).
    ///
    /// [`PipelineConfig::resume`]: hh_sketches::pipeline::PipelineConfig::resume
    pub shards: Vec<Snapshot<I>>,
    /// Occurrences that are part of `stream_len` but observed by no
    /// snapshot; a loader must widen the merged engine by this mass.
    pub unobserved: u64,
}

/// Why [`load_latest`] answered from `<path>.prev`: the current
/// generation failed to load, so up to one checkpoint interval of the
/// stream is missing from the answer. Readers tell the operator (its
/// `Display` is the warning line `hh` prints).
#[derive(Debug)]
pub struct Fallback {
    /// The current generation's path.
    pub path: String,
    /// Why it failed to load.
    pub reason: Error,
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Fallback { path, reason } = self;
        write!(
            f,
            "checkpoint {path} failed to load ({reason}); answering from {path}.prev"
        )
    }
}

/// The reflected CRC-32 of every byte value, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected, `0xEDB88320`), one table lookup per
/// byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| {
        CRC_TABLE[usize::from(crc.to_le_bytes()[0] ^ b)] ^ (crc >> 8)
    })
}

/// Renders a checkpoint into its envelope text.
///
/// Rendering cannot fail; the `Result` stays only because the repo
/// benchmark (`perfbench/`) calls this signature.
pub fn encode<I>(ckpt: &Checkpoint<I>) -> Result<String, Error>
where
    I: EngineItem + Serialize,
{
    let payload = serde_json::to_string(&ckpt.shards)?;
    Ok(format!(
        "{MAGIC} v{CHECKPOINT_VERSION} crc={:08x} len={} shards={} unobserved={}\n{payload}",
        crc32(payload.as_bytes()),
        payload.len(),
        ckpt.shards.len(),
        ckpt.unobserved,
    ))
}

/// One `key=value` token of the header line.
fn header_field<'a>(token: Option<&'a str>, key: &str) -> Result<&'a str, Error> {
    token
        .and_then(|t| t.strip_prefix(key))
        .and_then(|t| t.strip_prefix('='))
        .ok_or_else(|| Error::corrupt_snapshot(format!("checkpoint header missing {key}=")))
}

/// The longest header line [`load`] reads: the magic, the version and
/// four decimal `u64` fields take under 120 bytes.
const MAX_HEADER_LINE: u64 = 256;

/// The fields of an envelope header line.
struct Header {
    crc: u32,
    len: u64,
    shards: usize,
    unobserved: u64,
}

/// Parses an envelope header line (without its newline).
fn parse_header(line: &str) -> Result<Header, Error> {
    let mut tokens = line.split(' ');
    if tokens.next() != Some(MAGIC) {
        return Err(Error::corrupt_snapshot(
            "not a checkpoint envelope (bad magic)",
        ));
    }
    match tokens.next() {
        Some("v1") => {}
        Some(v) => {
            return Err(Error::corrupt_snapshot(format!(
                "unsupported checkpoint version {v} (this build reads v{CHECKPOINT_VERSION})"
            )));
        }
        None => return Err(Error::corrupt_snapshot("checkpoint header missing version")),
    }
    let crc = u32::from_str_radix(header_field(tokens.next(), "crc")?, 16)
        .map_err(|_| Error::corrupt_snapshot("checkpoint crc is not hex"))?;
    let len = header_field(tokens.next(), "len")?
        .parse()
        .map_err(|_| Error::corrupt_snapshot("checkpoint len is not an integer"))?;
    let shards = header_field(tokens.next(), "shards")?
        .parse()
        .map_err(|_| Error::corrupt_snapshot("checkpoint shards is not an integer"))?;
    let unobserved = header_field(tokens.next(), "unobserved")?
        .parse()
        .map_err(|_| Error::corrupt_snapshot("checkpoint unobserved is not an integer"))?;
    Ok(Header {
        crc,
        len,
        shards,
        unobserved,
    })
}

impl Header {
    /// Verifies `payload` against the header and deserializes it.
    fn open<I>(&self, payload: &str) -> Result<Checkpoint<I>, Error>
    where
        I: EngineItem + Deserialize,
    {
        let len = self.len;
        if payload.len() as u64 != len {
            return Err(Error::corrupt_snapshot(format!(
                "checkpoint payload is {} bytes, header says {len} (torn write?)",
                payload.len()
            )));
        }
        let actual = crc32(payload.as_bytes());
        if actual != self.crc {
            return Err(Error::corrupt_snapshot(format!(
                "checkpoint crc mismatch: header {:08x}, payload {actual:08x}",
                self.crc
            )));
        }
        let snaps: Vec<Snapshot<I>> = serde_json::from_str(payload)?;
        if snaps.len() != self.shards {
            return Err(Error::corrupt_snapshot(format!(
                "checkpoint holds {} snapshots, header says {}",
                snaps.len(),
                self.shards
            )));
        }
        Ok(Checkpoint {
            shards: snaps,
            unobserved: self.unobserved,
        })
    }
}

/// Parses and verifies an envelope. Torn or tampered payloads (length
/// mismatch, CRC mismatch) are a typed [`Error::CorruptSnapshot`].
pub fn decode<I>(text: &str) -> Result<Checkpoint<I>, Error>
where
    I: EngineItem + Deserialize,
{
    let (header, payload) = text
        .split_once('\n')
        .ok_or_else(|| Error::corrupt_snapshot("checkpoint has no header line"))?;
    parse_header(header)?.open(payload)
}

/// Fsyncs the directory holding `path`, making a just-renamed entry
/// durable (on Linux a directory opens read-only like any file).
fn sync_parent_dir(path: &str) -> Result<(), Error> {
    let parent = Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty());
    let dir = parent.unwrap_or_else(|| Path::new("."));
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Writes a checkpoint to `path` with the full durability discipline
/// (tmp + fsync + generation rotation + rename + directory fsync). The
/// previous generation survives at `<path>.prev`.
pub fn write<I>(path: &str, ckpt: &Checkpoint<I>) -> Result<(), Error>
where
    I: EngineItem + Serialize,
{
    use std::io::Write as _;
    let text = encode(ckpt)?;
    let mut bytes = text.as_bytes();
    // Injection site: a torn write persists only a prefix — the header's
    // len/crc must catch it at load (free unless armed).
    if let Some(n) = hh_fault::torn_write(hh_fault::sites::CHECKPOINT_WRITE, bytes.len()) {
        bytes = &bytes[..n.min(bytes.len())];
    }
    let tmp = format!("{path}.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if std::fs::metadata(path).is_ok() {
        std::fs::rename(path, format!("{path}.prev"))?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Loads and verifies the checkpoint at `path` (no fallback).
///
/// The header line is read with a bound, and the file's size must equal
/// the header plus its `len=` before any payload byte is read, so a
/// torn, padded or hostile file of any size costs one short read.
pub fn load<I>(path: &str) -> Result<Checkpoint<I>, Error>
where
    I: EngineItem + Deserialize,
{
    use std::io::{BufRead as _, Read as _};
    let file = std::fs::File::open(path)?;
    let size = file.metadata()?.len();
    let mut reader = std::io::BufReader::new(file);
    let mut line = String::new();
    (&mut reader).take(MAX_HEADER_LINE).read_line(&mut line)?;
    let header = line
        .strip_suffix('\n')
        .ok_or_else(|| Error::corrupt_snapshot("checkpoint has no header line"))?;
    let header = parse_header(header)?;
    let expected = (line.len() as u64).saturating_add(header.len);
    if size != expected {
        return Err(Error::corrupt_snapshot(format!(
            "checkpoint file is {size} bytes, header says {expected}"
        )));
    }
    let mut payload = String::new();
    reader.read_to_string(&mut payload)?;
    header.open(&payload)
}

/// Loads `path`, falling back to the previous generation
/// (`<path>.prev`) when the current file is missing, torn, or corrupt.
/// Returns the checkpoint and, when the fallback answered, why the
/// current generation failed; if both generations fail, the *current*
/// generation's error is reported.
pub fn load_latest<I>(path: &str) -> Result<(Checkpoint<I>, Option<Fallback>), Error>
where
    I: EngineItem + Deserialize,
{
    match load(path) {
        Ok(ckpt) => Ok((ckpt, None)),
        Err(reason) => match load(&format!("{path}.prev")) {
            Ok(ckpt) => {
                let path = path.to_string();
                Ok((ckpt, Some(Fallback { path, reason })))
            }
            Err(_) => Err(reason),
        },
    }
}

/// Reads snapshot files ([`load_latest`] each) into the shards an offline
/// reader answers from, with their summed unobserved mass, and the
/// fallbacks taken. Files of the same N shards that pass
/// [`check_partition`] merge shard `j` into shard `j` (Theorem 11 per
/// shard), staying one hash partition; any other input folds into one
/// snapshot, sound for any partition.
pub fn load_shards<I>(paths: &[String]) -> Result<(Checkpoint<I>, Vec<Fallback>), Error>
where
    I: EngineItem + Deserialize,
{
    let mut files = Vec::with_capacity(paths.len());
    let mut unobserved = 0u64;
    let mut fallbacks = Vec::new();
    for path in paths {
        let (ckpt, fallback) = load_latest(path)?;
        fallbacks.extend(fallback);
        files.push(ckpt.shards);
        unobserved = unobserved.saturating_add(ckpt.unobserved);
    }
    let n = files.first().map_or(0, Vec::len);
    let like = files.first().and_then(|file| file.first());
    let aligned = like.is_some_and(|like| {
        (files.iter()).all(|file| file.len() == n && check_partition(file, like).is_ok())
    });
    let mut columns = vec![Vec::new(); if aligned { n } else { 1 }];
    for file in files {
        for (j, snap) in file.into_iter().enumerate() {
            columns[if aligned { j } else { 0 }].push(snap);
        }
    }
    let shards = columns
        .into_iter()
        .map(merge_to_snapshot)
        .filter_map(Result::transpose)
        .collect::<Result<_, _>>()?;
    Ok((Checkpoint { shards, unobserved }, fallbacks))
}

/// Folds snapshots into one snapshot (Theorem 11 snapshot merge), sound
/// for any partition. `None` for an empty list; a weighted snapshot
/// beside a count snapshot is an [`Error::SnapshotMismatch`].
pub fn merge_to_snapshot<I: EngineItem>(
    shards: Vec<Snapshot<I>>,
) -> Result<Option<Snapshot<I>>, Error> {
    let mut it = shards.into_iter();
    let Some(first) = it.next() else {
        return Ok(None);
    };
    let mut merged = Engine::from_snapshot(first)?;
    for snap in it {
        merged.merge_snapshot(&snap)?;
    }
    Ok(Some(merged.snapshot()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_sketches::engine::{AlgoKind, EngineConfig, SpaceSavingState};

    fn snap_of(items: &[u64]) -> Snapshot<u64> {
        let mut e = EngineConfig::new(AlgoKind::SpaceSaving)
            .counters(16)
            .build::<u64>()
            .unwrap();
        e.update_batch(items);
        e.snapshot()
    }

    fn tmp_path(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("hh-ckpt-{}-{name}", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector, plus the empty string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time definition the table is built from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc32_equals_the_bitwise_definition() {
        // xorshift64: every length 0..=4096 over a fresh random buffer.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut buf = Vec::new();
        for len in 0..=4096 {
            buf.clear();
            buf.extend((0..len).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.to_le_bytes()[0]
            }));
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "length {len}");
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let ckpt = Checkpoint {
            shards: vec![snap_of(&[1, 1, 2]), snap_of(&[3])],
            unobserved: 7,
        };
        let text = encode(&ckpt).unwrap();
        assert!(text.starts_with(MAGIC));
        let back: Checkpoint<u64> = decode(&text).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn a_large_envelope_decodes_in_one_pass() {
        // 2 × 50,000 entries (about 2.6 MB): a decoder that rescans the
        // rest of the payload per character takes minutes here.
        let shard = |s: usize| {
            Snapshot::SpaceSaving(SpaceSavingState {
                capacity: 50_000,
                stream_len: 5_000_000,
                absorbed_slack: 0,
                entries: (0..50_000u64)
                    .map(|i| (format!("shard {s} item \"{i}\" é"), 100_000 - i, i % 7))
                    .collect(),
            })
        };
        let ckpt = Checkpoint {
            shards: vec![shard(0), shard(1)],
            unobserved: 3,
        };
        let text = encode(&ckpt).unwrap();
        assert!(text.len() > 2 << 20, "{}", text.len());
        assert_eq!(decode::<String>(&text).unwrap(), ckpt);
    }

    #[test]
    fn decode_rejects_torn_and_tampered_envelopes() {
        let ckpt = Checkpoint {
            shards: vec![snap_of(&[1, 2, 3])],
            unobserved: 0,
        };
        let text = encode(&ckpt).unwrap();
        // torn: payload truncated
        let torn = &text[..text.len() - 10];
        assert!(matches!(
            decode::<u64>(torn),
            Err(Error::CorruptSnapshot(_))
        ));
        // tampered: one payload byte flipped, length preserved — only the
        // CRC can notice
        let mut tampered = text.clone().into_bytes();
        let last = tampered.len() - 1;
        tampered[last] = b' ';
        let tampered = String::from_utf8(tampered).unwrap();
        assert!(matches!(
            decode::<u64>(&tampered),
            Err(Error::CorruptSnapshot(_))
        ));
        // wrong magic
        assert!(matches!(
            decode::<u64>("nope v1 crc=0 len=0 shards=0 unobserved=0\n"),
            Err(Error::CorruptSnapshot(_))
        ));
        // future version
        let future = text.replacen("hhckpt v1 ", "hhckpt v9 ", 1);
        assert!(matches!(
            decode::<u64>(&future),
            Err(Error::CorruptSnapshot(_))
        ));
    }

    /// A CRC-valid envelope around an arbitrary payload.
    fn envelope(payload: &str) -> String {
        let crc = crc32(payload.as_bytes());
        let len = payload.len();
        format!("{MAGIC} v1 crc={crc:08x} len={len} shards=1 unobserved=0\n{payload}")
    }

    #[test]
    fn hostile_payloads_are_errors_not_aborts() {
        // 200k nested `[`: a typed error, not a stack overflow.
        let deep = envelope(&"[".repeat(200_000));
        assert!(matches!(decode::<u64>(&deep), Err(Error::Json(_))));
        // A declared capacity of 4e12 loads without pre-sizing from it.
        let text = encode(&Checkpoint {
            shards: vec![snap_of(&[1, 1, 2])],
            unobserved: 0,
        })
        .unwrap();
        let payload = text.split_once('\n').unwrap().1;
        let huge = payload.replacen("\"capacity\":16", "\"capacity\":4000000000000", 1);
        assert_ne!(huge, payload);
        let ckpt: Checkpoint<u64> = decode(&envelope(&huge)).unwrap();
        let engine = Engine::from_snapshot(merge_to_snapshot(ckpt.shards).unwrap().unwrap());
        assert_eq!(engine.unwrap().estimate(&1), 2);
    }

    #[test]
    fn load_checks_the_file_size_before_reading_the_payload() {
        // A sparse 4 GiB file whose header claims a 2-byte payload: the
        // size check must reject it from metadata, naming both sizes,
        // without reading or allocating the payload.
        let path = tmp_path("sparse");
        let header = format!("{MAGIC} v1 crc=00000000 len=2 shards=1 unobserved=0\n");
        std::fs::write(&path, &header).unwrap();
        let size: u64 = 4 << 30;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(size)
            .unwrap();
        let err = load::<u64>(&path).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, Error::CorruptSnapshot(_)), "{msg}");
        let expected = header.len() + 2;
        assert!(
            msg.contains(&format!("file is {size} bytes, header says {expected}")),
            "{msg}"
        );
        // A header line that never ends within the bound is rejected too.
        std::fs::write(&path, "hhckpt ".repeat(100)).unwrap();
        assert!(matches!(load::<u64>(&path), Err(Error::CorruptSnapshot(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn write_keeps_two_generations_and_load_latest_falls_back() {
        let path = tmp_path("gen");
        let first = Checkpoint {
            shards: vec![snap_of(&[1, 1])],
            unobserved: 0,
        };
        let second = Checkpoint {
            shards: vec![snap_of(&[2, 2, 2])],
            unobserved: 5,
        };
        write(&path, &first).unwrap();
        write(&path, &second).unwrap();
        // current is the second generation...
        let (got, fallback) = load_latest::<u64>(&path).unwrap();
        assert!(fallback.is_none());
        assert_eq!(got, second);
        // ...and the first survives at .prev
        assert_eq!(load::<u64>(&format!("{path}.prev")).unwrap(), first);

        // Tear the current generation: load_latest skips to .prev.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let (got, fallback) = load_latest::<u64>(&path).unwrap();
        let fallback = fallback.expect("the torn generation falls back");
        assert!(matches!(fallback.reason, Error::CorruptSnapshot(_)));
        assert_eq!(
            fallback.to_string(),
            format!(
                "checkpoint {path} failed to load ({}); answering from {path}.prev",
                fallback.reason
            )
        );
        assert_eq!(got, first);

        // Tear both: the current generation's typed error surfaces.
        std::fs::write(format!("{path}.prev"), "garbage").unwrap();
        assert!(matches!(
            load_latest::<u64>(&path),
            Err(Error::CorruptSnapshot(_))
        ));
        for suffix in ["", ".prev", ".tmp"] {
            let _ = std::fs::remove_file(format!("{path}{suffix}"));
        }
    }

    #[test]
    fn merge_to_snapshot_folds_all_shards() {
        let merged = merge_to_snapshot(vec![snap_of(&[1, 1]), snap_of(&[1, 2])])
            .unwrap()
            .unwrap();
        let engine = Engine::from_snapshot(merged).unwrap();
        assert_eq!(engine.stream_len(), 4);
        assert_eq!(engine.estimate(&1), 3);
        assert!(merge_to_snapshot::<u64>(Vec::new()).unwrap().is_none());
    }
}
