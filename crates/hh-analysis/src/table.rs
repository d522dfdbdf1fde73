//! Plain-text table rendering for experiment output.
//!
//! Every experiment prints its results through [`Table`], producing
//! aligned monospace tables (and, for EXPERIMENTS.md, GitHub-flavoured
//! markdown).

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the cell count must match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    /// Renders as an aligned monospace table.
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], w: &[usize], out: &mut String| {
            let mut parts = Vec::with_capacity(cells.len());
            for (c, &width) in cells.iter().zip(w) {
                parts.push(format!("{c:>width$}"));
            }
            let _ = writeln!(out, "{}", parts.join("  "));
        };
        line(&self.headers, &w, &mut out);
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &w, &mut out);
        }
        out
    }

    /// Renders as CSV (RFC-4180-style quoting for cells containing commas,
    /// quotes or newlines), header row first. The title is not emitted —
    /// CSV consumers want pure columnar data.
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| cell(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Renders as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Formats a float compactly for table cells.
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Formats an `Option<f64>` bound (`∞` when the bound is vacuous).
pub fn fbound(x: Option<f64>) -> String {
    match x {
        Some(v) => fnum(v),
        None => "n/a".to_string(),
    }
}

/// Formats a boolean pass/fail cell.
pub fn fok(ok: bool) -> String {
    if ok {
        "ok".to_string()
    } else {
        "VIOLATED".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["alg", "err"]);
        t.row(vec!["SpaceSaving".into(), "3".into()]);
        t.row(vec!["CM".into(), "12345".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("SpaceSaving"));
        // right-aligned err column
        assert!(r.lines().last().unwrap().ends_with("12345"));
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new("md", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn csv_quoting() {
        let mut t = Table::new("csv", &["name", "note"]);
        t.row(vec!["plain".into(), "a,b".into()]);
        t.row(vec!["q\"uote".into(), "line\nbreak".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,note");
        assert_eq!(lines[1], "plain,\"a,b\"");
        assert!(lines[2].starts_with("\"q\"\"uote\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(1.23456), "1.235");
        assert_eq!(fnum(42.0), "42.0");
        assert_eq!(fnum(123456.0), "123456");
        assert_eq!(fbound(None), "n/a");
        assert_eq!(fok(true), "ok");
        assert_eq!(fok(false), "VIOLATED");
    }
}
