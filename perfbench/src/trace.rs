//! Workload traces, their exact counts, and the accuracy and certificate
//! checks every run makes against them.
//!
//! Traces come from `hh-streamgen`: `exact_zipf_counts` fixes the
//! multiset, `stream_from_counts(Shuffled(seed))` orders it, so the true
//! count of every item is known without an oracle pass. A run replays
//! whole passes of one trace, so after `p` passes item `i` occurred
//! exactly `p · counts[i - 1]` times.

use std::fmt::Write as _;

use hh::streamgen::{exact_zipf_counts, stream_from_counts, Ordering};
use serde_json::Value;

/// The report depth every workload queries and scores.
pub const TOP_K: usize = 50;

/// The shape of one workload's trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// Distinct ids (`1..=ids`).
    pub ids: usize,
    /// Items in one pass.
    pub pass_len: u64,
    /// Zipf exponent.
    pub alpha: f64,
}

/// One pre-rendered pass: ids in arrival order plus their protocol lines.
#[derive(Debug)]
pub struct Trace {
    /// `counts[i]` is the number of occurrences of id `i + 1` in a pass.
    pub counts: Vec<u64>,
    /// The pass in arrival order.
    pub ids: Vec<u64>,
    /// The pass rendered as newline-terminated decimal lines.
    pub bytes: Vec<u8>,
}

impl Trace {
    /// Builds and renders one pass of `spec`, shuffled by `seed`.
    pub fn new(spec: TraceSpec, seed: u64) -> Trace {
        let counts = exact_zipf_counts(spec.ids, spec.pass_len, spec.alpha);
        let ids = stream_from_counts(&counts, Ordering::Shuffled(seed));
        let mut text = String::with_capacity(ids.len() * 8);
        for id in &ids {
            let _ = writeln!(text, "{id}");
        }
        Trace {
            counts,
            ids,
            bytes: text.into_bytes(),
        }
    }

    /// Items in one pass.
    pub fn len(&self) -> u64 {
        self.ids.len() as u64
    }

    /// Byte offsets of the line starts at every `every`-th line, ending
    /// with the pass length: consecutive pairs delimit whole-line chunks.
    pub fn chunk_offsets(&self, every: usize) -> Vec<usize> {
        let mut offsets = vec![0];
        let mut lines = 0usize;
        for (i, &b) in self.bytes.iter().enumerate() {
            if b == b'\n' {
                lines += 1;
                if lines.is_multiple_of(every) {
                    offsets.push(i + 1);
                }
            }
        }
        if offsets.last() != Some(&self.bytes.len()) {
            offsets.push(self.bytes.len());
        }
        offsets
    }
}

/// One reported row: an item with its certified interval.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub item: u64,
    pub lower: u64,
    pub upper: u64,
}

/// A decoded report record (`?topk` reply or the final drain report).
#[derive(Debug)]
pub struct Report {
    pub stream_len: u64,
    pub rows: Vec<Row>,
}

/// Decodes a report record, checking its protocol version.
pub fn parse_report(line: &str) -> Result<Report, String> {
    let v: Value =
        serde_json::from_str(line).map_err(|e| format!("bad record {e}: {line:.120}"))?;
    hh::net::proto::check_version(&v).map_err(|e| e.to_string())?;
    if v["error"] != Value::Null {
        return Err(format!("error record: {line:.200}"));
    }
    let stream_len = v["stream_len"]
        .as_u64()
        .ok_or_else(|| format!("record without stream_len: {line:.120}"))?;
    let top = v["top"]
        .as_array()
        .ok_or_else(|| format!("record without top: {line:.120}"))?;
    let mut rows = Vec::with_capacity(top.len());
    for cell in top {
        let item = match cell["item"].as_u64() {
            Some(n) => Some(n),
            None => cell["item"].as_str().and_then(|s| s.parse().ok()),
        };
        match (item, cell["lower"].as_u64(), cell["upper"].as_u64()) {
            (Some(item), Some(lower), Some(upper)) => rows.push(Row { item, lower, upper }),
            _ => return Err(format!("malformed top row in {line:.120}")),
        }
    }
    Ok(Report { stream_len, rows })
}

/// Accuracy of one final top-k against the exact counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accuracy {
    /// Share of the true top-k found in the reported top-k.
    pub recall: f64,
    /// Σ (upper − lower) over the reported rows, per trace pass.
    pub width_per_pass: f64,
    /// Rows whose interval misses the true count.
    pub violations: usize,
}

/// Scores `rows` from a summary of `passes` whole passes of `counts`.
pub fn score(rows: &[Row], counts: &[u64], passes: u64) -> Accuracy {
    let truth = |id: u64| -> u64 {
        usize::try_from(id)
            .ok()
            .and_then(|i| i.checked_sub(1))
            .and_then(|i| counts.get(i))
            .map_or(0, |&c| c * passes)
    };
    // `exact_zipf_counts` is non-increasing, so the k-th count is the
    // threshold; ties at the threshold all count as true top-k.
    let threshold = counts.get(TOP_K - 1).copied().unwrap_or(0) * passes;
    let mut hits = 0usize;
    let mut width = 0u64;
    let mut violations = 0usize;
    for row in rows {
        let f = truth(row.item);
        if f >= threshold && f > 0 {
            hits += 1;
        }
        if !(row.lower <= f && f <= row.upper) {
            violations += 1;
        }
        width += row.upper.saturating_sub(row.lower);
    }
    Accuracy {
        recall: hits.min(TOP_K) as f64 / TOP_K as f64,
        width_per_pass: width as f64 / passes.max(1) as f64,
        violations,
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
