//! The wire protocol: newline-delimited ingest lines, in-band `?` query
//! commands, and the versioned NDJSON record renderers shared by
//! `hh serve` (stdin mode) and the network server — one definition of
//! every record shape, so the two surfaces cannot drift.
//!
//! # Ingest lines
//!
//! ```text
//! item            # one occurrence of `item`
//! item\tcount     # `count` occurrences (1..=1_000_000)
//! ```
//!
//! # Query lines (in-band, start with `?`)
//!
//! ```text
//! ?topk [k]       # live top-k report record
//! ?stats          # pipeline + net telemetry record
//! ?ping           # liveness record
//! ?shutdown       # graceful drain: flush, final records, exit
//! ```
//!
//! # Records
//!
//! Every record is a single-line JSON object carrying `"v":1`
//! ([`PROTOCOL_VERSION`]). Consumers must reject records whose major
//! version they do not understand (`hh stats` does). The full schemas are
//! documented in `docs/PROTOCOL.md`.

use std::fmt::Write as _;

use hh_counters::error::Error;
use hh_obs::HistogramSnapshot;
use hh_sketches::engine::Report;
use hh_sketches::pipeline::PipelineStats;
use serde::Serialize;

use crate::options::ServeItem;

/// The NDJSON record (and ingest protocol) major version every record
/// carries as `"v"`.
pub const PROTOCOL_VERSION: u64 = 1;

/// The largest count accepted on an `item\tcount` line. A cap, not a
/// tuning knob: it bounds how much work one line can enqueue.
pub const MAX_LINE_COUNT: u64 = 1_000_000;

/// An in-band query command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `?topk [k]` — live top-k report (`k` defaults to the serve
    /// option; any larger `k` returns every stored row).
    TopK(Option<usize>),
    /// `?stats` — pipeline + network telemetry.
    Stats,
    /// `?ping` — liveness check.
    Ping,
    /// `?shutdown` — graceful drain.
    Shutdown,
}

/// One parsed protocol line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Line<'a> {
    /// An ingest line: the raw item text and its count (1 when omitted).
    Item(&'a str, u64),
    /// A query command.
    Query(Query),
    /// Blank (ignored).
    Empty,
    /// Rejected; the reason goes into an error record and the malformed
    /// counter, and the connection lives on.
    Malformed(&'static str),
}

/// Parses one line (no trailing newline) of the ingest/query protocol.
///
/// ```
/// use hh_net::proto::{parse_line, Line, Query};
/// assert_eq!(parse_line("api/users"), Line::Item("api/users", 1));
/// assert_eq!(parse_line("api/users\t17"), Line::Item("api/users", 17));
/// assert_eq!(parse_line("?topk 5"), Line::Query(Query::TopK(Some(5))));
/// assert!(matches!(parse_line("x\t0"), Line::Malformed(_)));
/// ```
pub fn parse_line(line: &str) -> Line<'_> {
    let line = line.trim();
    if line.is_empty() {
        return Line::Empty;
    }
    if let Some(query) = line.strip_prefix('?') {
        let mut words = query.split_whitespace();
        return match (words.next(), words.next(), words.next()) {
            (Some("topk"), None, None) => Line::Query(Query::TopK(None)),
            (Some("topk"), Some(k), None) => match k.parse::<usize>() {
                Ok(k) if k > 0 => Line::Query(Query::TopK(Some(k))),
                _ => Line::Malformed("?topk k must be a positive integer"),
            },
            (Some("stats"), None, None) => Line::Query(Query::Stats),
            (Some("ping"), None, None) => Line::Query(Query::Ping),
            (Some("shutdown"), None, None) => Line::Query(Query::Shutdown),
            _ => Line::Malformed("unknown query command"),
        };
    }
    match line.split_once('\t') {
        None => Line::Item(line, 1),
        Some((item, count)) => {
            let item = item.trim();
            if item.is_empty() {
                return Line::Malformed("empty item before tab");
            }
            match count.trim().parse::<u64>() {
                Ok(n) if (1..=MAX_LINE_COUNT).contains(&n) => Line::Item(item, n),
                Ok(_) => Line::Malformed("count out of range (1..=1000000)"),
                Err(_) => Line::Malformed("count is not an integer"),
            }
        }
    }
}

fn hist_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
        h.count, h.p50, h.p90, h.p99, h.max
    )
}

/// Renders the top-k rows of a report — a live view's or one engine's
/// (`&Engine` converts) — as the `"top"` array cell of a report record
/// (`item`/`count`/`lower`/`upper` per row).
///
/// Rendering cannot fail; the `Result` stays only because the repo
/// benchmark (`perfbench/`) calls this signature.
pub fn top_json<'a, I>(report: impl Into<Report<'a, I>>, k: usize) -> Result<String, Error>
where
    I: ServeItem,
{
    Ok(top_rows(report, k))
}

/// The body of [`top_json`].
fn top_rows<'a, I>(report: impl Into<Report<'a, I>>, k: usize) -> String
where
    I: ServeItem,
{
    let mut out = String::from("[");
    for (i, row) in report.into().top_k(k).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"item\":");
        row.item.serialize(&mut out);
        let _ = write!(
            out,
            ",\"count\":{},\"lower\":{},\"upper\":{}}}",
            row.estimate, row.lower, row.upper
        );
    }
    out.push(']');
    out
}

/// Renders one top-k report record: `{"v":1,"epoch":E,...}` for live
/// reports, `{"v":1,"final":true,...}` for the final one.
pub fn report_record<I>(report: Report<'_, I>, epoch: Option<u64>, k: usize) -> String
where
    I: ServeItem,
{
    let label = match epoch {
        Some(e) => format!("\"epoch\":{e}"),
        None => "\"final\":true".to_string(),
    };
    format!(
        "{{\"v\":{PROTOCOL_VERSION},{label},\"stream_len\":{},\"top\":{}}}",
        report.total(),
        top_rows(report, k)
    )
}

/// A point-in-time sample of the network server's own counters, rendered
/// into stats records as the `"net"` section.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetSample {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections open right now.
    pub open: i64,
    /// Connections refused because `max_conns` was reached.
    pub rejected: u64,
    /// Connections shed by overload protection: accepted, told why with
    /// an in-band error record, and closed.
    pub shed: u64,
    /// Connections reaped by the idle sweep.
    pub idle_timeouts: u64,
    /// Ingest lines accepted.
    pub lines: u64,
    /// Query commands answered.
    pub queries: u64,
    /// Lines rejected as malformed.
    pub malformed: u64,
    /// Bytes read from clients.
    pub bytes_in: u64,
    /// Bytes written to clients.
    pub bytes_out: u64,
}

impl NetSample {
    fn json(&self) -> String {
        format!(
            "{{\"accepted\":{},\"open\":{},\"rejected\":{},\"shed\":{},\"idle_timeouts\":{},\
             \"lines\":{},\"queries\":{},\"malformed\":{},\"bytes_in\":{},\"bytes_out\":{}}}",
            self.accepted,
            self.open,
            self.rejected,
            self.shed,
            self.idle_timeouts,
            self.lines,
            self.queries,
            self.malformed,
            self.bytes_in,
            self.bytes_out
        )
    }
}

/// Renders one telemetry record (`"stats":true`), with the optional
/// `"net"` section when serving over the network.
pub fn stats_record(stats: &PipelineStats, net: Option<&NetSample>, fin: bool) -> String {
    let mut shards = String::new();
    for (i, s) in stats.shards.iter().enumerate() {
        if i > 0 {
            shards.push(',');
        }
        let _ = write!(
            shards,
            "{{\"shard\":{},\"items\":{},\"batches\":{},\"routed\":{},\
             \"queue_depth\":{},\"restarts\":{},\"send_block_ns\":{}}}",
            s.shard,
            s.items_ingested,
            s.batches_ingested,
            s.routed_items,
            s.queue_depth,
            s.restarts,
            hist_json(&s.send_block_ns)
        );
    }
    let fin = if fin { "\"final\":true," } else { "" };
    let net = match net {
        Some(n) => format!(",\"net\":{}", n.json()),
        None => String::new(),
    };
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"stats\":true,{fin}\"epoch\":{},\"routed\":{},\
         \"restarts\":{},\"lost\":{},\"imbalance\":{:.4},\"snapshot_ns\":{},\"merge_ns\":{},\
         \"shards\":[{}]{net}}}",
        stats.epochs,
        stats.routed,
        stats.restarts,
        stats.lost_items,
        stats.imbalance,
        hist_json(&stats.snapshot_ns),
        hist_json(&stats.merge_ns),
        shards
    )
}

/// Renders one error record (`line` is the connection's 1-based line
/// number that was rejected).
pub fn error_record(reason: &str, line: u64) -> String {
    let mut out = format!("{{\"v\":{PROTOCOL_VERSION},\"error\":");
    reason.serialize(&mut out);
    let _ = write!(out, ",\"line\":{line}}}");
    out
}

/// Renders the `?ping` response.
pub fn pong_record() -> String {
    format!("{{\"v\":{PROTOCOL_VERSION},\"pong\":true}}")
}

/// Renders the `?shutdown` acknowledgement (`routed` is the items routed
/// when the drain began).
pub fn shutdown_record(routed: u64) -> String {
    format!("{{\"v\":{PROTOCOL_VERSION},\"shutdown\":true,\"routed\":{routed}}}")
}

/// Validates the `"v"` field of a parsed record: absent or a different
/// major is rejected (the stats-stream contract).
///
/// ```
/// use hh_net::proto::check_version;
/// let ok: serde_json::Value = serde_json::from_str(r#"{"v":1,"stats":true}"#).unwrap();
/// assert!(check_version(&ok).is_ok());
/// let old: serde_json::Value = serde_json::from_str(r#"{"stats":true}"#).unwrap();
/// assert!(check_version(&old).is_err());
/// ```
pub fn check_version(record: &serde_json::Value) -> Result<(), Error> {
    match record["v"].as_u64() {
        Some(PROTOCOL_VERSION) => Ok(()),
        Some(v) => Err(Error::parse(format!(
            "unsupported record version {v} (this build speaks v{PROTOCOL_VERSION})"
        ))),
        None => Err(Error::parse(
            "record has no \"v\" version field (expected v1)",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_sketches::engine::{AlgoKind, EngineConfig};

    #[test]
    fn parse_items_queries_and_rejects() {
        assert_eq!(parse_line("  x  "), Line::Item("x", 1));
        assert_eq!(parse_line("a b"), Line::Item("a b", 1)); // spaces allowed
        assert_eq!(parse_line("k\t3"), Line::Item("k", 3));
        assert_eq!(parse_line(""), Line::Empty);
        assert_eq!(parse_line("?topk"), Line::Query(Query::TopK(None)));
        assert_eq!(parse_line("?topk 7"), Line::Query(Query::TopK(Some(7))));
        assert_eq!(parse_line("?stats"), Line::Query(Query::Stats));
        assert_eq!(parse_line("?ping"), Line::Query(Query::Ping));
        assert_eq!(parse_line("?shutdown"), Line::Query(Query::Shutdown));
        // Outer whitespace (including a leading tab) trims away first.
        assert_eq!(parse_line("\t3"), Line::Item("3", 1));
        for bad in [
            "?topk 0",
            "?topk x",
            "?topk 1 2",
            "?frobnicate",
            "?snapshot",
            "x\t0",
            "x\tfour",
            "x\t-1",
            "x\t1000001",
        ] {
            assert!(matches!(parse_line(bad), Line::Malformed(_)), "{bad:?}");
        }
        assert_eq!(
            parse_line(&format!("x\t{MAX_LINE_COUNT}")),
            Line::Item("x", MAX_LINE_COUNT)
        );
    }

    #[test]
    fn records_are_versioned_single_line_json() {
        let mut engine = EngineConfig::new(AlgoKind::SpaceSaving)
            .counters(8)
            .build::<u64>()
            .unwrap();
        engine.update_batch(&[1, 1, 2]);
        for record in [
            report_record(engine.report(), Some(3), 2),
            report_record(engine.report(), None, 2),
            error_record("bad \"line\"", 9),
            pong_record(),
            shutdown_record(42),
        ] {
            assert!(!record.contains('\n'), "{record}");
            let v: serde_json::Value = serde_json::from_str(&record).expect("parses");
            check_version(&v).expect("versioned");
        }
        let v: serde_json::Value =
            serde_json::from_str(&report_record(engine.report(), None, 2)).unwrap();
        assert_eq!(v["final"], true);
        assert_eq!(v["stream_len"], 3);
        assert_eq!(v["top"][0]["item"], 1);
        assert_eq!(v["top"][0]["count"], 2);
    }

    #[test]
    fn stats_record_carries_net_section() {
        let stats = PipelineStats {
            routed: 10,
            epochs: 1,
            imbalance: 1.0,
            restarts: 2,
            lost_items: 5,
            snapshot_ns: HistogramSnapshot::default(),
            merge_ns: HistogramSnapshot::default(),
            shards: Vec::new(),
        };
        let plain = stats_record(&stats, None, false);
        let v: serde_json::Value = serde_json::from_str(&plain).unwrap();
        check_version(&v).unwrap();
        assert_eq!(v["stats"], true);
        assert_eq!(v["restarts"], 2);
        assert_eq!(v["lost"], 5);
        assert!(v["net"].as_f64().is_none() && v["net"].as_array().is_none());

        let net = NetSample {
            accepted: 3,
            open: 2,
            lines: 100,
            shed: 1,
            ..NetSample::default()
        };
        let with_net = stats_record(&stats, Some(&net), true);
        let v: serde_json::Value = serde_json::from_str(&with_net).unwrap();
        assert_eq!(v["final"], true);
        assert_eq!(v["net"]["accepted"], 3);
        assert_eq!(v["net"]["lines"], 100);
        assert_eq!(v["net"]["shed"], 1);
    }

    #[test]
    fn version_check_rejects_unknown_major() {
        let future: serde_json::Value = serde_json::from_str("{\"v\":2}").unwrap();
        assert!(check_version(&future).is_err());
        let stringy: serde_json::Value = serde_json::from_str("{\"v\":\"1\"}").unwrap();
        assert!(check_version(&stringy).is_err());
    }
}
