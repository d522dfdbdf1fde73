//! Argument parsing for the `hh` binary (no external dependency).
//!
//! Everything maps onto the unified `hh::engine` API: `--algo` parses
//! straight into an [`AlgoKind`], `-m`/`--eps` become a
//! [`hh::engine::CapacitySpec`], and the parsed [`Options`] build engines
//! exclusively through [`EngineConfig`].

use hh::counters::Key;
use hh::engine::{AlgoKind, CapacitySpec, EngineConfig};
use hh::net::{NetOptions, ServeOptions};
use hh::Error;

/// Usage text printed on parse errors.
pub const USAGE: &str = "\
usage: hh <command> [options] [FILE...]

commands:
  topk        report the k items with the largest counters
  heavy       report items above phi*F1 with confidence labels
  estimate    report estimates for the items given via --items
  residual    estimate the residual tail mass F1^res(k)
  merge       merge two or more snapshot FILEs shard by shard; report top-k
  gen         emit a synthetic Zipf trace (requires --zipf)
  serve       sharded streaming ingest with periodic live top-k reports;
              with --listen / --listen-unix, a network server speaking the
              docs/PROTOCOL.md line protocol instead of reading FILE/stdin
  client      stream FILE/stdin to a running `serve --listen` server,
              send --query commands, print the NDJSON responses
  stats       validate and render an NDJSON stats stream from
              `serve --stats-every` (records carry \"v\":1; unknown
              versions are rejected; reads FILE or stdin)

Common options apply to every command. Serve, serve --listen and client
options belong to the command in their heading: given to another command,
such a flag is a usage error (exit 2), and so is a serve --listen option
without --listen or --listen-unix, or a serve setting out of its range.

common options:
  -m <N>             counters to use (default 256)
  --eps <F>          size the summary from the paper's Theorem 6/7 rule
                     m = Bk + Ak/eps instead of -m (uses -k)
  -k <N>             k for topk/residual and --eps sizing (default 10)
  --phi <F>          heavy-hitter threshold fraction (default 0.01)
  --algo <A>         spacesaving (default), frequent, lossycounting,
                     stickysampling, countmin or countsketch
  --seed <N>         seed for randomized backends (default 0)
  --items <a,b,c>    comma-separated items for `estimate`
  --weighted         lines are `item weight`; a weight is counted exactly
                     in thousandths (at most 3 decimals, total at most
                     ~1.8e16 = 18446744073709551.615), SpaceSaving and
                     Frequent only; printed with 3 decimals (--json: the
                     shortest exact decimal)
  --json             machine-readable output
  --snapshot-out <F> write the shards' snapshots to F after ingest (an
                     hhckpt envelope, the only snapshot file format)
  --snapshot-in <F>  resume from a snapshot written by --snapshot-out:
                     shard j resumes from snapshot j (for `serve` the
                     counts must match; without --shards the checkpoint's
                     count is used); shards that are not one hash
                     partition fold into one summary
  --zipf <SPEC>      for `gen`: n,total,alpha[,seed] (e.g. 1000,50000,1.2)

serve options (serve only; parsed straight into hh::net::ServeOptions, which
stdin/trace mode and --listen mode share, so the two cannot drift; items are
hash-partitioned across shards, and each record fires at its boundary item):
  --shards <N>       worker shards (default: available cores, or the
                     --snapshot-in checkpoint's shard count)
  --batch-size <N>   router flush threshold in items (default 8192)
  --queue-depth <N>  bounded channel capacity in batches (default 4)
  --report-every <N> emit a live top-k report every N items
                     (default 0: only the final report)
  --stats-every <N>  emit a pipeline telemetry record (per-shard items,
                     queue depth, imbalance, epoch latency quantiles)
                     every N items (default 0: only the final stats record;
                     stats records are NDJSON objects with \"stats\":true)
  --checkpoint-every <N>
                     write a durable checkpoint (CRC-framed envelope,
                     tmp+fsync+rename, two generations) to --snapshot-out
                     every N items, one snapshot per shard; --snapshot-in
                     resumes shard j from snapshot j (counts must match),
                     falling back to the previous generation on a torn file
                     (see docs/RELIABILITY.md)

serve --listen options (serve only, with --listen or --listen-unix; parsed
straight into hh::net::NetOptions; records are always NDJSON):
  --listen <H:P>     TCP listen address (port 0 = ephemeral)
  --listen-unix <F>  Unix-domain socket path
  --addr-file <F>    write the bound TCP address to F (for scripts)
  --idle-timeout <N> close connections idle for N ms (default 30000; 0 off)
  --max-conns <N>    concurrent connection cap (default 1024)

client options (client only):
  --connect <H:P>    server address (required)
  --query <Q>        in-band query after ingest, e.g. 'topk 5', 'stats',
                     'ping' (repeatable)
  --shutdown         finish by asking the server to drain gracefully
  --connect-timeout <MS>
                     per-attempt connect timeout (default 5000; 0 off)
  --read-timeout <MS>
                     socket read timeout (default 30000; 0 off)
  --retries <N>      connection attempts with capped exponential backoff
                     and seeded jitter (default 3; jitter uses --seed)

  FILE               input path (default: stdin), one item per line;
                     `merge` takes two or more snapshot files";

/// Which subcommand to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `topk`
    TopK,
    /// `heavy`
    Heavy,
    /// `estimate`
    Estimate,
    /// `residual`
    Residual,
    /// `merge`
    Merge,
    /// `gen`
    Gen,
    /// `serve`
    Serve,
    /// `client`
    Client,
    /// `stats`
    Stats,
}

/// Parameters of a `gen --zipf` trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfSpec {
    /// Distinct items.
    pub n: usize,
    /// Total stream length.
    pub total: u64,
    /// Skew parameter.
    pub alpha: f64,
    /// Shuffle seed.
    pub seed: u64,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Subcommand.
    pub command: Command,
    /// Explicit counter budget (`-m`), if given.
    pub m: Option<usize>,
    /// Error-rate sizing (`--eps`), if given.
    pub eps: Option<f64>,
    /// `k` for topk/residual and `--eps` sizing.
    pub k: usize,
    /// φ for `heavy`.
    pub phi: f64,
    /// Algorithm choice.
    pub algo: AlgoKind,
    /// Seed for randomized backends.
    pub seed: u64,
    /// Items for `estimate`.
    pub items: Vec<Key>,
    /// Weighted input mode.
    pub weighted: bool,
    /// JSON output.
    pub json: bool,
    /// Snapshot output path.
    pub snapshot_out: Option<String>,
    /// Snapshot input path.
    pub snapshot_in: Option<String>,
    /// Zipf spec for `gen`.
    pub zipf: Option<ZipfSpec>,
    /// `serve`'s settings: each serve flag as it is parsed, then the
    /// engine config, `-k` and the snapshot paths once parsing ends.
    pub serve: ServeOptions,
    /// The listener of `serve --listen`/`--listen-unix` (`None`: `serve`
    /// reads FILE/stdin).
    pub net: Option<NetOptions>,
    /// Server address for `client --connect`.
    pub connect: Option<String>,
    /// In-band queries for `client` (e.g. `topk 5`, `stats`).
    pub queries: Vec<String>,
    /// Whether `client` asks the server to drain after ingest.
    pub shutdown: bool,
    /// Per-attempt connect timeout for `client`, in ms (0 disables).
    pub connect_timeout_ms: u64,
    /// Socket read timeout for `client`, in ms (0 disables).
    pub read_timeout_ms: u64,
    /// Connection attempts for `client` (capped-backoff retry).
    pub retries: u32,
    /// Input files (at most one, except for `merge`).
    pub inputs: Vec<String>,
}

impl Options {
    /// The engine configuration these options describe: `--algo` plus
    /// either the explicit `-m` budget or the `--eps` Theorem 6/7 sizing.
    pub fn engine_config(&self) -> EngineConfig {
        let config = EngineConfig::new(self.algo).seed(self.seed);
        match (self.eps, self.m) {
            (Some(eps), _) => config.capacity(CapacitySpec::ResidualEstimate { k: self.k, eps }),
            (None, Some(m)) => config.counters(m),
            (None, None) => config,
        }
    }
}

/// Parses arguments (after the program name).
pub fn parse_args(args: &[String]) -> Result<Options, Error> {
    let mut it = args.iter().peekable();
    let word = it.next().map(String::as_str);
    let command = match word {
        Some("topk") => Command::TopK,
        Some("heavy") => Command::Heavy,
        Some("estimate") => Command::Estimate,
        Some("residual") => Command::Residual,
        Some("merge") => Command::Merge,
        Some("gen") => Command::Gen,
        Some("serve") => Command::Serve,
        Some("client") => Command::Client,
        Some("stats") => Command::Stats,
        Some(other) => return Err(Error::parse(format!("unknown command {other:?}"))),
        None => return Err(Error::parse("missing command")),
    };

    let mut opts = Options {
        command,
        m: None,
        eps: None,
        k: 10,
        phi: 0.01,
        algo: AlgoKind::SpaceSaving,
        seed: 0,
        items: Vec::new(),
        weighted: false,
        json: false,
        snapshot_out: None,
        snapshot_in: None,
        zipf: None,
        serve: ServeOptions::new(EngineConfig::new(AlgoKind::SpaceSaving)),
        net: None,
        connect: None,
        queries: Vec::new(),
        shutdown: false,
        connect_timeout_ms: 5_000,
        read_timeout_ms: 30_000,
        retries: 3,
        inputs: Vec::new(),
    };

    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if let Some(owner) = flag_owner(flag).filter(|&owner| Some(owner) != word) {
            return Err(Error::parse(format!("{flag} only applies to {owner}")));
        }
        match flag {
            "-m" => opts.m = Some(next_num(&mut it, flag)?),
            "--eps" => {
                let eps: f64 = next_num(&mut it, flag)?;
                if !(eps > 0.0 && eps < 1.0) {
                    return Err(Error::parse("--eps must be in (0, 1)"));
                }
                opts.eps = Some(eps);
            }
            "-k" => opts.k = next_num(&mut it, flag)?,
            "--phi" => {
                opts.phi = next_num(&mut it, flag)?;
                if !(0.0..1.0).contains(&opts.phi) {
                    return Err(Error::parse("--phi must be in [0, 1)"));
                }
            }
            "--algo" => opts.algo = next_value(&mut it, flag)?.parse()?,
            "--seed" => opts.seed = next_num(&mut it, flag)?,
            "--items" => {
                opts.items = next_value(&mut it, flag)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(Key::from)
                    .collect()
            }
            "--weighted" => opts.weighted = true,
            "--json" => opts.json = true,
            "--snapshot-out" => opts.snapshot_out = Some(next_value(&mut it, flag)?.clone()),
            "--snapshot-in" => opts.snapshot_in = Some(next_value(&mut it, flag)?.clone()),
            "--zipf" => opts.zipf = Some(parse_zipf(next_value(&mut it, flag)?)?),
            "--shards" => opts.serve = opts.serve.shards(Some(next_num(&mut it, flag)?)),
            "--report-every" => opts.serve = opts.serve.report_every(next_num(&mut it, flag)?),
            "--stats-every" => opts.serve = opts.serve.stats_every(Some(next_num(&mut it, flag)?)),
            "--checkpoint-every" => {
                opts.serve = opts.serve.checkpoint_every(next_num(&mut it, flag)?)
            }
            "--batch-size" => opts.serve = opts.serve.batch_size(next_num(&mut it, flag)?),
            "--queue-depth" => opts.serve = opts.serve.queue_depth(next_num(&mut it, flag)?),
            "--listen" | "--listen-unix" | "--addr-file" | "--idle-timeout" | "--max-conns" => {
                let net = opts.net.take().unwrap_or_default();
                let value = next_value(&mut it, flag)?;
                opts.net = Some(match flag {
                    "--listen" => net.tcp(value),
                    "--listen-unix" => net.unix(value),
                    "--addr-file" => net.addr_file(Some(value.clone())),
                    "--idle-timeout" => net.idle_timeout_ms(parse_num(value, flag)?),
                    _ => net.max_conns(parse_num(value, flag)?),
                })
            }
            "--connect" => opts.connect = Some(next_value(&mut it, flag)?.clone()),
            "--query" => opts.queries.push(next_value(&mut it, flag)?.clone()),
            "--shutdown" => opts.shutdown = true,
            "--connect-timeout" => opts.connect_timeout_ms = next_num(&mut it, flag)?,
            "--read-timeout" => opts.read_timeout_ms = next_num(&mut it, flag)?,
            "--retries" => opts.retries = next_num(&mut it, flag)?,
            other if other.starts_with('-') => {
                return Err(Error::parse(format!("unknown option {other:?}")))
            }
            path => opts.inputs.push(path.to_string()),
        }
    }

    // The engine flags may come in any order, so they reach the serve
    // settings once parsing ends.
    let engine = opts.engine_config();
    opts.serve = opts
        .serve
        .engine(engine)
        .top_k(opts.k)
        .snapshot_in(opts.snapshot_in.clone())
        .snapshot_out(opts.snapshot_out.clone());
    validate(&opts)?;
    Ok(opts)
}

/// The command a command-specific flag belongs to; every other flag is
/// accepted by every command.
fn flag_owner(flag: &str) -> Option<&'static str> {
    match flag {
        "--shards" | "--batch-size" | "--queue-depth" | "--report-every" | "--stats-every"
        | "--checkpoint-every" | "--listen" | "--listen-unix" | "--addr-file"
        | "--idle-timeout" | "--max-conns" => Some("serve"),
        "--connect" | "--query" | "--shutdown" | "--connect-timeout" | "--read-timeout"
        | "--retries" => Some("client"),
        _ => None,
    }
}

/// Checks the flags' combination; for `serve`, the library's own
/// validators check every serve and listener setting.
fn validate(opts: &Options) -> Result<(), Error> {
    if opts.m == Some(0) {
        return Err(Error::parse("-m must be at least 1"));
    }
    if opts.m.is_some() && opts.eps.is_some() {
        return Err(Error::parse("-m and --eps are mutually exclusive"));
    }
    if opts.k == 0 {
        return Err(Error::parse("-k must be at least 1"));
    }
    if opts.command == Command::Serve {
        opts.serve.validate()?;
        if let Some(net) = &opts.net {
            net.validate()?;
        }
    }
    match opts.command {
        Command::Estimate if opts.items.is_empty() => {
            Err(Error::parse("estimate requires --items"))
        }
        Command::Merge if opts.inputs.len() < 2 => {
            Err(Error::parse("merge needs at least two snapshot files"))
        }
        Command::Gen if opts.zipf.is_none() => Err(Error::parse("gen requires --zipf")),
        Command::Gen if opts.weighted => Err(Error::parse("gen emits unweighted traces")),
        Command::Serve if opts.weighted => Err(Error::parse("serve ingests unweighted streams")),
        Command::Serve if opts.net.is_some() && !opts.inputs.is_empty() => Err(Error::parse(
            "serve --listen takes no FILE input; clients stream over the socket",
        )),
        Command::Client if opts.connect.is_none() => Err(Error::parse("client requires --connect")),
        Command::Stats if opts.weighted || opts.snapshot_in.is_some() => Err(Error::parse(
            "stats reads an NDJSON stats stream; only --json and FILE apply",
        )),
        _ if opts.command != Command::Merge && opts.inputs.len() > 1 => {
            Err(Error::parse("more than one input file given"))
        }
        _ => Ok(()),
    }
}

fn parse_zipf(spec: &str) -> Result<ZipfSpec, Error> {
    let parts: Vec<&str> = spec.split(',').collect();
    if !(3..=4).contains(&parts.len()) {
        return Err(Error::parse(format!(
            "--zipf expects n,total,alpha[,seed], got {spec:?}"
        )));
    }
    let spec = ZipfSpec {
        n: parse_num(parts[0], "--zipf n")?,
        total: parse_num(parts[1], "--zipf total")?,
        alpha: parse_num(parts[2], "--zipf alpha")?,
        seed: match parts.get(3) {
            Some(s) => parse_num(s, "--zipf seed")?,
            None => 0,
        },
    };
    if spec.n == 0 || spec.total == 0 || spec.alpha <= 0.0 {
        return Err(Error::parse("--zipf needs n >= 1, total >= 1, alpha > 0"));
    }
    Ok(spec)
}

fn parse_num<T: std::str::FromStr>(value: impl AsRef<str>, flag: &str) -> Result<T, Error>
where
    T::Err: std::fmt::Display,
{
    value
        .as_ref()
        .parse()
        .map_err(|e| Error::parse(format!("{flag}: {e}")))
}

fn next_value<'a>(
    it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    flag: &str,
) -> Result<&'a String, Error> {
    it.next()
        .ok_or_else(|| Error::parse(format!("{flag} needs a value")))
}

/// The value after `flag`, parsed as a number.
fn next_num<T: std::str::FromStr>(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<T, Error>
where
    T::Err: std::fmt::Display,
{
    parse_num(next_value(it, flag)?, flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Options, Error> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let o = p(&["topk"]).unwrap();
        assert_eq!(o.command, Command::TopK);
        assert_eq!(o.m, None);
        assert_eq!(o.k, 10);
        assert_eq!(o.algo, AlgoKind::SpaceSaving);
        assert!(!o.weighted && !o.json);
        assert!(o.inputs.is_empty());
        assert_eq!(o.engine_config().resolved_counters().unwrap(), 256);
    }

    #[test]
    fn full_flags() {
        let o = p(&[
            "heavy", "-m", "64", "--phi", "0.05", "--algo", "frequent", "--json", "data.txt",
        ])
        .unwrap();
        assert_eq!(o.command, Command::Heavy);
        assert_eq!(o.m, Some(64));
        assert_eq!(o.phi, 0.05);
        assert_eq!(o.algo, AlgoKind::Frequent);
        assert!(o.json);
        assert_eq!(o.inputs, vec!["data.txt".to_string()]);
        assert_eq!(o.engine_config().resolved_counters().unwrap(), 64);
    }

    #[test]
    fn every_engine_algo_parses() {
        for (name, kind) in [
            ("spacesaving", AlgoKind::SpaceSaving),
            ("frequent", AlgoKind::Frequent),
            ("lossycounting", AlgoKind::LossyCounting),
            ("stickysampling", AlgoKind::StickySampling),
            ("countmin", AlgoKind::CountMin),
            ("countsketch", AlgoKind::CountSketch),
        ] {
            assert_eq!(p(&["topk", "--algo", name]).unwrap().algo, kind);
        }
    }

    #[test]
    fn eps_drives_theorem_sizing() {
        // m = Bk + Ak/eps = 10 + 1000 with A = B = 1, k = 10
        let o = p(&["topk", "--eps", "0.01"]).unwrap();
        assert_eq!(o.engine_config().resolved_counters().unwrap(), 1010);
        assert!(p(&["topk", "--eps", "0.01", "-m", "64"]).is_err());
        assert!(p(&["topk", "--eps", "1.5"]).is_err());
    }

    #[test]
    fn estimate_needs_items() {
        assert!(p(&["estimate"]).is_err());
        let o = p(&["estimate", "--items", "a,b"]).unwrap();
        assert_eq!(o.items, vec![Key::from("a"), Key::from("b")]);
    }

    #[test]
    fn merge_needs_two_snapshots() {
        assert!(p(&["merge"]).is_err());
        assert!(p(&["merge", "one.json"]).is_err());
        let o = p(&["merge", "a.json", "b.json", "c.json"]).unwrap();
        assert_eq!(o.inputs.len(), 3);
    }

    #[test]
    fn gen_parses_zipf_spec() {
        assert!(p(&["gen"]).is_err());
        let o = p(&["gen", "--zipf", "100,5000,1.2,7"]).unwrap();
        let z = o.zipf.unwrap();
        assert_eq!((z.n, z.total, z.seed), (100, 5000, 7));
        assert!((z.alpha - 1.2).abs() < 1e-12);
        assert!(p(&["gen", "--zipf", "100,5000"]).is_err());
        assert!(p(&["gen", "--zipf", "0,5000,1.2"]).is_err());
    }

    #[test]
    fn snapshot_flags_parse() {
        let o = p(&[
            "topk",
            "--snapshot-out",
            "s.json",
            "--snapshot-in",
            "r.json",
        ])
        .unwrap();
        assert_eq!(o.snapshot_out.as_deref(), Some("s.json"));
        assert_eq!(o.snapshot_in.as_deref(), Some("r.json"));
    }

    /// The library's serve settings over the CLI's default engine.
    fn library_serve() -> ServeOptions {
        ServeOptions::new(EngineConfig::new(AlgoKind::SpaceSaving))
    }

    #[test]
    fn serve_parses_and_validates() {
        let o = p(&[
            "serve",
            "--shards",
            "4",
            "--report-every",
            "1000",
            "-k",
            "3",
        ])
        .unwrap();
        assert_eq!(o.command, Command::Serve);
        assert_eq!(
            o.serve,
            library_serve().shards(Some(4)).report_every(1000).top_k(3)
        );
        // Every serve flag left out keeps the library's default.
        assert_eq!(p(&["serve"]).unwrap().serve, library_serve());
        // The engine flags reach the serve settings in any order.
        let o = p(&[
            "serve",
            "--batch-size",
            "512",
            "--queue-depth",
            "2",
            "--algo",
            "frequent",
            "-m",
            "64",
            "--seed",
            "9",
        ])
        .unwrap();
        let engine = EngineConfig::new(AlgoKind::Frequent).counters(64).seed(9);
        assert_eq!(
            o.serve,
            library_serve()
                .batch_size(512)
                .queue_depth(2)
                .engine(engine)
        );
        // Resume is supported: drain writes --snapshot-out, restart folds
        // it back in via --snapshot-in.
        let o = p(&["serve", "--snapshot-in", "x.json"]).unwrap();
        assert_eq!(o.serve, library_serve().snapshot_in(Some("x.json".into())));
        // The library's validators run at parse time: zero and over the
        // maximum fail alike.
        for (flag, value) in [
            ("--shards", "0"),
            ("--shards", "5000"),
            ("--batch-size", "0"),
            ("--batch-size", "2000000"),
            ("--queue-depth", "0"),
            ("--queue-depth", "5000"),
        ] {
            assert!(p(&["serve", flag, value]).is_err(), "{flag} {value}");
        }
        assert!(p(&["serve", "--weighted"]).is_err());
    }

    #[test]
    fn serve_listen_flags_parse_and_gate() {
        let o = p(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
            "addr.txt",
            "--idle-timeout",
            "5000",
            "--max-conns",
            "16",
        ])
        .unwrap();
        let net = NetOptions::new()
            .tcp("127.0.0.1:0")
            .addr_file(Some("addr.txt".into()))
            .idle_timeout_ms(5000)
            .max_conns(16);
        assert_eq!(o.net, Some(net));
        assert_eq!(
            p(&["serve", "--listen-unix", "hh.sock"]).unwrap().net,
            Some(NetOptions::new().unix("hh.sock"))
        );
        assert_eq!(p(&["serve"]).unwrap().net, None);
        // A listener setting needs a listener, and the cap must be >= 1.
        assert!(p(&["serve", "--max-conns", "16"]).is_err());
        assert!(p(&["serve", "--listen", "127.0.0.1:0", "--max-conns", "0"]).is_err());
        // listen flags belong to serve; FILE input conflicts with --listen
        assert!(p(&["topk", "--listen", "127.0.0.1:0"]).is_err());
        assert!(p(&["topk", "--addr-file", "addr.txt"]).is_err());
        assert!(p(&["serve", "--listen", "127.0.0.1:0", "in.txt"]).is_err());
        // One shard policy: the policy flags are unknown, not defaulted.
        assert!(p(&["serve", "--routing", "hash"]).is_err());
        assert!(p(&["serve", "--ingest", "aggregate"]).is_err());
    }

    #[test]
    fn client_flags_parse_and_gate() {
        let o = p(&[
            "client",
            "--connect",
            "127.0.0.1:7777",
            "--query",
            "topk 5",
            "--query",
            "stats",
            "--shutdown",
            "trace.txt",
        ])
        .unwrap();
        assert_eq!(o.command, Command::Client);
        assert_eq!(o.connect.as_deref(), Some("127.0.0.1:7777"));
        assert_eq!(o.queries, vec!["topk 5".to_string(), "stats".to_string()]);
        assert!(o.shutdown);
        assert_eq!(o.inputs, vec!["trace.txt".to_string()]);
        // --connect is mandatory; client flags belong to client
        assert!(p(&["client"]).is_err());
        assert!(p(&["topk", "--connect", "x:1"]).is_err());
        assert!(p(&["serve", "--query", "stats"]).is_err());
        assert!(p(&["topk", "--shutdown"]).is_err());
    }

    #[test]
    fn stats_flags_parse_and_validate() {
        let serve = |args: &[&str]| p(args).unwrap().serve;
        let default = serve(&["serve"]);
        let with = |n| default.clone().stats_every(n);
        assert_eq!(serve(&["serve", "--stats-every", "500"]), with(Some(500)));
        // default: no stats records at all
        assert_eq!(default, with(None));
        // 0 = only the final stats record
        assert_eq!(serve(&["serve", "--stats-every", "0"]), with(Some(0)));
        // --stats-every belongs to serve alone
        assert!(p(&["topk", "--stats-every", "10"]).is_err());

        let o = p(&["stats", "run.ndjson", "--json"]).unwrap();
        assert_eq!(o.command, Command::Stats);
        assert_eq!(o.inputs, vec!["run.ndjson".to_string()]);
        assert!(o.json);
        assert!(p(&["stats", "--weighted"]).is_err());
        assert!(p(&["stats", "--snapshot-in", "x.json"]).is_err());
    }

    #[test]
    fn checkpoint_every_parses_and_gates() {
        let o = p(&[
            "serve",
            "--checkpoint-every",
            "5000",
            "--snapshot-out",
            "state.ckpt",
        ])
        .unwrap();
        assert_eq!(
            o.serve,
            library_serve()
                .checkpoint_every(5000)
                .snapshot_out(Some("state.ckpt".into()))
        );
        // needs somewhere to write, and belongs to serve
        assert!(p(&["serve", "--checkpoint-every", "5000"]).is_err());
        assert!(p(&["topk", "--checkpoint-every", "5000"]).is_err());
    }

    #[test]
    fn client_timeout_and_retry_flags_parse() {
        let o = p(&["client", "--connect", "h:1"]).unwrap();
        assert_eq!(o.connect_timeout_ms, 5_000);
        assert_eq!(o.read_timeout_ms, 30_000);
        assert_eq!(o.retries, 3);
        let o = p(&[
            "client",
            "--connect",
            "h:1",
            "--connect-timeout",
            "250",
            "--read-timeout",
            "0",
            "--retries",
            "7",
        ])
        .unwrap();
        assert_eq!(o.connect_timeout_ms, 250);
        assert_eq!(o.read_timeout_ms, 0);
        assert_eq!(o.retries, 7);
        assert!(p(&["client", "--connect", "h:1", "--retries"]).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(p(&[]).is_err());
        assert!(p(&["frobnicate"]).is_err());
        assert!(p(&["topk", "--phi", "1.5"]).is_err());
        assert!(p(&["topk", "-m"]).is_err());
        assert!(p(&["topk", "--bogus"]).is_err());
        assert!(p(&["topk", "a.txt", "b.txt"]).is_err());
        assert!(p(&["topk", "-m", "0"]).is_err());
        assert!(p(&["topk", "--algo", "nope"]).is_err());
    }
}
