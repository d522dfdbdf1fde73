//! The network server: one epoll event loop multiplexing many client
//! connections onto the bounded shard channels of a [`ServeSession`].
//!
//! # Design
//!
//! Single-threaded at the socket layer (all parallelism lives in the
//! pipeline's shard workers): the loop waits for edge-triggered
//! readiness, drains readable sockets into per-connection line buffers,
//! routes each parsed item straight into [`ServeSession::send`], and
//! answers in-band `?` queries from epoch-boundary shard views.
//! Backpressure is the point of the shape — when any shard queue is full
//! ([`ServeSession::saturated`]), the loop simply *stops reading* client
//! sockets; kernel receive buffers fill, TCP flow control pushes back on
//! writers, and nothing is dropped or buffered unboundedly. When a pass
//! leaves no socket readable, the loop ships the routed-but-buffered
//! items to idle shards ([`ServeSession::ship_idle`]), so a query's epoch
//! waits only for what arrived since, not for a full batch backlog.
//!
//! Robustness: malformed lines get an error record and a registry
//! counter (the connection lives on), oversized lines are skipped to the
//! next newline, idle connections are reaped, and SIGTERM / SIGINT /
//! `?shutdown` trigger a graceful drain ([`ServeSession::drain`]), then
//! a short grace for pending responses; the merged engine is returned.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

use hh_counters::error::Error;
use hh_obs::{Counter, Gauge, Registry};
use hh_sketches::engine::Engine;

use crate::checkpoint::Fallback;
use crate::options::{NetOptions, Record, ServeItem, ServeOptions, ServeSession};
use crate::poll::{Event, Interest, Poller};
use crate::proto::{self, Line, NetSample, Query};
use crate::sys;

const TCP_TOKEN: u64 = 0;
const UNIX_TOKEN: u64 = 1;
const CONN_BASE: u64 = 2;

/// Read chunk per `read(2)` call. Sized so a saturating sender is
/// drained in few syscalls; at the line protocol's typical ~5 bytes per
/// item one chunk carries ~13k items, comfortably above one shard batch.
const READ_CHUNK: usize = 64 * 1024;
/// Kernel send/receive buffer requested per connection (clamped by the
/// host's `net.core.{r,w}mem_max`).
const SOCK_BUF: usize = 4 * 1024 * 1024;
/// A connection whose pending responses exceed this is dropped (a client
/// that asks for snapshots and never reads them).
const MAX_WBUF: usize = 8 * 1024 * 1024;
/// How long the drain waits for clients to accept final responses.
const DRAIN_FLUSH: Duration = Duration::from_secs(1);
/// Longest protocol line: a longer one gets a `line exceeds
/// max_line_bytes` error record and is skipped to the next newline.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Connection-layer counters, registered into the pipeline's
/// [`Registry`] (so `to_prometheus`/`to_json` and `?stats` all see them).
#[derive(Debug)]
struct NetMetrics {
    accepted: Counter,
    open: Gauge,
    rejected: Counter,
    shed: Counter,
    idle_timeouts: Counter,
    lines: Counter,
    queries: Counter,
    malformed: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    /// Accepted item lines not yet flushed into `lines` (a relaxed
    /// fetch_add per line is measurable at line-rate, so the hot path
    /// accumulates here and [`Self::sample`] reconciles).
    pending_lines: u64,
}

impl NetMetrics {
    fn new(registry: &Registry) -> Self {
        NetMetrics {
            accepted: registry.counter("hh_net_accepted_total", "connections accepted"),
            open: registry.gauge("hh_net_open_connections", "connections currently open"),
            rejected: registry.counter(
                "hh_net_rejected_total",
                "connections refused at the max_conns cap",
            ),
            shed: registry.counter(
                "hh_net_shed_total",
                "connections shed by overload protection (near-capacity while saturated)",
            ),
            idle_timeouts: registry.counter(
                "hh_net_idle_timeouts_total",
                "connections reaped by the idle sweep",
            ),
            lines: registry.counter("hh_net_lines_total", "ingest lines accepted"),
            queries: registry.counter("hh_net_queries_total", "query commands answered"),
            malformed: registry.counter(
                "hh_net_malformed_total",
                "protocol lines rejected as malformed",
            ),
            bytes_in: registry.counter("hh_net_bytes_in_total", "bytes read from clients"),
            bytes_out: registry.counter("hh_net_bytes_out_total", "bytes written to clients"),
            pending_lines: 0,
        }
    }

    /// Flushes the batched line count into the registry and samples the
    /// network metrics — the only way a [`NetSample`] should be taken.
    fn sample(&mut self) -> NetSample {
        self.lines.add(std::mem::take(&mut self.pending_lines));
        NetSample {
            accepted: self.accepted.get(),
            open: self.open.get(),
            rejected: self.rejected.get(),
            shed: self.shed.get(),
            idle_timeouts: self.idle_timeouts.get(),
            lines: self.lines.get(),
            queries: self.queries.get(),
            malformed: self.malformed.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
        }
    }
}

/// A client socket behind either listener.
#[derive(Debug)]
enum ConnStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl ConnStream {
    fn fd(&self) -> RawFd {
        match self {
            ConnStream::Tcp(s) => s.as_raw_fd(),
            ConnStream::Unix(s) => s.as_raw_fd(),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ConnStream::Tcp(s) => s.read(buf),
            ConnStream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ConnStream::Tcp(s) => s.write(buf),
            ConnStream::Unix(s) => s.write(buf),
        }
    }
}

/// Per-connection state in the slab.
#[derive(Debug)]
struct Conn {
    stream: ConnStream,
    /// Partial-line carry-over between reads.
    rbuf: Vec<u8>,
    /// Pending response bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Residual readability under edge triggering: set by an `EPOLLIN`
    /// edge (or at accept), cleared only when a read returns
    /// `WouldBlock`. While the pipeline is saturated the loop leaves this
    /// set and simply doesn't read — that *is* the backpressure.
    readable: bool,
    /// Whether the socket last accepted writes (cleared on `WouldBlock`,
    /// restored by an `EPOLLOUT` edge).
    can_write: bool,
    /// Registered for write readiness (only while a flush is pending).
    want_write: bool,
    /// Currently discarding an oversized line (until the next newline).
    skip_line: bool,
    /// Peer finished sending; close once the write buffer drains.
    eof: bool,
    /// Fatal socket error or write-buffer overflow; close now.
    broken: bool,
    /// Protocol lines received (for error records).
    lines: u64,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: ConnStream, now: Instant) -> Self {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            readable: true,
            can_write: true,
            want_write: false,
            skip_line: false,
            eof: false,
            broken: false,
            lines: 0,
            last_activity: now,
        }
    }

    fn has_pending_writes(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// Writes as much pending response as the socket will take, and keeps
/// the poller's write interest in sync (registered only while bytes are
/// actually stuck).
fn flush_conn(conn: &mut Conn, token: u64, poller: &Poller, metrics: &NetMetrics) {
    while conn.has_pending_writes() && conn.can_write && !conn.broken {
        if hh_fault::eintr(hh_fault::sites::NET_WRITE) {
            continue; // injected EINTR: retry, like the real arm below
        }
        let pending = &conn.wbuf[conn.wpos..];
        // An injected torn write caps the window, exercising the same
        // partial-write resume path a short kernel write takes.
        let cap = hh_fault::torn_write(hh_fault::sites::NET_WRITE, pending.len())
            .unwrap_or(pending.len());
        match conn.stream.write(&pending[..cap]) {
            Ok(0) => conn.broken = true,
            Ok(n) => {
                conn.wpos += n;
                metrics.bytes_out.add(n as u64);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => conn.can_write = false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => conn.broken = true,
        }
    }
    if !conn.has_pending_writes() {
        conn.wbuf.clear();
        conn.wpos = 0;
        if conn.want_write {
            conn.want_write = false;
            // A failed re-arm would strand the fd with stale interest;
            // mark the connection broken so the sweep reclaims it.
            if poller
                .modify(conn.stream.fd(), token, Interest::READ)
                .is_err()
            {
                conn.broken = true;
            }
        }
    } else if !conn.want_write {
        conn.want_write = true;
        // Without write interest the pending bytes would never drain.
        if poller
            .modify(conn.stream.fd(), token, Interest::READ_WRITE)
            .is_err()
        {
            conn.broken = true;
        }
    }
}

/// Writes a newline-terminated reject/shed notice to a connection the
/// server is about to drop. Partial writes resume and `EINTR` retries;
/// any hard error just ends the notice early — the socket is closing
/// either way, but the bytes that did go out are returned so
/// `bytes_out` accounting stays truthful.
fn write_reject_notice(stream: &mut ConnStream, record: &str) -> u64 {
    let mut buf = record.as_bytes().to_vec();
    buf.push(b'\n');
    let mut written = 0usize;
    while written < buf.len() {
        match stream.write(&buf[written..]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    written as u64
}

/// Renders a session record as the server writes it: NDJSON, with the
/// `net` sample in stats records.
// lint:cold-path epoch-boundary records and query answers; the cost is amortized over the whole epoch's items
#[cold]
fn render<I: ServeItem>(record: Record<'_, I>, metrics: &mut NetMetrics) -> String {
    match record {
        Record::Report(view, epoch, k) => proto::report_record(view.report(), epoch, k),
        Record::Stats(stats, fin) => proto::stats_record(stats, Some(&metrics.sample()), fin),
    }
}

/// The ingest/query server. Construct with [`Server::bind`], then
/// [`Server::run`] the event loop to completion (drain); periodic
/// report/stats records stream to the writer passed to `run`, exactly as
/// in stdin serve mode.
#[derive(Debug)]
pub struct Server<I: ServeItem> {
    session: ServeSession<I>,
    net: NetOptions,
    poller: Poller,
    tcp: Option<TcpListener>,
    tcp_addr: Option<SocketAddr>,
    unix: Option<UnixListener>,
    unix_path: Option<String>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    metrics: NetMetrics,
    drain: bool,
}

impl<I: ServeItem> Server<I> {
    /// Validates both option sets, spawns the shard pipeline (resuming
    /// from `--snapshot-in` if configured), binds the listeners
    /// nonblocking, and writes the addr file.
    ///
    /// # Errors
    ///
    /// Typed [`Error::InvalidConfig`] for degenerate options (see
    /// [`ServeOptions::validate`] and [`NetOptions::validate`]), plus
    /// I/O errors from binding.
    pub fn bind(serve: ServeOptions, net: NetOptions) -> Result<Self, Error> {
        net.validate()?;
        let session = ServeSession::spawn(&serve)?;
        let poller = Poller::new(128)?;

        let mut tcp = None;
        let mut tcp_addr = None;
        if let Some(spec) = &net.tcp {
            let listener = TcpListener::bind(spec)?;
            listener.set_nonblocking(true)?;
            poller.add(listener.as_raw_fd(), TCP_TOKEN, Interest::READ)?;
            tcp_addr = Some(listener.local_addr()?);
            tcp = Some(listener);
        }

        let mut unix = None;
        let mut unix_path = None;
        if let Some(path) = &net.unix {
            // A dead socket file from a previous run would fail the bind.
            // lint:allow(error-swallow) the file may simply not exist; a real problem resurfaces as a bind error on the next line
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            poller.add(listener.as_raw_fd(), UNIX_TOKEN, Interest::READ)?;
            unix_path = Some(path.clone());
            unix = Some(listener);
        }

        if let (Some(path), Some(addr)) = (&net.addr_file, tcp_addr) {
            std::fs::write(path, format!("{addr}\n"))?;
        }

        let metrics = NetMetrics::new(session.pipeline().registry());
        Ok(Server {
            session,
            net,
            poller,
            tcp,
            tcp_addr,
            unix,
            unix_path,
            conns: Vec::new(),
            free: Vec::new(),
            metrics,
            drain: false,
        })
    }

    /// The actual TCP listening address (resolves `:0` ephemeral binds).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Why the `snapshot_in` resume answered from the previous checkpoint
    /// generation, if it did ([`ServeSession::fallback`]).
    pub fn fallback(&self) -> Option<&Fallback> {
        self.session.fallback()
    }

    /// Runs the event loop until a drain is requested (SIGTERM/SIGINT
    /// via [`sys::install_drain_signal_handlers`], [`sys::request_drain`],
    /// or an in-band `?shutdown`), then drains ([`ServeSession::drain`])
    /// into `out`, lets pending client responses flush, and returns the
    /// merged engine (the form to ship).
    pub fn run(mut self, out: &mut impl io::Write) -> Result<Engine<I>, Error> {
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            if sys::drain_requested() {
                self.drain = true;
            }
            if self.drain {
                return self.shutdown(out);
            }

            let timeout = self.poll_timeout();
            self.poller.wait(&mut events, timeout)?;
            let now = Instant::now();

            for ev in &events {
                match ev.token {
                    TCP_TOKEN | UNIX_TOKEN => self.accept(ev.token, now),
                    token => self.note_conn_event(token, ev),
                }
            }

            self.flush_pending_writers();
            self.pump(out, now)?;
            if !self.reads_pending() {
                // Input drained (not paused by backpressure): let idle
                // shards apply what is buffered before the next query.
                self.session.ship_idle()?;
            }

            if self.net.idle_timeout_ms > 0 {
                let idle = Duration::from_millis(self.net.idle_timeout_ms);
                let cadence = idle.min(Duration::from_millis(250));
                if now.duration_since(last_sweep) >= cadence {
                    last_sweep = now;
                    self.sweep_idle(now, idle);
                }
            }
        }
    }

    /// Picks the wait timeout: near-immediate when backpressured reads
    /// are pending (re-check saturation as the shard workers drain), a
    /// coarse tick otherwise (the loop must still wake to notice signals
    /// and idle connections).
    fn poll_timeout(&self) -> i32 {
        if self.reads_pending() {
            1
        } else {
            250
        }
    }

    /// Whether a connection still has bytes to read — after a
    /// [`Self::pump`], only when backpressure paused it.
    fn reads_pending(&self) -> bool {
        self.conns.iter().flatten().any(|c| c.readable && !c.broken)
    }

    /// Accepts every pending connection on the listener behind `token`
    /// (`TCP_TOKEN` or `UNIX_TOKEN`).
    fn accept(&mut self, token: u64, now: Instant) {
        loop {
            if hh_fault::eintr(hh_fault::sites::NET_ACCEPT) {
                continue; // injected EINTR: retry, like the real arm below
            }
            let accepted = if token == TCP_TOKEN {
                let Some(listener) = &self.tcp else { return };
                listener.accept().map(|(s, _)| ConnStream::Tcp(s))
            } else {
                let Some(listener) = &self.unix else { return };
                listener.accept().map(|(s, _)| ConnStream::Unix(s))
            };
            match accepted {
                Ok(stream) => self.install(stream, now),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // WouldBlock ends the round; so do transient failures
                // (ECONNABORTED, fd pressure): the listener stays registered.
                Err(_) => return,
            }
        }
    }

    fn install(&mut self, stream: ConnStream, now: Instant) {
        let open = self.conns.iter().flatten().count();
        if open >= self.net.max_conns {
            self.metrics.rejected.inc();
            // Best-effort notice; the socket drops either way.
            let mut stream = stream;
            let record = proto::error_record("server at max_conns, try later", 0);
            let sent = write_reject_notice(&mut stream, &record);
            self.metrics.bytes_out.add(sent);
            return;
        }
        // Overload shedding: past the high-water mark, a saturated
        // pipeline means the existing connections already can't be
        // drained — admitting more only grows the paused set. Shed with
        // an in-band reason so well-behaved clients back off and retry.
        let high_water = (self.net.max_conns.saturating_mul(3) / 4).max(1);
        if open >= high_water && self.session.saturated() {
            self.metrics.shed.inc();
            let mut stream = stream;
            let record = proto::error_record("server overloaded, back off and retry", 0);
            let sent = write_reject_notice(&mut stream, &record);
            self.metrics.bytes_out.add(sent);
            return;
        }
        let nonblocking = match &stream {
            ConnStream::Tcp(s) => {
                // Replies go out as soon as they are written: with Nagle on,
                // a query client that waits for each reply can lock into
                // one-reply-behind against the peer's delayed ACK.
                // lint:allow(error-swallow) latency hint like the buffer sizing below; refusal leaves the kernel default
                let _ = s.set_nodelay(true);
                s.set_nonblocking(true)
            }
            ConnStream::Unix(s) => s.set_nonblocking(true),
        };
        if nonblocking.is_err() {
            return;
        }
        // Deep kernel buffers keep a bursty ingest sender running instead
        // of blocking on a 16 KiB default window; best-effort (the kernel
        // clamps to rmem_max/wmem_max, and Unix sockets may refuse).
        // lint:allow(error-swallow) buffer sizing is a throughput hint; refusal leaves the kernel default, which is correct
        let _ = sys::set_socket_buffers(stream.fd(), SOCK_BUF);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        let token = CONN_BASE + slot as u64;
        // `readable` starts true: bytes may land before registration, and
        // an edge-triggered poller would not re-announce them.
        let conn = Conn::new(stream, now);
        if self
            .poller
            .add(conn.stream.fd(), token, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(conn);
        self.metrics.accepted.inc();
        self.metrics.open.add(1);
    }

    fn note_conn_event(&mut self, token: u64, ev: &Event) {
        let slot = (token - CONN_BASE) as usize;
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        if ev.readable || ev.hangup {
            // Hangup still drains buffered data first: the read path hits
            // EOF naturally once the kernel buffer empties.
            conn.readable = true;
        }
        if ev.writable {
            conn.can_write = true;
        }
    }

    /// Retries stuck response buffers after write-readiness edges, and
    /// closes connections that finished (EOF + drained) or broke.
    fn flush_pending_writers(&mut self) {
        for slot in 0..self.conns.len() {
            let mut done = false;
            if let Some(conn) = self.conns[slot].as_mut() {
                if conn.has_pending_writes() && conn.can_write {
                    flush_conn(conn, CONN_BASE + slot as u64, &self.poller, &self.metrics);
                }
                done = conn.broken || (conn.eof && !conn.has_pending_writes());
            }
            if done {
                self.close(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            self.poller.remove(conn.stream.fd());
            self.metrics.open.sub(1);
            self.free.push(slot);
        }
    }

    fn sweep_idle(&mut self, now: Instant, idle: Duration) {
        for slot in 0..self.conns.len() {
            let timed_out = matches!(
                self.conns[slot].as_ref(),
                Some(conn) if now.duration_since(conn.last_activity) >= idle
            );
            if timed_out {
                self.metrics.idle_timeouts.inc();
                self.close(slot);
            }
        }
    }

    /// Drains every readable connection into the pipeline, pausing the
    /// moment the shard queues saturate.
    fn pump(&mut self, out: &mut impl io::Write, now: Instant) -> Result<(), Error> {
        for slot in 0..self.conns.len() {
            if self.session.saturated() {
                break;
            }
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            if !conn.readable || conn.broken {
                self.conns[slot] = Some(conn);
                continue;
            }
            let keep = self.pump_conn(&mut conn, slot, out, now)?;
            if keep && !conn.broken {
                self.conns[slot] = Some(conn);
            } else {
                self.poller.remove(conn.stream.fd());
                self.metrics.open.sub(1);
                self.free.push(slot);
            }
        }
        Ok(())
    }

    /// Reads one connection until `WouldBlock`, EOF, or pipeline
    /// saturation. Returns whether the connection stays in the slab.
    fn pump_conn(
        &mut self,
        conn: &mut Conn,
        slot: usize,
        out: &mut impl io::Write,
        now: Instant,
    ) -> Result<bool, Error> {
        let token = CONN_BASE + slot as u64;
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            if self.session.saturated() {
                // Leave `readable` set: the loop resumes here once the
                // shard workers catch up. No read happens meanwhile, so
                // the client's TCP window closes — backpressure.
                return Ok(true);
            }
            if hh_fault::eintr(hh_fault::sites::NET_READ) {
                continue; // injected EINTR: retry, like the real arm below
            }
            // An injected short read caps the chunk *before* the syscall,
            // so no bytes are lost — the line stitcher just sees smaller
            // (possibly mid-line) chunks.
            let cap = hh_fault::short_read(hh_fault::sites::NET_READ, scratch.len());
            match conn.stream.read(&mut scratch[..cap]) {
                Ok(0) => {
                    conn.eof = true;
                    conn.readable = false;
                    break;
                }
                Ok(n) => {
                    self.metrics.bytes_in.add(n as u64);
                    conn.last_activity = now;
                    self.ingest_bytes(conn, token, &scratch[..n], out)?;
                    if conn.broken {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.readable = false;
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Ok(false),
            }
        }
        if conn.eof {
            // A final unterminated line still counts (printf-style
            // clients): terminate it and take the normal line path; then
            // flush responses and close when drained.
            if !conn.rbuf.is_empty() {
                let mut line = std::mem::take(&mut conn.rbuf);
                line.push(b'\n');
                self.ingest_slice(conn, token, &line, out)?;
            }
            flush_conn(conn, token, &self.poller, &self.metrics);
            return Ok(conn.has_pending_writes() && !conn.broken);
        }
        Ok(true)
    }

    /// Splits freshly read bytes into protocol lines, stitching the
    /// carry-over partial line from the previous read and enforcing the
    /// line-length cap. The bulk of the chunk is processed in place —
    /// only the stitched first line and the unconsumed tail ever touch
    /// the carry buffer, so a steady ingest stream costs no extra copy.
    // lint:hot-path
    fn ingest_bytes(
        &mut self,
        conn: &mut Conn,
        token: u64,
        mut bytes: &[u8],
        out: &mut impl io::Write,
    ) -> Result<(), Error> {
        if !conn.rbuf.is_empty() {
            // The previous read ended mid-line. Stitch exactly one line:
            // carry + bytes through the first newline (rbuf never holds
            // a newline, so the stitched buffer holds exactly one).
            match bytes.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    let mut carry = std::mem::take(&mut conn.rbuf);
                    carry.extend_from_slice(&bytes[..=i]);
                    bytes = &bytes[i + 1..];
                    // The carry passed the cap, but the line it ends may not.
                    if carry.len() > MAX_LINE_BYTES + 1 {
                        conn.lines += 1;
                        self.reject(conn, token, "line exceeds max_line_bytes");
                    } else {
                        self.ingest_slice(conn, token, &carry, out)?;
                    }
                    if conn.broken {
                        return Ok(());
                    }
                }
                None => {
                    conn.rbuf.extend_from_slice(bytes);
                    bytes = &[];
                }
            }
        }
        if !bytes.is_empty() {
            let used = self.ingest_slice(conn, token, bytes, out)?;
            if conn.broken {
                return Ok(());
            }
            conn.rbuf.extend_from_slice(&bytes[used..]);
        }
        if conn.skip_line {
            conn.rbuf.clear();
        } else if conn.rbuf.len() > MAX_LINE_BYTES {
            conn.lines += 1;
            self.reject(conn, token, "line exceeds max_line_bytes");
            conn.skip_line = true;
            conn.rbuf.clear();
        }
        Ok(())
    }

    /// Processes every complete line in `data` and returns how many bytes
    /// were consumed (the unconsumed tail is a partial line the caller
    /// carries over). Decodes the largest valid-UTF-8 prefix in one
    /// vectorized pass rather than validating line by line; invalid
    /// sequences reject only their own line, and an incomplete trailing
    /// sequence is left for the next read.
    // lint:hot-path
    fn ingest_slice(
        &mut self,
        conn: &mut Conn,
        token: u64,
        data: &[u8],
        out: &mut impl io::Write,
    ) -> Result<usize, Error> {
        let mut start = 0usize;
        'decode: while start < data.len() {
            let (valid_len, bad) = match std::str::from_utf8(&data[start..]) {
                Ok(_) => (data.len() - start, None),
                Err(e) => (e.valid_up_to(), e.error_len()),
            };
            let text =
                // lint:allow(panic-freedom) unreachable: valid_len comes from Utf8Error::valid_up_to on this very slice, so the prefix re-validates by construction
                std::str::from_utf8(&data[start..start + valid_len]).expect("validated prefix");
            let tb = text.as_bytes();
            let mut consumed = 0usize;
            while consumed < tb.len() {
                // One walk per line: locate the newline while checking
                // that every byte is printable ASCII, so the dominant line
                // shape — a plain single item — costs a single pass before
                // its `FromStr` parse.
                let mut printable = true;
                let mut nl = usize::MAX;
                for (off, &b) in tb[consumed..].iter().enumerate() {
                    if b == b'\n' {
                        nl = consumed + off;
                        break;
                    }
                    printable &= (b'!'..=b'~').contains(&b);
                }
                if nl == usize::MAX {
                    break; // incomplete tail line: carry over
                }
                let j = nl;
                let line = &text[consumed..j];
                let len = j - consumed;
                consumed = j + 1;
                if conn.skip_line {
                    // Tail of an oversized line: discard through its \n.
                    conn.skip_line = false;
                    continue;
                }
                // Plain single-item lines (printable ASCII, no
                // whitespace, not a query) parse without the protocol
                // dispatch. Anything else — or a fast parse that fails —
                // takes the full `parse_line` path, which produces the
                // proper error record.
                let fast = if printable && len >= 1 && tb[j - len] != b'?' {
                    line.parse::<I>().ok()
                } else {
                    None
                };
                match fast {
                    Some(item) => {
                        conn.lines += 1;
                        self.metrics.pending_lines += 1;
                        self.route(item, out)?;
                    }
                    None => self.handle_text(conn, token, line, out)?,
                }
                if conn.broken {
                    return Ok(start + consumed);
                }
            }
            start += consumed;
            match bad {
                // The next line holds an invalid sequence: reject through
                // its newline (if complete) and keep decoding after it.
                Some(_) => {
                    let Some(rel) = data[start..].iter().position(|&b| b == b'\n') else {
                        break 'decode;
                    };
                    if conn.skip_line {
                        conn.skip_line = false;
                    } else {
                        conn.lines += 1;
                        self.reject(conn, token, "line is not valid UTF-8");
                    }
                    start += rel + 1;
                    if conn.broken {
                        return Ok(start);
                    }
                }
                // Incomplete trailing sequence: wait for more bytes.
                None => break 'decode,
            }
        }
        Ok(start)
    }

    /// Parses and executes one complete protocol line.
    fn handle_text(
        &mut self,
        conn: &mut Conn,
        token: u64,
        text: &str,
        out: &mut impl io::Write,
    ) -> Result<(), Error> {
        conn.lines += 1;
        match proto::parse_line(text) {
            Line::Empty => {}
            Line::Item(s, count) => match s.parse::<I>() {
                Ok(item) => {
                    // Batched into the registry at the next sample point;
                    // a relaxed fetch_add per line is measurable at
                    // line-rate.
                    self.metrics.pending_lines += 1;
                    for _ in 0..count {
                        self.route(item.clone(), out)?;
                    }
                }
                Err(_) => self.reject(conn, token, "item does not parse as the served item type"),
            },
            Line::Query(q) => self.answer(conn, token, q)?,
            Line::Malformed(reason) => self.reject(conn, token, reason),
        }
        Ok(())
    }

    /// Rejects a malformed line: error record to the sender, registry
    /// counter, connection survives.
    // lint:cold-path error handling for malformed lines; well-formed ingest never reaches it
    fn reject(&mut self, conn: &mut Conn, token: u64, reason: &str) {
        self.metrics.malformed.inc();
        let record = proto::error_record(reason, conn.lines);
        self.push_reply(conn, token, &record);
    }

    /// Answers one in-band query. Every item the client sent before it
    /// is already routed, and the epoch boundary flushes the pipeline's
    /// buffers, so the response covers them all.
    // lint:cold-path queries are rare control traffic against a line-rate ingest stream
    fn answer(&mut self, conn: &mut Conn, token: u64, query: Query) -> Result<(), Error> {
        self.metrics.queries.inc();
        let record = match query {
            Query::TopK(k) => {
                let k = k.unwrap_or(self.session.k());
                let view = self.session.view()?;
                proto::report_record(view.report(), Some(view.epoch()), k)
            }
            Query::Stats => {
                let stats = self.session.fresh_stats()?;
                proto::stats_record(&stats, Some(&self.metrics.sample()), false)
            }
            Query::Ping => proto::pong_record(),
            Query::Shutdown => {
                self.drain = true;
                proto::shutdown_record(self.session.routed())
            }
        };
        self.push_reply(conn, token, &record);
        Ok(())
    }

    /// Queues one record (plus newline) on a connection and flushes as
    /// much as the socket takes now.
    fn push_reply(&mut self, conn: &mut Conn, token: u64, record: &str) {
        if conn.wbuf.len() + record.len() > MAX_WBUF {
            conn.broken = true;
            return;
        }
        conn.wbuf.extend_from_slice(record.as_bytes());
        conn.wbuf.push(b'\n');
        flush_conn(conn, token, &self.poller, &self.metrics);
    }

    /// Routes one parsed item into the session, which writes the records
    /// whose cadence boundary it is.
    fn route(&mut self, item: I, out: &mut impl io::Write) -> Result<(), Error> {
        let due = self.session.send(item)?;
        if due.any() {
            let metrics = &mut self.metrics;
            self.session.emit(due, out, &mut |r| render(r, metrics))?;
        }
        Ok(())
    }

    /// Graceful drain: the session's final records and snapshot, then a
    /// bounded window for clients to accept pending responses.
    fn shutdown(mut self, out: &mut impl io::Write) -> Result<Engine<I>, Error> {
        let metrics = &mut self.metrics;
        let drained = self.session.drain(out, &mut |r| render(r, metrics));

        let deadline = Instant::now() + DRAIN_FLUSH;
        loop {
            let mut pending = false;
            for slot in 0..self.conns.len() {
                let Some(conn) = self.conns[slot].as_mut() else {
                    continue;
                };
                if conn.has_pending_writes() && !conn.broken {
                    // Retry regardless of the last WouldBlock: the drain
                    // no longer polls for write edges.
                    conn.can_write = true;
                    flush_conn(conn, CONN_BASE + slot as u64, &self.poller, &self.metrics);
                    if conn.has_pending_writes() && !conn.broken {
                        pending = true;
                    }
                }
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(path) = &self.unix_path {
            // lint:allow(error-swallow) shutdown cleanup of our own socket file; nothing to do if it is already gone
            let _ = std::fs::remove_file(path);
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_sketches::engine::{AlgoKind, EngineConfig};

    #[test]
    fn accepted_tcp_connections_disable_nagle() {
        let serve =
            ServeOptions::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(8)).shards(Some(1));
        let net = NetOptions::new().tcp("127.0.0.1:0");
        let mut server: Server<u64> = Server::bind(serve, net).unwrap();
        let _client = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
        // The handshake may still be landing on the listener's queue.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.conns.is_empty() && Instant::now() < deadline {
            server.accept(TCP_TOKEN, Instant::now());
            std::thread::yield_now();
        }
        let Some(Some(Conn {
            stream: ConnStream::Tcp(stream),
            ..
        })) = server.conns.first()
        else {
            panic!("no TCP connection accepted");
        };
        assert!(stream.nodelay().unwrap());
    }
}
