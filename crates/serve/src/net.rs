//! The TCP front-end: a length-prefixed line protocol over the live
//! catalog, std-only (hand-rolled threads, following the repo's worker-
//! pool precedent — no async runtime).
//!
//! # Wire protocol
//!
//! Every message (both directions) is a **frame**: the payload's byte
//! length as ASCII decimal, a newline, then exactly that many payload
//! bytes. Commands (client → server), one per frame:
//!
//! * `query [deadline-ms=N] <rule>` — answer a query; the optional
//!   deadline bounds queue wait + compute.
//! * `add-view <rule>` / `drop-view <name>` — online DDL.
//! * `epoch` — current catalog epoch and view count.
//! * `ping` — liveness probe.
//! * `shutdown` — graceful drain: in-flight requests finish, then the
//!   server exits.
//!
//! Responses, one frame per request, first line one of:
//!
//! * `ok epoch=E completeness=L cached=B` + the rendered answer
//!   (queries), or `ok epoch=E views=N invalidated=K revalidated=K`
//!   (DDL), or `ok epoch=E views=N` (`epoch`), or `pong epoch=E`;
//! * `shed reason=R completeness=deadline_exceeded` — admission refused
//!   or the deadline expired in the queue; the request did no work and
//!   the completeness marker says so honestly;
//! * `error code=2 [vp=VPnnn] <message>` — malformed input or an
//!   ill-typed query/view; code mirrors the CLI's exit code for the
//!   same input, and `vp=` carries the diagnostic id when static
//!   analysis produced one. **Errors are answered, never dropped**: a
//!   protocol-level error closes the connection only after the error
//!   frame is written.
//! * `bye` — acknowledging `shutdown`.
//!
//! # Threads
//!
//! One acceptor blocks in `accept`; each connection gets a handler
//! thread that blocks reading frames through a `BufReader` and *offers*
//! query work to the [`AdmissionQueue`](crate::admission); `workers`
//! pipeline workers drain the queue against the catalog's current
//! snapshot. Nothing polls. A handler waits for the next frame under
//! `idle_timeout` (expiry reaps the connection), reads it under
//! `read_timeout`, and writes the response under `write_timeout`.
//! Shutdown wakes every blocked thread explicitly: it sets the stop
//! flag, closes the queue (workers drain admitted work, then exit),
//! calls `shutdown(Read)` on every registered connection (a blocked
//! read returns EOF, yet a handler awaiting an admitted reply can still
//! write it), and connects once to the listener so `accept` returns.
//! The acceptor registers a connection under the sweep's lock after
//! re-checking the flag, so no connection escapes the sweep.
//!
//! # Fault injection
//!
//! `VIEWPLAN_FAULT=accept|read|write:nth` (see [`crate::fault`]) kills
//! the nth accepted connection / frame read / response write, exactly
//! once — the chaos harness drives clients through these and asserts
//! every request is still accounted for (answered, shed, or failed
//! loudly at the client; never silently dropped).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewplan_cq::{parse_query, ConjunctiveQuery, Symbol, View};
use viewplan_obs as obs;
use viewplan_obs::budget::FaultPoint;
use viewplan_sync::thread::{self, JoinHandle};
use viewplan_sync::{mpsc, AtomicBool, AtomicU64, Mutex, Ordering};

use crate::admission::AdmissionQueue;
use crate::catalog::{DdlOutcome, LiveCatalog};

/// Network front-end knobs.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Pipeline workers draining the admission queue.
    pub workers: usize,
    /// Admission queue capacity (waiting requests).
    pub queue_capacity: usize,
    /// A started frame must complete within this.
    pub read_timeout: Duration,
    /// A response write must complete within this.
    pub write_timeout: Duration,
    /// A connection with no frame activity this long is reaped.
    pub idle_timeout: Duration,
    /// Default per-request deadline when the client sends none.
    pub default_deadline: Option<Duration>,
    /// Largest accepted frame payload, bytes.
    pub max_frame: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            workers: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            default_deadline: None,
            max_frame: 64 * 1024,
        }
    }
}

/// Writes one frame: ASCII decimal payload length, `\n`, payload.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(payload.len() + 12);
    buf.extend_from_slice(payload.len().to_string().as_bytes());
    buf.push(b'\n');
    buf.extend_from_slice(payload.as_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<String>> {
    let mut len: usize = 0;
    let mut digits = 0;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 if digits == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                ))
            }
            _ => {}
        }
        match byte[0] {
            b'\n' if digits > 0 => break,
            d @ b'0'..=b'9' if digits < 8 => {
                len = len * 10 + usize::from(d - b'0');
                digits += 1;
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad frame header byte 0x{other:02x}"),
                ));
            }
        }
    }
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds max {max_frame}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not utf-8"))
}

/// One admitted query: the parsed rule plus the channel its handler is
/// blocked on.
struct QueryJob {
    query: ConjunctiveQuery,
    reply: mpsc::Sender<String>,
}

/// A live connection: its handler thread and a clone of its socket,
/// which the shutdown sweep uses to wake the handler's blocked read.
struct Connection {
    handler: JoinHandle<()>,
    stream: TcpStream,
}

struct Shared {
    catalog: Arc<LiveCatalog>,
    config: NetConfig,
    queue: AdmissionQueue<QueryJob>,
    shutdown: AtomicBool,
    accepted: AtomicU64,
    reaped_idle: AtomicU64,
    /// Live connections by connection id; a handler removes its own.
    connections: Mutex<HashMap<u64, Connection>>,
    /// Where the shutdown wake-up connects to unblock `accept`.
    wake_addr: SocketAddr,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        // ordering: cross-thread stop flag read by the acceptor, workers,
        // and handlers; SeqCst so a shutdown request is totally ordered
        // against the queue close and the wake-ups that follow it.
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Sets the flag, closes the queue, wakes every blocked read, then
    /// the blocked `accept`. Only the first call does the work, so the
    /// acceptor gets exactly one wake-connect.
    fn request_shutdown(&self) {
        // ordering: see shutting_down — the swap must not be reordered
        // after queue.close(), or a worker could observe a closed queue
        // while still believing the server is live.
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        for conn in self.connections.lock().values() {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        let _ = TcpStream::connect(self.wake_addr);
    }
}

/// A running network server. Dropping it does *not* stop it — call
/// [`NetServer::shutdown`] (or send a `shutdown` frame and
/// [`NetServer::wait`]).
pub struct NetServer {
    shared: Arc<Shared>,
    /// The acceptor, then the workers.
    threads: Vec<JoinHandle<()>>,
    addr: SocketAddr,
}

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the acceptor and worker threads.
    pub fn start(
        catalog: Arc<LiveCatalog>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // A wildcard address is not connectable everywhere; loopback is.
        let wake_addr = match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, addr.port()).into(),
            IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, addr.port()).into(),
            _ => addr,
        };
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_capacity),
            catalog,
            config: config.clone(),
            shutdown: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            reaped_idle: AtomicU64::new(0),
            connections: Mutex::new(HashMap::new()),
            wake_addr,
        });
        // The acceptor comes first: `join_all` joins in this order.
        let accept_shared = shared.clone();
        let mut threads = vec![thread::Builder::new()
            .name("viewplan-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?];
        for i in 0..config.workers.max(1) {
            let shared = shared.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("viewplan-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(NetServer {
            shared,
            threads,
            addr,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> u64 {
        // ordering: monotone tally read for reporting; no other state
        // hangs off its value.
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Idle connections reaped so far.
    pub fn reaped_idle(&self) -> u64 {
        // ordering: monotone tally read for reporting; no other state
        // hangs off its value.
        self.shared.reaped_idle.load(Ordering::Relaxed)
    }

    /// Requests shed so far (admission refusals + queue expiries).
    pub fn shed(&self) -> u64 {
        self.shared.queue.shed_count()
    }

    /// Graceful shutdown: stop accepting, drain admitted work, join
    /// every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.request_shutdown();
        self.join_all();
    }

    /// Blocks until a `shutdown` frame (or [`NetServer::shutdown`] from
    /// another thread) stops the server, then joins every thread.
    pub fn wait(&mut self) {
        self.join_all();
    }

    /// Joins the acceptor (which returns only after shutdown), then the
    /// workers (which drain admitted work), then the handlers still
    /// live — the sweep woke their reads.
    fn join_all(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let live: Vec<_> = self.shared.connections.lock().drain().collect();
        for (_, conn) in live {
            let _ = conn.handler.join();
        }
    }
}

// lock-order: the registry lock is never nested; the second site runs
// on the handler's thread, and the acceptor never waits on a handler
// while holding the lock.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        // An accept error concerns one connection (reset while queued,
        // descriptor exhaustion); the listener itself stays usable.
        let Ok((stream, _peer)) = listener.accept() else {
            continue;
        };
        if shared.shutting_down() {
            return;
        }
        // ordering: monotone tally, doubling as a unique connection id;
        // no other state hangs off its value.
        let id = shared.accepted.fetch_add(1, Ordering::Relaxed);
        obs::counter!("serve.net_accepted").incr();
        if shared.catalog.faults().fires(FaultPoint::Accept) {
            // Injected accept fault: the connection dies before its
            // first frame — clients must see a clean EOF and retry,
            // never a hang.
            continue;
        }
        // A connection the shutdown sweep could not reach is not served.
        let Ok(wake) = stream.try_clone() else {
            continue;
        };
        // Register under the lock the sweep holds, re-checking the flag,
        // so the sweep cannot miss a connection accepted during shutdown.
        let mut live = shared.connections.lock();
        if shared.shutting_down() {
            return;
        }
        let conn_shared = shared.clone();
        let spawned = thread::Builder::new()
            .name("viewplan-conn".to_string())
            .spawn(move || {
                handle_connection(&stream, &conn_shared);
                conn_shared.connections.lock().remove(&id);
            });
        // Thread exhaustion sheds the connection: the only honest option.
        if let Ok(handler) = spawned {
            live.insert(
                id,
                Connection {
                    handler,
                    stream: wake,
                },
            );
        }
    }
}

fn handle_connection(stream: &TcpStream, shared: &Arc<Shared>) {
    let config = &shared.config;
    let (mut reader, mut writer) = (BufReader::new(stream), stream);
    if stream
        .set_write_timeout(Some(config.write_timeout))
        .is_err()
    {
        return;
    }
    while !shared.shutting_down() {
        // Wait for the next frame to start: zero bytes is the peer's EOF
        // or the shutdown sweep's `shutdown(Read)`; a timeout means the
        // connection sat idle.
        match stream
            .set_read_timeout(Some(config.idle_timeout))
            .and_then(|()| reader.fill_buf())
        {
            Ok([]) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // ordering: monotone tally; readers only want a recent
                // count, not synchronization.
                shared.reaped_idle.fetch_add(1, Ordering::Relaxed);
                obs::counter!("serve.net_reaped_idle").incr();
                return;
            }
            Err(_) => return,
        }
        if stream.set_read_timeout(Some(config.read_timeout)).is_err() {
            return;
        }
        let frame = match read_frame(&mut reader, config.max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // A malformed header is answered before closing — the
                // client learns why instead of seeing a bare hangup.
                let _ = write_frame(&mut writer, &format!("error code=2 {e}"));
                return;
            }
            Err(_) => return,
        };
        if shared.catalog.faults().fires(FaultPoint::Read) {
            // Injected read fault: the connection dies after a frame was
            // consumed — the hardest drop for a client to distinguish
            // from success, which is exactly what the retry layer and
            // the chaos accounting must cover.
            return;
        }
        let response = match dispatch(&frame, shared) {
            Dispatch::Reply(r) => r,
            Dispatch::Shutdown => {
                let _ = write_frame(&mut writer, "bye");
                shared.request_shutdown();
                return;
            }
        };
        if shared.catalog.faults().fires(FaultPoint::Write) {
            // Injected write fault: the answer was computed but never
            // delivered.
            return;
        }
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
    }
}

enum Dispatch {
    Reply(String),
    Shutdown,
}

fn dispatch(frame: &str, shared: &Arc<Shared>) -> Dispatch {
    let trimmed = frame.trim();
    let (command, rest) = match trimmed.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (trimmed, ""),
    };
    let reply = match command {
        "ping" => format!("pong epoch={}", shared.catalog.epoch()),
        "epoch" => {
            let server = shared.catalog.server();
            format!("ok epoch={} views={}", server.epoch(), server.views().len())
        }
        "query" => return Dispatch::Reply(handle_query(rest, shared)),
        "add-view" => match parse_query(rest) {
            Ok(rule) => ddl_reply(shared.catalog.add_view(View { definition: rule })),
            Err(e) => format!("error code=2 parse error: {e}"),
        },
        "drop-view" if rest.is_empty() || rest.contains(char::is_whitespace) => {
            "error code=2 usage: drop-view <name>".to_string()
        }
        "drop-view" => ddl_reply(shared.catalog.drop_view(Symbol::new(rest))),
        "shutdown" => return Dispatch::Shutdown,
        other => format!("error code=2 unknown command `{other}`"),
    };
    Dispatch::Reply(reply)
}

/// The acknowledgement of one DDL command, or its structured error.
fn ddl_reply(outcome: Result<DdlOutcome, String>) -> String {
    match outcome {
        Ok(o) => format!(
            "ok epoch={} views={} invalidated={} revalidated={}",
            o.epoch, o.views, o.invalidated, o.revalidated
        ),
        Err(msg) => structured_error(&msg),
    }
}

/// Parses and validates a `query` payload on the handler thread (cheap;
/// malformed input must never consume a queue slot), then offers it to
/// admission and blocks for the worker's reply.
fn handle_query(rest: &str, shared: &Arc<Shared>) -> String {
    let (deadline_ms, src) = match rest.strip_prefix("deadline-ms=") {
        Some(tail) => match tail.split_once(char::is_whitespace) {
            Some((n, q)) => match n.parse::<u64>() {
                Ok(ms) => (Some(ms), q.trim()),
                Err(_) => return format!("error code=2 bad deadline `{n}`"),
            },
            None => return "error code=2 usage: query [deadline-ms=N] <rule>".to_string(),
        },
        None => (None, rest),
    };
    if src.is_empty() {
        return "error code=2 usage: query [deadline-ms=N] <rule>".to_string();
    }
    let query = match parse_query(src) {
        Ok(q) => q,
        Err(e) => return format!("error code=2 parse error: {e}"),
    };
    if let Err(msg) = shared.catalog.server().validate(&query) {
        return structured_error(&msg);
    }
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(shared.config.default_deadline)
        .map(|d| Instant::now() + d);
    let (tx, rx) = mpsc::channel();
    let job = QueryJob { query, reply: tx };
    if let Err((_, reason)) = shared.queue.offer(job, deadline) {
        return format!(
            "shed reason={} completeness=deadline_exceeded",
            reason.label()
        );
    }
    match rx.recv() {
        Ok(reply) => reply,
        // Unreachable by design (an admitted job is always answered —
        // the queue drains after close), kept as an honest failure
        // rather than a hang.
        Err(_) => "error code=3 internal: worker abandoned the request".to_string(),
    }
}

/// Wraps a validation/DDL error message as a structured wire error,
/// surfacing the `[VPnnn]` diagnostic id as a dedicated field when
/// present.
fn structured_error(msg: &str) -> String {
    // The id leads a validation error; DDL errors nest it after a prefix.
    if let Some((head, tail)) = msg.split_once('[') {
        if let Some((vp, rest)) = tail.split_once("] ") {
            if vp.starts_with("VP") {
                return format!("error code=2 vp={vp} {head}{rest}");
            }
        }
    }
    format!("error code=2 {msg}")
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.take() {
        let reply = if job.expired() {
            // The deadline lapsed in the queue: honest shed, no work.
            shared.queue.record_shed();
            "shed reason=deadline_unmeetable completeness=deadline_exceeded".to_string()
        } else {
            let started = Instant::now();
            let server = shared.catalog.server();
            let mut spec = server.config().budget;
            if let Some(remaining) = job.remaining() {
                spec = spec.clamp_timeout(remaining);
            }
            let out = match server.serve_with_spec(&job.item.query, &spec) {
                Ok(answer) => format!(
                    "ok epoch={} completeness={} cached={}\n{}",
                    answer.epoch,
                    answer.completeness.label(),
                    answer.from_cache,
                    answer.render()
                ),
                Err(e) => format!("error code=2 {e}"),
            };
            shared.queue.complete(started.elapsed());
            out
        };
        // A closed reply channel means the handler's connection died
        // mid-request; the work is simply discarded.
        let _ = job.item.reply.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ServeConfig;
    use crate::cache::CacheProbe;
    use viewplan_containment::canonicalize;
    use viewplan_cq::parse_views;

    fn start_server(config: NetConfig) -> NetServer {
        let views = parse_views(
            "v1(A, B) :- a(A, B), a(B, B).\n\
             v2(C, D) :- a(C, E), b(C, D).",
        )
        .unwrap();
        let catalog = Arc::new(LiveCatalog::new(&views, ServeConfig::default()));
        NetServer::start(catalog, "127.0.0.1:0", config).unwrap()
    }

    fn roundtrip(stream: &mut TcpStream, payload: &str) -> String {
        write_frame(stream, payload).unwrap();
        read_frame(stream, 1 << 20)
            .unwrap()
            .expect("response frame")
    }

    /// Polls `done` until it holds; fails the test after 10 s.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_garbage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello frame").unwrap();
        assert_eq!(buf, b"11\nhello frame");
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, 64).unwrap().as_deref(),
            Some("hello frame")
        );
        assert_eq!(read_frame(&mut r, 64).unwrap(), None, "clean eof");

        let mut bad = io::Cursor::new(b"xx\npayload".to_vec());
        assert_eq!(
            read_frame(&mut bad, 64).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut oversized = io::Cursor::new(b"999\n".to_vec());
        assert_eq!(
            read_frame(&mut oversized, 64).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn buffered_reads_return_back_to_back_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut both = Vec::new();
        write_frame(&mut both, "first").unwrap();
        write_frame(&mut both, "second frame").unwrap();
        client.write_all(&both).unwrap();
        drop(client);
        let mut reader = BufReader::new(accepted);
        assert_eq!(
            read_frame(&mut reader, 64).unwrap().as_deref(),
            Some("first")
        );
        assert_eq!(
            read_frame(&mut reader, 64).unwrap().as_deref(),
            Some("second frame")
        );
        assert_eq!(read_frame(&mut reader, 64).unwrap(), None, "clean eof");
    }

    #[test]
    fn query_ddl_and_control_frames_round_trip() {
        let mut server = start_server(NetConfig::default());
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(roundtrip(&mut conn, "ping"), "pong epoch=0");
        assert_eq!(roundtrip(&mut conn, "epoch"), "ok epoch=0 views=2");

        let answer = roundtrip(&mut conn, "query q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)");
        assert!(
            answer.starts_with("ok epoch=0 completeness=complete cached=false\n"),
            "{answer}"
        );
        assert!(answer.contains("q(X, Y) :- v1(X, Z), v2(Z, Y)"), "{answer}");
        let warm = roundtrip(&mut conn, "query q(U, W) :- a(U, T), a(T, T), b(T, W)");
        assert!(
            warm.starts_with("ok epoch=0 completeness=complete cached=true\n"),
            "{warm}"
        );

        let ddl = roundtrip(&mut conn, "add-view v3(A, B) :- b(A, B)");
        assert!(ddl.starts_with("ok epoch=1 views=3"), "{ddl}");
        let ddl = roundtrip(&mut conn, "drop-view v3");
        assert!(ddl.starts_with("ok epoch=2 views=2"), "{ddl}");

        server.shutdown();
    }

    #[test]
    fn errors_are_structured_frames_never_dropped_connections() {
        let mut server = start_server(NetConfig::default());
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let bad_arity = roundtrip(&mut conn, "query q(X) :- a(X, X, X)");
        assert!(
            bad_arity.starts_with("error code=2 vp=VP001 "),
            "{bad_arity}"
        );
        let parse = roundtrip(&mut conn, "query q(X) :- ");
        assert!(parse.starts_with("error code=2 parse error:"), "{parse}");
        let unknown = roundtrip(&mut conn, "frobnicate");
        assert!(
            unknown.starts_with("error code=2 unknown command"),
            "{unknown}"
        );
        let dup = roundtrip(&mut conn, "add-view v1(A, B) :- b(A, B)");
        assert!(
            dup.starts_with("error code=2 view `v1` already exists"),
            "{dup}"
        );
        // The connection survived every error above.
        assert_eq!(roundtrip(&mut conn, "ping"), "pong epoch=0");
        server.shutdown();
    }

    #[test]
    fn shutdown_frame_drains_and_stops_the_server() {
        let mut server = start_server(NetConfig::default());
        let addr = server.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        assert_eq!(roundtrip(&mut conn, "shutdown"), "bye");
        server.wait();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly after close; a write must fail.
                let mut c = TcpStream::connect(addr).unwrap();
                write_frame(&mut c, "ping").is_err()
                    || read_frame(&mut c, 64).ok().flatten().is_none()
            }
        );
    }

    #[test]
    fn shutdown_wakes_idle_connections_and_drains_in_flight() {
        let mut server = start_server(NetConfig {
            workers: 1,
            idle_timeout: Duration::from_secs(30),
            ..NetConfig::default()
        });
        let shared = server.shared.clone();
        let addr = server.local_addr();
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        // Hold the cache's single-flight lead for the query: the one
        // worker takes a first job for it and blocks as a follower, so
        // the client's query below stays admitted but unanswered.
        let src = "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)";
        let query = parse_query(src).unwrap();
        let cache = shared.catalog.server().cache_handle().expect("cache on");
        let key = canonicalize(&query).key;
        let CacheProbe::Miss(flight) = cache.get_or_join(&key, 0) else {
            panic!("a fresh cache cannot hit");
        };
        let (tx, first_reply) = mpsc::channel();
        assert!(shared
            .queue
            .offer(QueryJob { query, reply: tx }, None)
            .is_ok());
        wait_until("the worker to take the first job", || {
            shared.queue.is_empty()
        });
        let mut in_flight = TcpStream::connect(addr).unwrap();
        in_flight
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame(&mut in_flight, &format!("query {src}")).unwrap();
        wait_until("the client's query to be admitted", || {
            shared.queue.len() == 1
        });

        let started = Instant::now();
        let stopper = std::thread::spawn(move || {
            server.shutdown();
            started.elapsed()
        });
        wait_until("the shutdown flag", || shared.shutting_down());
        // The idle connection is woken now, not at its 30 s timeout.
        assert_eq!(read_frame(&mut idle, 64).unwrap(), None, "idle sees eof");
        // Release the flight: the worker re-elects itself, answers the
        // first job, then drains the admitted query.
        drop(flight);
        let reply = read_frame(&mut in_flight, 1 << 20)
            .unwrap()
            .expect("the in-flight query is answered");
        assert!(reply.starts_with("ok epoch=0 "), "{reply}");
        assert!(first_reply.recv().unwrap().starts_with("ok "));
        assert_eq!(read_frame(&mut in_flight, 64).unwrap(), None, "then eof");
        let took = stopper.join().unwrap();
        assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    }

    #[test]
    fn finished_connections_leave_the_registry() {
        let mut server = start_server(NetConfig::default());
        for _ in 0..200 {
            let mut conn = TcpStream::connect(server.local_addr()).unwrap();
            assert_eq!(roundtrip(&mut conn, "ping"), "pong epoch=0");
        }
        wait_until("every handler to deregister", || {
            server.shared.connections.lock().is_empty()
        });
        assert_eq!(server.accepted(), 200);
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let mut server = start_server(NetConfig {
            idle_timeout: Duration::from_millis(120),
            ..NetConfig::default()
        });
        let conn = TcpStream::connect(server.local_addr()).unwrap();
        let mut deadline = Instant::now() + Duration::from_secs(5);
        while server.reaped_idle() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(server.reaped_idle(), 1, "idle connection reaped");
        // The server itself is still healthy.
        let mut fresh = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(roundtrip(&mut fresh, "ping"), "pong epoch=0");
        drop(conn);
        deadline = Instant::now() + Duration::from_secs(1);
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn zero_capacity_queue_sheds_honestly() {
        let mut server = start_server(NetConfig {
            queue_capacity: 1,
            workers: 1,
            default_deadline: Some(Duration::from_millis(1)),
            ..NetConfig::default()
        });
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // With a 1ms default deadline and a fresh EWMA the first request
        // usually computes; either way every response is ok or an honest
        // shed — never silence.
        for _ in 0..4 {
            let r = roundtrip(&mut conn, "query q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)");
            assert!(r.starts_with("ok ") || r.starts_with("shed reason="), "{r}");
            if let Some(rest) = r.strip_prefix("shed ") {
                assert!(
                    rest.contains("completeness=deadline_exceeded"),
                    "sheds carry honest completeness: {r}"
                );
            }
        }
        server.shutdown();
    }
}
