//! `serve-mixed`: a TCP traffic mix against an in-process `NetServer`.
//!
//! 2 workers over a `LiveCatalog` of 200 random-shape views. Queries come
//! from a universe of random-shape queries three times larger than the
//! default 4096-entry rewriting cache, drawn with Zipf skew, so the mix
//! has hits, misses and evictions. 2 client threads keep short sessions
//! that reconnect every `SESSION` requests, and about 1 request in 500 is
//! an `add-view`/`drop-view` of a view sharing the workload's predicates.
//! Arrivals are an open loop (seeded Poisson) at two fixed rates, `low`
//! then `high`; latency is timed from each request's due time. This is
//! the only workload that loads accept, frame I/O, admission, the
//! canonical cache, epoch swaps and render.
//!
//! Latency here depends on how expensive a catalog's cache misses are,
//! so a run serves several seeded catalogs one after another, each for
//! an equal share of the run, and pools their samples.

use crate::report::Report;
use crate::stats::{median, percentile, sub_seed, Rng, Zipf};
use crate::{ms, setup_median, timed, us, Opts};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::io::{self, Cursor};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use viewplan_containment::canonicalize;
use viewplan_core::{parallel_map, CoreCoverConfig, PreparedViews};
use viewplan_cq::{parse_query, ConjunctiveQuery, Symbol, View, ViewSet};
use viewplan_serve::net::{read_frame, write_frame};
use viewplan_serve::{BatchServer, LiveCatalog, NetConfig, NetServer, RewritingCache, ServeConfig};
use viewplan_workload::{generate, WorkloadConfig};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Requests per connection before the client reconnects.
const SESSION: usize = 64;
/// One request in `DDL_EVERY` is DDL, at fixed points: client 0 issues
/// one of every `DDL_EVERY / CLIENTS` of its requests as DDL, starting
/// half a period in. A random DDL count would move the hit ratio, and
/// with it the latencies, from seed to seed.
const DDL_EVERY: usize = 500;
/// The goodput latency limit.
const LIMIT_MS: f64 = 10.0;
const ZIPF_EXPONENT: f64 = 1.4;
const CACHE_CAPACITY: usize = 4096;
const CHURN_VIEW: &str = "vchurn";
/// Generator seeds one catalog draws its views from.
const PARTS: usize = 100;

struct Sizes {
    views: usize,
    universe: usize,
    warmup: usize,
    low_rps: f64,
    high_rps: f64,
    /// Catalogs the run serves one after another, each for an equal
    /// share of the run.
    catalogs: usize,
}

fn sizes(opts: &Opts) -> Sizes {
    if opts.tiny {
        Sizes {
            views: 30,
            universe: 300,
            warmup: 300,
            low_rps: 100.0,
            high_rps: 200.0,
            catalogs: 1,
        }
    } else {
        Sizes {
            views: 200,
            universe: 3 * CACHE_CAPACITY,
            warmup: 10_000,
            low_rps: 250.0,
            high_rps: 700.0,
            catalogs: 4,
        }
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        cache_capacity: CACHE_CAPACITY,
        corecover: CoreCoverConfig {
            threads: 1,
            ..CoreCoverConfig::default()
        },
        ..ServeConfig::default()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Query(usize),
    Ddl,
}

#[derive(Clone, Copy, Debug)]
struct Planned {
    /// Seconds after the run's start.
    due: f64,
    high: bool,
    op: Op,
}

/// The whole open-loop schedule, one list per client: Poisson arrivals
/// at `low_rps` for the first half of the run and `high_rps` for the
/// second, split evenly across clients.
fn schedule(seed: u64, sz: &Sizes, seconds: f64) -> Vec<Vec<Planned>> {
    let zipf = Zipf::new(sz.universe, ZIPF_EXPONENT);
    (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::new(sub_seed(seed, 50 + c as u64));
            let mut out = Vec::new();
            let half = seconds / 2.0;
            for (high, rate, start) in [(false, sz.low_rps, 0.0), (true, sz.high_rps, half)] {
                let mean_gap = CLIENTS as f64 / rate;
                let mut t = start + rng.exp(mean_gap);
                while t < start + half {
                    let period = DDL_EVERY / CLIENTS;
                    let op = if c == 0 && out.len() % period == period / 2 {
                        Op::Ddl
                    } else {
                        Op::Query(zipf.sample(&mut rng))
                    };
                    out.push(Planned { due: t, high, op });
                    t += rng.exp(mean_gap);
                }
            }
            out
        })
        .collect()
}

/// Warm-up draws, served in-process before timing so the cache starts
/// near its steady state.
fn warmup_draws(seed: u64, sz: &Sizes) -> Vec<usize> {
    let zipf = Zipf::new(sz.universe, ZIPF_EXPONENT);
    let mut rng = Rng::new(sub_seed(seed, 40));
    (0..sz.warmup).map(|_| zipf.sample(&mut rng)).collect()
}

/// The churned view: the first catalog view's body under a fresh name,
/// so its predicates overlap the cached queries'.
fn churn_view(views: &ViewSet) -> View {
    let mut def = views.as_slice()[0].definition.clone();
    def.head.predicate = Symbol::new(CHURN_VIEW);
    View { definition: def }
}

/// The churn alternates, starting from the base catalog: add, drop, add…
fn ddl_payload(add: bool, churn: &View) -> String {
    if add {
        format!("add-view {}", churn.definition)
    } else {
        format!("drop-view {CHURN_VIEW}")
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Outcome {
    Ok {
        epoch: u64,
        cached: bool,
        /// Hash of the rendered answer (the response after its first line).
        body: u64,
    },
    Shed,
    Error(String),
    Failed,
}

#[derive(Clone, Debug)]
struct Sample {
    planned: Planned,
    /// From due time to reply.
    latency_ms: f64,
    /// Seconds after the run's start when the reply arrived.
    done_s: f64,
    /// From send to reply.
    service_ms: f64,
    lateness_ms: f64,
    connection: usize,
    first_on_connection: bool,
    /// Highest acknowledged DDL epoch when the request was sent.
    floor: u64,
    outcome: Outcome,
}

fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

fn classify(response: &str) -> Outcome {
    let (first, rest) = response.split_once('\n').unwrap_or((response, ""));
    let field = |name: &str| {
        first
            .split_whitespace()
            .find_map(|t| t.strip_prefix(name)?.parse::<u64>().ok())
    };
    if first.starts_with("ok ") {
        match field("epoch=") {
            Some(epoch) => Outcome::Ok {
                epoch,
                cached: first.contains("cached=true"),
                body: hash_str(rest),
            },
            None => Outcome::Error(first.to_string()),
        }
    } else if first.starts_with("shed") {
        Outcome::Shed
    } else {
        Outcome::Error(first.to_string())
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn round_trip(stream: &mut TcpStream, payload: &str) -> io::Result<String> {
    write_frame(stream, payload)?;
    read_frame(stream, 1 << 22)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request"))
}

/// One client's open loop over its share of the schedule.
fn client(
    addr: SocketAddr,
    plan: &[Planned],
    texts: &[String],
    churn: &View,
    start: Instant,
    acked: &AtomicU64,
    connection_base: usize,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(plan.len());
    let mut conn: Option<TcpStream> = None;
    let mut on_conn = 0usize;
    let mut connection = connection_base;
    let mut add_next = true;
    for p in plan {
        let due = start + Duration::from_secs_f64(p.due);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let first_on_connection = conn.is_none() || on_conn >= SESSION;
        if first_on_connection {
            conn = connect(addr).ok();
            on_conn = 0;
            connection += CLIENTS;
        }
        on_conn += 1;
        let payload = match p.op {
            Op::Query(i) => format!("query {}", texts[i]),
            Op::Ddl => {
                add_next = !add_next;
                ddl_payload(!add_next, churn)
            }
        };
        // ordering: SeqCst pairs each DDL acknowledgement (the fetch_max
        // below) with every later send on any client, so the floor read
        // here is never older than an acknowledged swap.
        let floor = acked.load(Ordering::SeqCst);
        let reply = match conn.as_mut() {
            Some(stream) => round_trip(stream, &payload),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connect failed",
            )),
        };
        let done = Instant::now();
        let outcome = match reply {
            Ok(r) => classify(&r),
            Err(_) => {
                conn = None;
                Outcome::Failed
            }
        };
        if let (Op::Ddl, Outcome::Ok { epoch, .. }) = (p.op, &outcome) {
            acked.fetch_max(*epoch, Ordering::SeqCst);
        }
        out.push(Sample {
            planned: *p,
            latency_ms: ms(done.saturating_duration_since(due)),
            done_s: done.saturating_duration_since(start).as_secs_f64(),
            service_ms: ms(done - sent),
            lateness_ms: ms(sent.saturating_duration_since(due)),
            connection,
            first_on_connection,
            floor,
            outcome,
        });
    }
    out
}

/// A running server that stops when dropped, so an earlier set-up is
/// shut down before the next one starts.
struct Running(NetServer);

impl Drop for Running {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Everything built at set-up: the catalog, the query universe and the
/// running server.
struct Setup {
    views: ViewSet,
    queries: Vec<ConjunctiveQuery>,
    texts: Vec<String>,
    catalog: Arc<LiveCatalog>,
    server: Running,
}

/// `views` random-shape views drawn from `PARTS` generator seeds: a
/// generator's views are sub-patterns of one random query, so mixing
/// several keeps one catalog from being dominated by a single shape.
fn catalog(seed: u64, views: usize) -> ViewSet {
    let mut out = ViewSet::new();
    for part in 0..PARTS {
        let n = views / PARTS + usize::from(part < views % PARTS);
        for v in generate(&WorkloadConfig::random(
            n,
            1,
            sub_seed(seed, 10 + part as u64),
        ))
        .views
        .iter()
        {
            let mut def = v.definition.clone();
            def.head.predicate = Symbol::new(&format!("p{part}_{}", def.head.predicate));
            out.push(View { definition: def });
        }
    }
    out
}

fn setup(seed: u64, sz: &Sizes) -> io::Result<Setup> {
    let views = catalog(seed, sz.views);
    let queries: Vec<ConjunctiveQuery> = (0..sz.universe as u64)
        .map(|i| generate(&WorkloadConfig::random(0, 1, sub_seed(seed, 1000 + i))).query)
        .collect();
    let texts = queries.iter().map(|q| q.to_string()).collect();
    let catalog = Arc::new(LiveCatalog::new(&views, serve_config()));
    let net = NetConfig {
        workers: WORKERS,
        ..NetConfig::default()
    };
    let server = Running(NetServer::start(catalog.clone(), "127.0.0.1:0", net)?);
    Ok(Setup {
        views,
        queries,
        texts,
        catalog,
        server,
    })
}

/// Runs the schedule over the socket; samples come back in due order.
fn drive(s: &Setup, plan: &[Vec<Planned>]) -> Vec<Sample> {
    let addr = s.server.0.local_addr();
    let churn = churn_view(&s.views);
    let acked = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(c, p)| {
                let (texts, churn, acked) = (&s.texts, &churn, &acked);
                scope.spawn(move || client(addr, p, texts, churn, start, acked, c))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by(|a, b| a.planned.due.total_cmp(&b.planned.due));
    samples
}

/// One catalog's share of the run, after its server has stopped.
struct Segment {
    views: ViewSet,
    queries: Vec<ConjunctiveQuery>,
    texts: Vec<String>,
    warm: Vec<usize>,
    samples: Vec<Sample>,
    offered: usize,
    /// Median ping round trip on the live server (traced runs only).
    ping_us: Option<f64>,
}

/// Sets up catalog `k` (three times, keeping the last), warms its
/// cache, drives its share of the schedule over the socket and stops its
/// server. Returns the segment and its set-up times.
fn segment(opts: &Opts, sz: &Sizes, k: usize, report: &mut Report) -> Option<(Segment, Vec<f64>)> {
    let seed = sub_seed(opts.seed, 500 + k as u64);
    let (built, _, took) = setup_median(3, || setup(seed, sz));
    let s = match built {
        Ok(s) => s,
        Err(e) => {
            report.attempt(1);
            report.check(false, || format!("server start failed: {e}"));
            return None;
        }
    };
    let warm = warmup_draws(seed, sz);
    // Serial: warm-up threads of its own would grow the allocator's
    // arenas and so the peak RSS this run reports.
    let server = s.catalog.server();
    for &i in &warm {
        let _ = server.serve(&s.queries[i]);
    }
    drop(server);
    let plan = schedule(seed, sz, opts.seconds / sz.catalogs as f64);
    let samples = drive(&s, &plan);
    let ping_us = opts.trace.then(|| ping(report, s.server.0.local_addr()));
    let Setup {
        views,
        queries,
        texts,
        ..
    } = s;
    let segment = Segment {
        views,
        queries,
        texts,
        warm,
        samples,
        offered: plan.iter().map(Vec::len).sum(),
        ping_us,
    };
    Some((segment, took))
}

fn ping(report: &mut Report, addr: SocketAddr) -> f64 {
    match connect(addr) {
        Ok(mut stream) => {
            let mut ok = true;
            let t = median_us(200, || {
                ok &= round_trip(&mut stream, "ping").is_ok_and(|r| r.starts_with("pong"))
            });
            report.check(ok, || "ping failed".to_string());
            t
        }
        Err(e) => {
            report.check(false, || format!("ping connection failed: {e}"));
            0.0
        }
    }
}

pub fn run(opts: &Opts, report: &mut Report) {
    let sz = sizes(opts);
    let mut segments = Vec::new();
    let mut setup_times = Vec::new();
    for k in 0..sz.catalogs {
        if let Some((seg, took)) = segment(opts, &sz, k, report) {
            segments.push(seg);
            setup_times.extend(took);
        }
    }
    report.peak_rss();
    println!(
        "config serve-mixed: catalogs={} views_per_catalog={} universe={} cache_capacity={CACHE_CAPACITY} zipf_exponent={ZIPF_EXPONENT} workers={WORKERS} clients={CLIENTS} session={SESSION} ddl_every={DDL_EVERY} low_rps={} high_rps={} limit_ms={LIMIT_MS} warmup={} setups={setup_times:?}",
        sz.catalogs,
        sz.views,
        sz.universe,
        sz.low_rps,
        sz.high_rps,
        sz.warmup,
    );
    for seg in &segments {
        check(report, seg);
    }
    let samples: Vec<&Sample> = segments.iter().flat_map(|g| &g.samples).collect();
    let phase = |high: bool| -> Vec<&Sample> {
        samples
            .iter()
            .copied()
            .filter(|x| x.planned.high == high && matches!(x.planned.op, Op::Query(_)))
            .collect()
    };
    let latencies = |xs: &[&Sample]| xs.iter().map(|x| x.latency_ms).collect::<Vec<f64>>();
    let (low, high) = (phase(false), phase(true));
    let ddl: Vec<f64> = samples
        .iter()
        .filter(|x| x.planned.op == Op::Ddl)
        .map(|x| x.latency_ms)
        .collect();
    let lateness: Vec<f64> = samples.iter().map(|x| x.lateness_ms).collect();
    let ok_queries = samples
        .iter()
        .filter(|x| matches!(x.planned.op, Op::Query(_)) && matches!(x.outcome, Outcome::Ok { .. }))
        .count();
    let cached = samples
        .iter()
        .filter(|x| matches!(x.outcome, Outcome::Ok { cached: true, .. }))
        .count();
    let mut lines = Vec::new();
    for (label, xs) in [("low", &low), ("high", &high)] {
        let l = latencies(xs);
        if let (Some(p50), Some(p90), Some(p99)) = (
            percentile(&l, 0.5),
            percentile(&l, 0.9),
            percentile(&l, 0.99),
        ) {
            lines.push(format!(
                "{label}: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms ({})",
                p50.value,
                p90.value,
                p99.value,
                p99.describe("p99")
            ));
        }
    }
    // A growing backlog shows as replies running past the end of a
    // catalog's share of the run.
    let segment_s = opts.seconds / sz.catalogs as f64;
    let overrun = segments
        .iter()
        .flat_map(|g| &g.samples)
        .map(|x| x.done_s - segment_s)
        .fold(f64::MIN, f64::max);
    lines.push(format!(
        "high: {} queries answered, last reply {overrun:.3} s after its catalog's share ended",
        high.len()
    ));
    if let Some(d) = percentile(&ddl, 0.5) {
        lines.push(format!(
            "ddl ack: p50 {:.4} ms ({})",
            d.value,
            d.describe("p50")
        ));
    }
    if let (Some(l50), Some(l99)) = (percentile(&lateness, 0.5), percentile(&lateness, 0.99)) {
        lines.push(format!(
            "generator lateness: p50 {:.4} ms, p99 {:.4} ms ({})",
            l50.value,
            l99.value,
            l99.describe("p99")
        ));
    }
    lines.push(format!(
        "cache: {cached} of {ok_queries} ok queries answered from cache ({:.4})",
        cached as f64 / ok_queries.max(1) as f64
    ));
    for l in lines {
        println!("serve-mixed {l}");
    }
    if opts.trace {
        traced(report, &segments, &samples);
        return;
    }
    report.set(
        "setup_s",
        median(&setup_times),
        &format!("median of {} set-ups, 3 per catalog", setup_times.len()),
    );
    let h = latencies(&high);
    let good = high
        .iter()
        .filter(|x| x.latency_ms <= LIMIT_MS && matches!(x.outcome, Outcome::Ok { .. }))
        .count();
    report.set(
        "qps",
        good as f64 / (opts.seconds / 2.0),
        &format!(
            "{good} of {} high-rate queries ok within {LIMIT_MS} ms",
            high.len()
        ),
    );
    if let Some(p99) = percentile(&h, 0.99) {
        report.set("tail_ms", p99.value, &p99.describe("p99 at high"));
    }
}

/// Correctness of one socket run: every request accounted for, no
/// stale-epoch answers, and every `ok` answer byte-identical to a cold
/// in-process `BatchServer::serve(..).render()` for its catalog state.
fn check(report: &mut Report, s: &Segment) {
    let (samples, offered) = (&s.samples, s.offered);
    report.attempt(samples.len() as u64);
    let mut tally = [0usize; 4];
    for x in samples {
        let slot = match &x.outcome {
            Outcome::Ok { .. } => 0,
            Outcome::Shed => 1,
            Outcome::Error(_) => 2,
            Outcome::Failed => 3,
        };
        tally[slot] += 1;
    }
    let [ok, shed, errors, failed] = tally;
    println!(
        "checks serve-mixed: offered={offered} ok={ok} shed={shed} errors={errors} failed={failed}"
    );
    report.check(ok + shed + errors + failed == offered, || {
        format!("accounting: {ok}+{shed}+{errors}+{failed} != offered {offered}")
    });
    // The churn alternates add/drop from the base catalog, so odd epochs
    // serve the catalog with the churn view and even ones without it.
    let with_churn = {
        let mut v = s.views.clone();
        v.push(churn_view(&s.views));
        v
    };
    let cold = |views: &ViewSet| {
        BatchServer::with_config(
            views,
            ServeConfig {
                cache_capacity: 0,
                ..serve_config()
            },
        )
    };
    let references = [cold(&s.views), cold(&with_churn)];
    let pairs: Vec<(usize, usize)> = samples
        .iter()
        .filter_map(|x| match (x.planned.op, &x.outcome) {
            (Op::Query(i), Outcome::Ok { epoch, .. }) => Some((i, (epoch % 2) as usize)),
            _ => None,
        })
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let rendered: Vec<Option<u64>> = parallel_map(WORKERS, &pairs, |&(i, state)| {
        let q = parse_query(&s.texts[i]).ok()?;
        let answer = references[state].serve(&q).ok()?;
        Some(hash_str(&answer.render()))
    });
    let want: HashMap<(usize, usize), Option<u64>> = pairs.into_iter().zip(rendered).collect();
    let mut stale = 0usize;
    for x in samples {
        match &x.outcome {
            Outcome::Ok { epoch, body, .. } => {
                if *epoch < x.floor {
                    stale += 1;
                }
                report.check(*epoch >= x.floor, || {
                    format!("stale answer at epoch {epoch} after DDL epoch {}", x.floor)
                });
                if let Op::Query(i) = x.planned.op {
                    let expected = want.get(&(i, (epoch % 2) as usize)).copied().flatten();
                    report.check(expected == Some(*body), || {
                        format!("query {i} at epoch {epoch} differs from a cold serve")
                    });
                }
            }
            Outcome::Shed => report.check(false, || "request shed".to_string()),
            Outcome::Error(e) => report.check(false, || format!("error response: {e}")),
            Outcome::Failed => report.check(false, || "connection failed".to_string()),
        }
    }
    println!(
        "checks serve-mixed: stale_epoch={stale} compared_to_cold_serve={} distinct_query_states={}",
        ok,
        want.len()
    );
}

/// Median of `f` over `n` calls, in microseconds.
fn median_us(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n).map(|_| us(timed(&mut f).1)).collect();
    median(&times)
}

/// In-process replay sums over every catalog's request sequence.
#[derive(Default)]
struct Replayed {
    queries: usize,
    /// parse, validate, canonicalize, render.
    stages: [Duration; 4],
    hit_us: Vec<f64>,
    miss_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    invalidated: u64,
}

/// Replays one catalog's request sequence in-process against a fresh
/// `LiveCatalog`, timing each serving stage.
fn replay_segment(report: &mut Report, g: &Segment, r: &mut Replayed) {
    let catalog = LiveCatalog::new(&g.views, serve_config());
    for &i in &g.warm {
        let _ = catalog.server().serve(&g.queries[i]);
    }
    let churn = churn_view(&g.views);
    let mut add_next = true;
    for x in &g.samples {
        match x.planned.op {
            Op::Query(i) => {
                r.queries += 1;
                let (parsed, dt) = timed(|| parse_query(&g.texts[i]));
                r.stages[0] += dt;
                let Ok(q) = parsed else {
                    report.check(false, || format!("query {i} does not parse"));
                    continue;
                };
                let server = catalog.server();
                let (valid, dt) = timed(|| server.validate(&q));
                r.stages[1] += dt;
                report.check(valid.is_ok(), || format!("query {i} fails validation"));
                let (_, dt) = timed(|| canonicalize(&q));
                r.stages[2] += dt;
                let (answer, dt) = timed(|| server.serve(&q));
                let Ok(answer) = answer else {
                    report.check(false, || format!("query {i} failed in-process"));
                    continue;
                };
                if answer.from_cache {
                    r.hit_us.push(us(dt));
                } else {
                    r.miss_ms.push(ms(dt));
                }
                let (_, dt) = timed(|| answer.render());
                r.stages[3] += dt;
            }
            Op::Ddl => {
                let (outcome, dt) = timed(|| {
                    if add_next {
                        catalog.add_view(churn.clone())
                    } else {
                        catalog.drop_view(Symbol::new(CHURN_VIEW))
                    }
                });
                add_next = !add_next;
                match outcome {
                    Ok(o) => {
                        r.swap_ms.push(ms(dt));
                        r.invalidated += o.invalidated;
                    }
                    Err(e) => report.check(false, || format!("in-process DDL failed: {e}")),
                }
            }
        }
    }
}

fn traced(report: &mut Report, segments: &[Segment], samples: &[&Sample]) {
    let shed = samples
        .iter()
        .filter(|x| x.outcome == Outcome::Shed)
        .count();
    report.set("serve.shed", shed as f64, "requests shed in the socket run");
    let queries_in = |high: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|x| x.planned.high == high && matches!(x.planned.op, Op::Query(_)))
            .map(|x| x.latency_ms)
            .collect()
    };
    if let Some(p50) = percentile(&queries_in(true), 0.5) {
        report.set("serve.high_p50_ms", p50.value, &p50.describe("p50 at high"));
    }
    let low = queries_in(false);
    if let (Some(p50), Some(p99)) = (percentile(&low, 0.5), percentile(&low, 0.99)) {
        report.set("serve.low_p50_ms", p50.value, &p50.describe("p50 at low"));
        report.set("serve.low_p99_ms", p99.value, &p99.describe("p99 at low"));
    }
    let ddl: Vec<f64> = samples
        .iter()
        .filter(|x| x.planned.op == Op::Ddl)
        .map(|x| x.latency_ms)
        .collect();
    if let Some(d) = percentile(&ddl, 0.5) {
        report.set("serve.ddl_ack_ms", d.value, &d.describe("p50"));
    }
    let lateness: Vec<f64> = samples.iter().map(|x| x.lateness_ms).collect();
    if let Some(l) = percentile(&lateness, 0.99) {
        report.set("load.lateness_ms", l.value, &l.describe("p99"));
    }
    // First request on a connection against that connection's steady
    // median, both timed from send.
    let mut waits = Vec::new();
    for g in segments {
        let mut by_conn: HashMap<usize, (Option<f64>, Vec<f64>)> = HashMap::new();
        for x in g
            .samples
            .iter()
            .filter(|x| matches!(x.planned.op, Op::Query(_)))
        {
            let e = by_conn.entry(x.connection).or_default();
            if x.first_on_connection {
                e.0 = Some(x.service_ms);
            } else {
                e.1.push(x.service_ms);
            }
        }
        waits.extend(by_conn.values().filter_map(|(first, rest)| {
            Some(first.as_ref()? - median(rest)).filter(|_| !rest.is_empty())
        }));
    }
    report.set(
        "net.accept_wait_ms",
        median(&waits),
        &format!("median over {} connections", waits.len()),
    );
    let pings: Vec<f64> = segments.iter().filter_map(|g| g.ping_us).collect();
    report.set(
        "net.ping_us",
        median(&pings),
        "median of 200 per catalog's server",
    );
    let Some(first) = segments.first() else {
        return;
    };
    let frame_payload = format!(
        "ok epoch=0 completeness=complete cached=true\n{}\n",
        first.texts[0]
    );
    let mut frames_ok = true;
    let frame = median_us(2000, || {
        let mut buf = Vec::new();
        frames_ok &= write_frame(&mut buf, &frame_payload).is_ok();
        let back = read_frame(&mut Cursor::new(&buf), 1 << 22);
        frames_ok &= back.ok().flatten().as_deref() == Some(frame_payload.as_str());
    });
    report.check(frames_ok, || {
        "frame round trip changed the payload".to_string()
    });
    report.set(
        "net.frame_us",
        frame,
        "median write_frame + read_frame over memory",
    );

    let (prepared, prepare) = timed(|| PreparedViews::prepare(&first.views));
    report.set("core.prepare_ms", ms(prepare), "one PreparedViews::prepare");

    let mut r = Replayed::default();
    for g in segments {
        replay_segment(report, g, &mut r);
    }
    let n = r.queries.max(1) as f64;
    report.set("cq.parse_us", us(r.stages[0]) / n, "mean per query");
    report.set("analyze.validate_us", us(r.stages[1]) / n, "mean per query");
    report.set(
        "serve.canonicalize_us",
        us(r.stages[2]) / n,
        "mean per query",
    );
    report.set("serve.render_us", us(r.stages[3]) / n, "mean per query");
    let hit = median(&r.hit_us);
    report.set(
        "serve.hit_us",
        hit,
        &format!("median of {} hits", r.hit_us.len()),
    );
    report.set(
        "serve.miss_ms",
        median(&r.miss_ms),
        &format!("median of {} misses", r.miss_ms.len()),
    );
    report.set(
        "serve.hit_ratio",
        r.hit_us.len() as f64 / (r.hit_us.len() + r.miss_ms.len()).max(1) as f64,
        "in-process replay",
    );
    report.set(
        "serve.ddl_swap_ms",
        median(&r.swap_ms),
        &format!("median of {}", r.swap_ms.len()),
    );
    report.set(
        "serve.invalidated_per_ddl",
        r.invalidated as f64 / r.swap_ms.len().max(1) as f64,
        "in-process replay",
    );
    report.count("serve.invalidated", r.invalidated);
    report.count("serve.replay_hits", r.hit_us.len() as u64);
    report.count("serve.replay_misses", r.miss_ms.len() as u64);
    let socket_hits: Vec<f64> = samples
        .iter()
        .filter(|x| !x.planned.high && !x.first_on_connection)
        .filter(|x| matches!(x.outcome, Outcome::Ok { cached: true, .. }))
        .map(|x| x.service_ms * 1e3)
        .collect();
    report.set(
        "net.overhead_us",
        median(&socket_hits) - hit,
        "median socket hit at low (from send) minus median in-process hit",
    );
    let sample: Vec<usize> = first
        .samples
        .iter()
        .filter_map(|x| match x.planned.op {
            Op::Query(i) => Some(i),
            Op::Ddl => None,
        })
        .collect();
    let overhead = crate::trace_overhead_pct(|| {
        let server = BatchServer::from_parts(
            Arc::new(prepared.clone()),
            serve_config(),
            Some(Arc::new(RewritingCache::new(CACHE_CAPACITY))),
        );
        for &i in &sample {
            let _ = server.serve(&first.queries[i]);
        }
    });
    report.set(
        "obs.trace_overhead_pct",
        overhead,
        "in-process serve of the first catalog's queries, obs on vs off",
    );
}
