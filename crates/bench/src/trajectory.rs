//! The measured bench trajectory behind `viewplan bench`.
//!
//! Every PR should land on a *curve*, not a vibe: this module runs fixed
//! star/chain/random CoreCover suites (the sweep machinery of
//! [`crate::run_sweep`]) plus a warm/cold serving loop against
//! [`viewplan_serve::BatchServer`], and renders the results as two
//! schema-versioned JSON documents — `BENCH_core.json` and
//! `BENCH_serve.json` — that CI regenerates in smoke mode and validates
//! against [`validate_core`] / [`validate_serve`].
//!
//! # `BENCH_core.json` (schema version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "suite": "core",
//!   "mode": "smoke" | "full",
//!   "threads": 1,
//!   "sweeps": [
//!     {
//!       "family": "star" | "chain" | "random",
//!       "nondistinguished": 2,
//!       "points": [
//!         { "views": 40, "queries": 4, "avg_ms": 1.2,
//!           "view_classes": 19.0, "view_tuples": 40.0,
//!           "representative_tuples": 19.0, "gmrs": 2.0,
//!           "hom_nodes": 800.0, "set_cover_nodes": 12.0,
//!           "completeness": 1.0 }
//!       ]
//!     }
//!   ],
//!   "acyclic": {
//!     "iters": 3,
//!     "points": [
//!       { "family": "chain", "size": 12, "pattern_atoms": 13,
//!         "target_atoms": 48, "fast_path_ms": 0.02, "fallback_ms": 4.1,
//!         "speedup": 205.0, "fast_path_hom_nodes": 0,
//!         "fallback_hom_nodes": 16384, "checks": 2, "verdicts_agree": 2 }
//!     ]
//!   }
//! }
//! ```
//!
//! The `acyclic` section is the containment half of the acyclicity
//! story: star (spider) and chain patterns at Figure 6 scale, decided
//! by both the semijoin fast path and the homomorphism DFS on the same
//! instances. The hard instances are built so the routes diverge —
//! "diamond" targets whose branching walks force the DFS to backtrack
//! exponentially while semijoins stay polynomial — and [`validate_core`]
//! pins `verdicts_agree == checks` and `speedup >= 1` on every point.
//!
//! # `BENCH_serve.json` (schema version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "suite": "serve",
//!   "mode": "smoke" | "full",
//!   "views": 12, "queries": 16,
//!   "passes": {
//!     "cold": { "requests": 16, "cache_hits": 0, "cache_misses": 16,
//!               "truncated": 0, "errors": 0,
//!               "latency_us": { "p50": 900.0, "p95": 1800.0,
//!                                "p99": 2100.0, "mean": 1000.0,
//!                                "max": 2200 } },
//!     "warm": { ... same shape, cache_hits > 0 ... }
//!   }
//! }
//! ```
//!
//! Latency percentiles come from the `serve.request_latency_us` log₂
//! histogram (per-pass deltas via
//! [`viewplan_obs::MetricsSnapshot::delta_since`]), so they inherit the
//! documented ≤1-bucket interpolation error of
//! [`viewplan_obs::HistogramSnapshot::percentile`]. Wall-clock and
//! latency fields vary run to run; the *schema* (and the cache-behavior
//! invariants cold-misses/warm-hits) is what validation pins, plus two
//! latency bounds: `p99 <= max` wherever a section reports both, and, in
//! `"full"` documents only, a socket-section p99 below
//! [`FULL_SOCKET_P99_US`].

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use viewplan_cq::{Atom, ConjunctiveQuery, Term, ViewSet};
use viewplan_obs::{self as obs, Json};
use viewplan_serve::{BatchServer, LiveCatalog, NetConfig, NetServer, ServeConfig};
use viewplan_workload::{generate, WorkloadConfig};

use crate::loadgen::{ddl_churn, run_loadgen, LoadgenConfig, LoadgenReport};
use crate::{run_sweep, Family, SweepConfig, SweepPoint};

/// Schema version stamped into (and required from) both documents.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// How big a trajectory run should be.
#[derive(Clone, Copy, Debug)]
pub struct TrajectoryConfig {
    /// Smoke mode: tiny fixed suites that finish in seconds (what the CI
    /// `bench-smoke` job runs). Full mode runs the `quick` sweeps.
    pub smoke: bool,
    /// Harness threads forwarded to the sweep machinery.
    pub threads: usize,
}

/// The fixed core suites: one sweep per workload family. Smoke mode
/// shrinks the view counts and per-point quota so the whole trajectory
/// (including the serve loop) stays under a few seconds.
fn core_suites(config: &TrajectoryConfig) -> Vec<SweepConfig> {
    let families = [
        (Family::Star, 2usize),
        (Family::Chain, 0usize),
        (Family::Random, 1usize),
    ];
    families
        .into_iter()
        .map(|(family, nondistinguished)| {
            let mut sweep = SweepConfig::quick(family, nondistinguished);
            sweep.threads = config.threads;
            if config.smoke {
                sweep.view_counts = vec![20, 60];
                sweep.queries_per_point = 4;
            }
            sweep
        })
        .collect()
}

fn family_name(family: Family) -> &'static str {
    match family {
        Family::Star => "star",
        Family::Chain => "chain",
        Family::Random => "random",
    }
}

fn json_point(p: &SweepPoint) -> Json {
    let mut o = BTreeMap::new();
    o.insert("views".into(), Json::num(p.views as u64));
    o.insert("queries".into(), Json::num(p.queries as u64));
    o.insert("avg_ms".into(), Json::Number(p.avg_ms));
    o.insert("view_classes".into(), Json::Number(p.view_classes));
    o.insert("view_tuples".into(), Json::Number(p.view_tuples));
    o.insert(
        "representative_tuples".into(),
        Json::Number(p.representative_tuples),
    );
    o.insert("gmrs".into(), Json::Number(p.gmrs));
    o.insert("hom_nodes".into(), Json::Number(p.hom_nodes));
    o.insert("set_cover_nodes".into(), Json::Number(p.set_cover_nodes));
    o.insert("completeness".into(), Json::Number(p.completeness));
    Json::Object(o)
}

/// Runs the fixed CoreCover suites and renders `BENCH_core.json`.
/// Enables metrics collection for the duration (the sweep counters need
/// it) and leaves it enabled.
pub fn core_trajectory(config: &TrajectoryConfig) -> Json {
    obs::set_enabled(true);
    let sweeps: Vec<Json> = core_suites(config)
        .iter()
        .map(|sweep| {
            let points = run_sweep(sweep);
            let mut o = BTreeMap::new();
            o.insert("family".into(), Json::str(family_name(sweep.family)));
            o.insert(
                "nondistinguished".into(),
                Json::num(sweep.nondistinguished as u64),
            );
            o.insert(
                "points".into(),
                Json::Array(points.iter().map(json_point).collect()),
            );
            Json::Object(o)
        })
        .collect();
    let mut doc = BTreeMap::new();
    doc.insert("schema_version".into(), Json::num(BENCH_SCHEMA_VERSION));
    doc.insert("suite".into(), Json::str("core"));
    doc.insert(
        "mode".into(),
        Json::str(if config.smoke { "smoke" } else { "full" }),
    );
    doc.insert("threads".into(), Json::num(config.threads as u64));
    doc.insert("sweeps".into(), Json::Array(sweeps));
    doc.insert("acyclic".into(), acyclic_section(config));
    Json::Object(doc)
}

// ---------------------------------------------------------------------
// The acyclic containment section of `BENCH_core.json`: the semijoin
// fast path vs the homomorphism DFS on star/chain patterns at Figure 6
// scale, on instances constructed so the two routes genuinely diverge
// in cost.

/// A Boolean chain pattern: `q() :- e(X0, X1), …, e(Xk, Xk+1)` — a
/// directed walk of length `k + 1`, acyclic (every end atom is an ear).
fn chain_pattern(k: usize) -> ConjunctiveQuery {
    let body = (0..=k)
        .map(|i| {
            Atom::new(
                "e",
                vec![
                    Term::var(&format!("X{i}")),
                    Term::var(&format!("X{}", i + 1)),
                ],
            )
        })
        .collect();
    ConjunctiveQuery::new(Atom::new("q", vec![]), body)
}

/// A "diamond chain" target of depth `k`: two parallel nodes per level,
/// all four edges between consecutive levels. Its longest directed walk
/// has length `k`, but a walk prefix can be extended in two ways at
/// every level — the worst case for the backtracking DFS (2^k failing
/// partial walks per start node) and a polynomial case for semijoins.
fn diamond_target(k: usize) -> ConjunctiveQuery {
    let mut body = Vec::new();
    for i in 0..k {
        for from in ["a", "b"] {
            for to in ["a", "b"] {
                body.push(Atom::new(
                    "e",
                    vec![
                        Term::var(&format!("D{i}{from}")),
                        Term::var(&format!("D{}{to}", i + 1)),
                    ],
                ));
            }
        }
    }
    ConjunctiveQuery::new(Atom::new("q", vec![]), body)
}

/// A Boolean spider (star of paths) pattern: three legs of length `k`
/// hanging off one hub — a tree, so acyclic for any `k`.
fn spider_pattern(k: usize) -> ConjunctiveQuery {
    let mut body = Vec::new();
    for leg in 0..3 {
        let mut prev = Term::var("H");
        for i in 0..k {
            let next = Term::var(&format!("P{leg}x{i}"));
            body.push(Atom::new("e", vec![prev, next]));
            prev = next;
        }
    }
    ConjunctiveQuery::new(Atom::new("q", vec![]), body)
}

/// A spider target whose legs are diamond chains of depth `k - 1`: no
/// node reaches a directed walk of length `k`, so a `k`-leg spider
/// pattern cannot map in — but the DFS only learns that after
/// backtracking through every branching walk.
fn spider_target(k: usize) -> ConjunctiveQuery {
    let mut body = Vec::new();
    for leg in 0..3 {
        for to in ["a", "b"] {
            body.push(Atom::new(
                "e",
                vec![Term::var("H"), Term::var(&format!("T{leg}x0{to}"))],
            ));
        }
        for i in 0..k.saturating_sub(2) {
            for from in ["a", "b"] {
                for to in ["a", "b"] {
                    body.push(Atom::new(
                        "e",
                        vec![
                            Term::var(&format!("T{leg}x{i}{from}")),
                            Term::var(&format!("T{leg}x{}{to}", i + 1)),
                        ],
                    ));
                }
            }
        }
    }
    ConjunctiveQuery::new(Atom::new("q", vec![]), body)
}

/// One acyclic containment point: the same checks decided by both
/// routes, timed. Each point pairs a hard *false* instance (pattern one
/// hop too long for the target, exponential for the DFS) with an easy
/// *true* instance (the same pattern into a longer same-family target),
/// so agreement is asserted over both verdicts; only the hard instance
/// is timed. The containment memo cache is disabled by the caller, so
/// every iteration really runs its route.
fn acyclic_point(
    family: &'static str,
    size: usize,
    pattern: &ConjunctiveQuery,
    hard_target: &ConjunctiveQuery,
    easy_target: &ConjunctiveQuery,
    iters: u32,
) -> Json {
    use viewplan_containment::containment::containment_mapping_complete;
    use viewplan_containment::is_contained_in;

    // `is_contained_in(target, pattern)` maps `pattern` into `target`;
    // the pattern is acyclic, so it takes the semijoin route. The
    // fallback is the homomorphism DFS called directly.
    let fast = |target: &ConjunctiveQuery| is_contained_in(target, pattern);
    let fallback =
        |target: &ConjunctiveQuery| containment_mapping_complete(pattern, target).0.is_some();
    let run = |check: &dyn Fn(&ConjunctiveQuery) -> bool| -> ((bool, bool), f64, u64) {
        let verdicts = (check(hard_target), check(easy_target));
        let before = obs::metrics_snapshot();
        let start = std::time::Instant::now();
        for _ in 0..iters {
            check(hard_target);
        }
        let ms = start.elapsed().as_secs_f64() * 1000.0 / f64::from(iters);
        let delta = obs::metrics_snapshot().delta_since(&before);
        let nodes = delta.counter("containment.hom_nodes") / u64::from(iters);
        (verdicts, ms, nodes)
    };
    let (fast_verdicts, fast_ms, fast_nodes) = run(&fast);
    let (slow_verdicts, fallback_ms, fallback_nodes) = run(&fallback);

    let checks = 2u64;
    let mut agree = 0u64;
    if fast_verdicts.0 == slow_verdicts.0 {
        agree += 1;
    }
    if fast_verdicts.1 == slow_verdicts.1 {
        agree += 1;
    }

    let mut o = BTreeMap::new();
    o.insert("family".into(), Json::str(family));
    o.insert("size".into(), Json::num(size as u64));
    o.insert("pattern_atoms".into(), Json::num(pattern.body.len() as u64));
    o.insert(
        "target_atoms".into(),
        Json::num(hard_target.body.len() as u64),
    );
    o.insert("fast_path_ms".into(), Json::Number(fast_ms));
    o.insert("fallback_ms".into(), Json::Number(fallback_ms));
    o.insert(
        "speedup".into(),
        Json::Number(if fast_ms > 0.0 {
            fallback_ms / fast_ms
        } else {
            0.0
        }),
    );
    o.insert("fast_path_hom_nodes".into(), Json::num(fast_nodes));
    o.insert("fallback_hom_nodes".into(), Json::num(fallback_nodes));
    o.insert("checks".into(), Json::num(checks));
    o.insert("verdicts_agree".into(), Json::num(agree));
    Json::Object(o)
}

/// Runs the acyclic star/chain containment points and renders the
/// `acyclic` section: per point, fast-path vs fallback latency on the
/// same instances, with the differential verdict agreement recorded
/// for [`validate_core`] to pin (`verdicts_agree == checks`, and the
/// polynomial route is never slower: `speedup >= 1`).
fn acyclic_section(config: &TrajectoryConfig) -> Json {
    let (chain_sizes, spider_sizes): (&[usize], &[usize]) = if config.smoke {
        (&[10, 12], &[8, 10])
    } else {
        (&[12, 16, 20], &[10, 12, 14])
    };
    let iters: u32 = if config.smoke { 3 } else { 5 };

    // Every iteration must *run* its route: memoized verdicts would
    // time the cache, not the semijoin/DFS divergence.
    let cache_was_enabled = viewplan_containment::cache_enabled();
    viewplan_containment::set_cache_enabled(false);
    let mut points = Vec::new();
    for &k in chain_sizes {
        points.push(acyclic_point(
            "chain",
            k,
            &chain_pattern(k),
            &diamond_target(k),
            &chain_pattern(k + 1),
            iters,
        ));
    }
    for &k in spider_sizes {
        points.push(acyclic_point(
            "star",
            k,
            &spider_pattern(k),
            &spider_target(k),
            &spider_pattern(k + 1),
            iters,
        ));
    }
    viewplan_containment::set_cache_enabled(cache_was_enabled);

    let mut o = BTreeMap::new();
    o.insert("iters".into(), Json::num(u64::from(iters)));
    o.insert("points".into(), Json::Array(points));
    Json::Object(o)
}

/// One warm/cold pass summary, in JSON form.
fn json_pass(
    requests: usize,
    truncated: usize,
    errors: usize,
    hits: u64,
    misses: u64,
    latency: &obs::HistogramSnapshot,
) -> Json {
    let mut lat = BTreeMap::new();
    lat.insert("p50".into(), Json::Number(latency.percentile(0.5)));
    lat.insert("p95".into(), Json::Number(latency.percentile(0.95)));
    lat.insert("p99".into(), Json::Number(latency.percentile(0.99)));
    lat.insert("mean".into(), Json::Number(latency.mean()));
    lat.insert("max".into(), Json::num(latency.max));
    let mut o = BTreeMap::new();
    o.insert("requests".into(), Json::num(requests as u64));
    o.insert("truncated".into(), Json::num(truncated as u64));
    o.insert("errors".into(), Json::num(errors as u64));
    o.insert("cache_hits".into(), Json::num(hits));
    o.insert("cache_misses".into(), Json::num(misses));
    o.insert("latency_us".into(), Json::Object(lat));
    Json::Object(o)
}

/// Runs the warm/cold serving loop and renders `BENCH_serve.json`: one
/// view set, a stream of distinct queries served twice through one
/// [`BatchServer`] — the first (cold) pass misses the rewriting cache on
/// every request, the second (warm) pass hits it on every request.
pub fn serve_trajectory(config: &TrajectoryConfig) -> Json {
    obs::set_enabled(true);
    let (views_n, queries_n) = if config.smoke { (12, 16) } else { (24, 64) };
    let seed = 20010521u64; // same fixed seed as the sweep machinery
    let views = generate(&WorkloadConfig::random(views_n, 1, seed)).views;
    let queries: Vec<_> = (0..queries_n)
        .map(|i| generate(&WorkloadConfig::random(views_n, 1, seed + 1 + i as u64)).query)
        .collect();
    let server = BatchServer::with_config(&views, ServeConfig::default());

    let run_pass = |label: &str| -> (String, Json) {
        let before = obs::metrics_snapshot();
        let hits_before = server.cache().map_or(0, |c| c.stats().hits);
        let misses_before = server.cache().map_or(0, |c| c.stats().misses);
        let mut truncated = 0usize;
        let mut errors = 0usize;
        for q in &queries {
            match server.serve(q) {
                Ok(a) if a.completeness.is_incomplete() => truncated += 1,
                Ok(_) => {}
                Err(_) => errors += 1,
            }
        }
        let delta = obs::metrics_snapshot().delta_since(&before);
        let latency = delta
            .histogram("serve.request_latency_us")
            .cloned()
            .unwrap_or_default();
        let hits = server.cache().map_or(0, |c| c.stats().hits) - hits_before;
        let misses = server.cache().map_or(0, |c| c.stats().misses) - misses_before;
        (
            label.to_string(),
            json_pass(queries.len(), truncated, errors, hits, misses, &latency),
        )
    };

    let passes: BTreeMap<String, Json> = [run_pass("cold"), run_pass("warm")].into_iter().collect();
    let query_srcs: Vec<String> = queries.iter().map(|q| q.to_string()).collect();
    let mut doc = BTreeMap::new();
    doc.insert("schema_version".into(), Json::num(BENCH_SCHEMA_VERSION));
    doc.insert("suite".into(), Json::str("serve"));
    doc.insert(
        "mode".into(),
        Json::str(if config.smoke { "smoke" } else { "full" }),
    );
    doc.insert("views".into(), Json::num(views_n as u64));
    doc.insert("queries".into(), Json::num(queries_n as u64));
    doc.insert("passes".into(), Json::Object(passes));
    doc.insert(
        "overload".into(),
        overload_section(&views, &query_srcs, config.smoke),
    );
    doc.insert(
        "ddl_churn".into(),
        ddl_churn_section(&views, &query_srcs, config.smoke),
    );
    Json::Object(doc)
}

/// One [`LoadgenReport`] rendered for the serve document.
fn json_load_report(r: &LoadgenReport) -> Json {
    let mut lat = BTreeMap::new();
    lat.insert("p50".into(), Json::num(r.latency_percentile(0.5)));
    lat.insert("p95".into(), Json::num(r.latency_percentile(0.95)));
    lat.insert("p99".into(), Json::num(r.latency_percentile(0.99)));
    let mut o = BTreeMap::new();
    o.insert("offered".into(), Json::num(r.offered));
    o.insert("ok".into(), Json::num(r.ok));
    o.insert("shed".into(), Json::num(r.shed));
    o.insert("errors".into(), Json::num(r.errors));
    o.insert("retries".into(), Json::num(r.retries));
    o.insert("silent_drops".into(), Json::num(r.failed_after_retries));
    o.insert("stale_epoch".into(), Json::num(r.stale_epoch));
    o.insert("cached".into(), Json::num(r.cached));
    o.insert("throughput_rps".into(), Json::Number(r.throughput_rps()));
    o.insert("latency_us".into(), Json::Object(lat));
    Json::Object(o)
}

/// Overload comparison over the real network stack: the same offered
/// load (closed-loop clients ≫ workers, each request carrying a
/// deadline) against a server *with* admission control (bounded queue,
/// deadline-aware rejection) and one *without* (a queue deep enough to
/// never refuse — requests then miss their deadlines inside the queue
/// instead of being shed at the door). The EXPERIMENTS table reads shed
/// rate and p99 from here; validation pins only the structural
/// invariants (accounting identity, zero silent drops, monotone
/// percentiles).
fn overload_section(views: &ViewSet, query_srcs: &[String], smoke: bool) -> Json {
    let (clients, per_client, workers) = if smoke { (6, 6, 2) } else { (12, 20, 2) };
    let deadline_ms = if smoke { 200 } else { 60 };
    let run = |queue_capacity: usize, deadline: Option<u64>| -> Json {
        let catalog = Arc::new(LiveCatalog::new(views, ServeConfig::default()));
        let net = NetConfig {
            workers,
            queue_capacity,
            ..NetConfig::default()
        };
        match NetServer::start(catalog, "127.0.0.1:0", net) {
            Ok(mut server) => {
                let report = run_loadgen(
                    server.local_addr(),
                    query_srcs,
                    &LoadgenConfig {
                        clients,
                        requests_per_client: per_client,
                        deadline_ms: deadline,
                        ..LoadgenConfig::default()
                    },
                );
                server.shutdown();
                json_load_report(&report)
            }
            Err(e) => Json::str(format!("bind failed: {e}")),
        }
    };
    let mut o = BTreeMap::new();
    o.insert("clients".into(), Json::num(clients as u64));
    o.insert("requests_per_client".into(), Json::num(per_client as u64));
    o.insert("workers".into(), Json::num(workers as u64));
    o.insert("deadline_ms".into(), Json::num(deadline_ms));
    o.insert(
        "with_admission".into(),
        run(if smoke { 4 } else { 8 }, Some(deadline_ms)),
    );
    o.insert("without_admission".into(), run(4096, None));
    Json::Object(o)
}

/// DDL churn under live traffic: closed-loop clients stream queries
/// while a control connection alternates `add-view`/`drop-view` of a
/// view sharing the workload's predicates (so swaps genuinely invalidate
/// cache entries). Validation pins the robustness story: every swap
/// acknowledged, zero silent drops, zero stale-epoch answers.
fn ddl_churn_section(views: &ViewSet, query_srcs: &[String], smoke: bool) -> Json {
    let (clients, per_client, swaps) = if smoke { (4, 8, 4) } else { (8, 25, 10) };
    // The churned view reuses the first workload view's body under a
    // fresh name, so its predicates overlap the cached queries'.
    let first_def = views.as_slice()[0].definition.to_string();
    let churn_src = match first_def.split_once('(') {
        Some((_, rest)) => format!("vchurn({rest}"),
        None => "vchurn(X) :- e(X, X)".to_string(),
    };
    let catalog = Arc::new(LiveCatalog::new(views, ServeConfig::default()));
    let net = NetConfig {
        workers: 2,
        ..NetConfig::default()
    };
    let mut o = BTreeMap::new();
    o.insert("clients".into(), Json::num(clients as u64));
    o.insert("requests_per_client".into(), Json::num(per_client as u64));
    match NetServer::start(catalog, "127.0.0.1:0", net) {
        Ok(mut server) => {
            let addr = server.local_addr();
            let churn_every = Duration::from_millis(if smoke { 2 } else { 5 });
            let churner = viewplan_sync::thread::spawn(move || {
                ddl_churn(addr, &churn_src, "vchurn", swaps, churn_every).unwrap_or(0)
            });
            let report = run_loadgen(
                addr,
                query_srcs,
                &LoadgenConfig {
                    clients,
                    requests_per_client: per_client,
                    ..LoadgenConfig::default()
                },
            );
            let acknowledged = churner.join().unwrap_or(0);
            server.shutdown();
            o.insert("epoch_swaps".into(), Json::num(acknowledged));
            o.insert("report".into(), json_load_report(&report));
        }
        Err(e) => {
            o.insert("error".into(), Json::str(format!("bind failed: {e}")));
        }
    }
    Json::Object(o)
}

// ---------------------------------------------------------------------
// Schema validation (what the CI bench-smoke job runs against both the
// freshly emitted documents and the checked-in trajectory files).

fn expect_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn expect_f64(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn expect_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn check_header(doc: &Json, suite: &str) -> Result<(), String> {
    let version = expect_u64(doc, "schema_version")?;
    if version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {BENCH_SCHEMA_VERSION}"
        ));
    }
    let got = expect_str(doc, "suite")?;
    if got != suite {
        return Err(format!("suite {got:?} != expected {suite:?}"));
    }
    let mode = expect_str(doc, "mode")?;
    if mode != "smoke" && mode != "full" {
        return Err(format!("mode {mode:?} is neither \"smoke\" nor \"full\""));
    }
    Ok(())
}

/// Validates a `BENCH_core.json` document against schema version 1.
pub fn validate_core(doc: &Json) -> Result<(), String> {
    check_header(doc, "core")?;
    expect_u64(doc, "threads")?;
    let sweeps = doc
        .get("sweeps")
        .and_then(Json::as_array)
        .ok_or("missing \"sweeps\" array")?;
    if sweeps.is_empty() {
        return Err("\"sweeps\" is empty".into());
    }
    for sweep in sweeps {
        let family = expect_str(sweep, "family")?;
        if !matches!(family, "star" | "chain" | "random") {
            return Err(format!("unknown family {family:?}"));
        }
        expect_u64(sweep, "nondistinguished")?;
        let points = sweep
            .get("points")
            .and_then(Json::as_array)
            .ok_or("sweep missing \"points\" array")?;
        if points.is_empty() {
            return Err(format!("family {family:?} has no points"));
        }
        for p in points {
            expect_u64(p, "views")?;
            expect_u64(p, "queries")?;
            for key in [
                "avg_ms",
                "view_classes",
                "view_tuples",
                "representative_tuples",
                "gmrs",
                "hom_nodes",
                "set_cover_nodes",
                "completeness",
            ] {
                let v = expect_f64(p, key)?;
                if v < 0.0 {
                    return Err(format!("negative {key} in a {family:?} point"));
                }
            }
        }
    }
    validate_acyclic(doc.get("acyclic").ok_or("missing \"acyclic\" object")?)
}

/// Validates the `acyclic` section of `BENCH_core.json`: per point, the
/// differential-oracle invariant (the semijoin and DFS verdicts agreed
/// on every check) and the performance invariant (the polynomial route
/// was never slower than the exponential one on its hard instances).
fn validate_acyclic(section: &Json) -> Result<(), String> {
    expect_u64(section, "iters")?;
    let points = section
        .get("points")
        .and_then(Json::as_array)
        .ok_or("acyclic section missing \"points\" array")?;
    if points.is_empty() {
        return Err("acyclic \"points\" is empty".into());
    }
    for p in points {
        let family = expect_str(p, "family")?;
        if !matches!(family, "star" | "chain") {
            return Err(format!("unknown acyclic family {family:?}"));
        }
        let size = expect_u64(p, "size")?;
        if size == 0 {
            return Err(format!("acyclic {family:?} point has size 0"));
        }
        expect_u64(p, "pattern_atoms")?;
        expect_u64(p, "target_atoms")?;
        for key in ["fast_path_ms", "fallback_ms"] {
            let v = expect_f64(p, key)?;
            if v < 0.0 {
                return Err(format!("negative {key} in an acyclic {family:?} point"));
            }
        }
        let speedup = expect_f64(p, "speedup")?;
        if speedup < 1.0 {
            return Err(format!(
                "acyclic {family:?} at size {size}: fast path slower than fallback \
                 (speedup {speedup})"
            ));
        }
        // The fast path must have decided without the DFS; the fallback
        // must really have searched.
        let fast_nodes = expect_u64(p, "fast_path_hom_nodes")?;
        if fast_nodes != 0 {
            return Err(format!(
                "acyclic {family:?} at size {size}: fast path expanded {fast_nodes} \
                 DFS node(s) — it did not take the semijoin route"
            ));
        }
        let fallback_nodes = expect_u64(p, "fallback_hom_nodes")?;
        if fallback_nodes == 0 {
            return Err(format!(
                "acyclic {family:?} at size {size}: fallback expanded no DFS nodes"
            ));
        }
        let checks = expect_u64(p, "checks")?;
        let agree = expect_u64(p, "verdicts_agree")?;
        if checks == 0 || agree != checks {
            return Err(format!(
                "acyclic {family:?} at size {size}: verdict agreement {agree}/{checks}"
            ));
        }
    }
    Ok(())
}

/// Validates a `BENCH_serve.json` document against schema version 1,
/// including the cache-behavior invariant: the cold pass cannot hit more
/// than the warm pass, and the warm pass must actually hit the cache.
/// The p99 every socket section of a `"full"` `BENCH_serve.json` must
/// stay below, µs. A blocking front-end answers these loads in a few
/// ms; a p99 of 25 ms or more is the signature of a poll-sized stall.
pub const FULL_SOCKET_P99_US: f64 = 25_000.0;

pub fn validate_serve(doc: &Json) -> Result<(), String> {
    check_header(doc, "serve")?;
    let full = expect_str(doc, "mode")? == "full";
    expect_u64(doc, "views")?;
    expect_u64(doc, "queries")?;
    let passes = doc.get("passes").ok_or("missing \"passes\" object")?;
    let mut hit_rate = BTreeMap::new();
    for label in ["cold", "warm"] {
        let pass = passes
            .get(label)
            .ok_or_else(|| format!("missing pass {label:?}"))?;
        let requests = expect_u64(pass, "requests")?;
        if requests == 0 {
            return Err(format!("pass {label:?} served no requests"));
        }
        expect_u64(pass, "truncated")?;
        expect_u64(pass, "errors")?;
        let hits = expect_u64(pass, "cache_hits")?;
        expect_u64(pass, "cache_misses")?;
        hit_rate.insert(label, hits as f64 / requests as f64);
        let lat = pass
            .get("latency_us")
            .ok_or_else(|| format!("pass {label:?} missing \"latency_us\""))?;
        let p50 = expect_f64(lat, "p50")?;
        let p95 = expect_f64(lat, "p95")?;
        let p99 = expect_f64(lat, "p99")?;
        expect_f64(lat, "mean")?;
        let max = expect_u64(lat, "max")? as f64;
        if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
            return Err(format!(
                "pass {label:?}: percentiles are not monotone \
                 (p50={p50}, p95={p95}, p99={p99}, max={max})"
            ));
        }
    }
    if hit_rate["warm"] <= hit_rate["cold"] {
        return Err(format!(
            "warm hit rate {} is not above cold hit rate {} — the cache did nothing",
            hit_rate["warm"], hit_rate["cold"]
        ));
    }
    let overload = doc.get("overload").ok_or("missing \"overload\" object")?;
    for key in ["clients", "requests_per_client", "workers", "deadline_ms"] {
        expect_u64(overload, key)?;
    }
    for variant in ["with_admission", "without_admission"] {
        let block = overload
            .get(variant)
            .ok_or_else(|| format!("overload missing {variant:?}"))?;
        validate_load_block(block, variant, full)?;
    }
    let churn = doc.get("ddl_churn").ok_or("missing \"ddl_churn\" object")?;
    expect_u64(churn, "clients")?;
    expect_u64(churn, "requests_per_client")?;
    let swaps = expect_u64(churn, "epoch_swaps")?;
    if swaps == 0 {
        return Err("ddl_churn acknowledged no epoch swaps".into());
    }
    validate_load_block(
        churn.get("report").ok_or("ddl_churn missing \"report\"")?,
        "ddl_churn.report",
        full,
    )?;
    Ok(())
}

/// Structural invariants of one load-generator block: the accounting
/// identity holds, nothing was silently dropped, no stale-epoch answer
/// was served, and the latency percentiles are monotone (up to `max`,
/// when the block reports one). Throughput is not pinned; absolute
/// latency only by the [`FULL_SOCKET_P99_US`] ceiling in full mode.
fn validate_load_block(block: &Json, label: &str, full: bool) -> Result<(), String> {
    let offered = expect_u64(block, "offered")?;
    if offered == 0 {
        return Err(format!("{label}: offered no requests"));
    }
    let ok = expect_u64(block, "ok")?;
    let shed = expect_u64(block, "shed")?;
    let errors = expect_u64(block, "errors")?;
    let silent = expect_u64(block, "silent_drops")?;
    let stale = expect_u64(block, "stale_epoch")?;
    expect_u64(block, "retries")?;
    expect_u64(block, "cached")?;
    expect_f64(block, "throughput_rps")?;
    if ok + shed + errors + silent != offered {
        return Err(format!(
            "{label}: accounting broken — ok {ok} + shed {shed} + errors {errors} + \
             silent {silent} != offered {offered}"
        ));
    }
    if silent != 0 {
        return Err(format!("{label}: {silent} request(s) silently dropped"));
    }
    if stale != 0 {
        return Err(format!("{label}: {stale} stale-epoch answer(s) served"));
    }
    let lat = block
        .get("latency_us")
        .ok_or_else(|| format!("{label} missing \"latency_us\""))?;
    let p50 = expect_f64(lat, "p50")?;
    let p95 = expect_f64(lat, "p95")?;
    let p99 = expect_f64(lat, "p99")?;
    let max = lat
        .get("max")
        .and_then(Json::as_f64)
        .unwrap_or(f64::INFINITY);
    if !(p50 <= p95 && p95 <= p99 && p99 <= max) {
        return Err(format!(
            "{label}: percentiles are not monotone (p50={p50}, p95={p95}, p99={p99}, max={max})"
        ));
    }
    if full && p99 >= FULL_SOCKET_P99_US {
        return Err(format!(
            "{label}: p99 {p99} us is at or above the {FULL_SOCKET_P99_US} us full-mode \
             ceiling — a poll-sized stall on the socket path"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> TrajectoryConfig {
        TrajectoryConfig {
            smoke: true,
            threads: 1,
        }
    }

    #[test]
    fn serve_trajectory_validates_and_shows_warm_cache_hits() {
        let doc = serve_trajectory(&smoke());
        validate_serve(&doc).unwrap();
        let warm = doc.get("passes").unwrap().get("warm").unwrap();
        let requests = warm.get("requests").unwrap().as_u64().unwrap();
        let hits = warm.get("cache_hits").unwrap().as_u64().unwrap();
        assert_eq!(hits, requests, "every warm request hits the cache");
        // The overload run over a live socket must account for every
        // request and the DDL churn must have swapped epochs.
        let overload = doc.get("overload").unwrap();
        for variant in ["with_admission", "without_admission"] {
            let block = overload.get(variant).unwrap();
            assert_eq!(block.get("silent_drops").unwrap().as_u64(), Some(0));
            assert_eq!(block.get("stale_epoch").unwrap().as_u64(), Some(0));
        }
        let churn = doc.get("ddl_churn").unwrap();
        assert!(churn.get("epoch_swaps").unwrap().as_u64().unwrap() >= 1);
    }

    #[test]
    fn core_trajectory_validates_and_round_trips_through_render() {
        let doc = core_trajectory(&smoke());
        validate_core(&doc).unwrap();
        let rendered = doc.render();
        let parsed = obs::parse_json(&rendered).unwrap();
        validate_core(&parsed).unwrap();
        assert_eq!(parsed, doc);
        // Flip one differential-oracle bit in the acyclic section: the
        // document must be rejected.
        let mut broken = doc;
        if let Json::Object(map) = &mut broken {
            if let Some(Json::Object(acyclic)) = map.get_mut("acyclic") {
                if let Some(Json::Array(points)) = acyclic.get_mut("points") {
                    if let Some(Json::Object(p)) = points.first_mut() {
                        p.insert("verdicts_agree".into(), Json::num(1));
                    }
                }
            }
        }
        assert!(validate_core(&broken)
            .unwrap_err()
            .contains("verdict agreement"));
    }

    #[test]
    fn acyclic_hard_instances_really_diverge() {
        // The constructions underlying the acyclic section: a k-walk
        // pattern cannot map into a depth-k diamond (hard false), but
        // can into a (k+1)-walk of its own family (easy true) — and
        // both routes must say so: `is_contained_in` (the semijoin
        // route, for these acyclic patterns) and the homomorphism DFS
        // called directly.
        use viewplan_containment::containment::containment_mapping_complete;
        for (pattern, hard, easy) in [
            (chain_pattern(6), diamond_target(6), chain_pattern(7)),
            (spider_pattern(5), spider_target(5), spider_pattern(6)),
        ] {
            assert!(!viewplan_containment::is_contained_in(&hard, &pattern));
            assert!(viewplan_containment::is_contained_in(&easy, &pattern));
            assert!(containment_mapping_complete(&pattern, &hard).0.is_none());
            assert!(containment_mapping_complete(&pattern, &easy).0.is_some());
        }
    }

    #[test]
    fn validation_rejects_wrong_versions_and_broken_invariants() {
        let mut doc = serve_trajectory(&smoke());
        validate_serve(&doc).unwrap();
        // Break the overload accounting identity: must be rejected.
        let mut cooked = doc.clone();
        if let Json::Object(map) = &mut cooked {
            if let Some(Json::Object(over)) = map.get_mut("overload") {
                if let Some(Json::Object(block)) = over.get_mut("with_admission") {
                    block.insert("silent_drops".into(), Json::num(3));
                }
            }
        }
        assert!(validate_serve(&cooked).unwrap_err().contains("accounting"));
        // A served stale-epoch answer must be rejected even when the
        // accounting identity still balances.
        let mut stale = doc.clone();
        if let Json::Object(map) = &mut stale {
            if let Some(Json::Object(churn)) = map.get_mut("ddl_churn") {
                if let Some(Json::Object(block)) = churn.get_mut("report") {
                    block.insert("stale_epoch".into(), Json::num(1));
                }
            }
        }
        assert!(validate_serve(&stale).unwrap_err().contains("stale-epoch"));
        // A pass whose p99 exceeds its max must be rejected.
        let mut torn = doc.clone();
        if let Json::Object(map) = &mut torn {
            if let Some(Json::Object(passes)) = map.get_mut("passes") {
                if let Some(Json::Object(warm)) = passes.get_mut("warm") {
                    if let Some(Json::Object(lat)) = warm.get_mut("latency_us") {
                        lat.insert("max".into(), Json::num(0));
                    }
                }
            }
        }
        assert!(validate_serve(&torn).unwrap_err().contains("max=0"));
        // A poll-sized socket p99: tolerated in smoke mode, rejected in
        // a full document.
        let mut stalled = doc.clone();
        if let Json::Object(map) = &mut stalled {
            if let Some(Json::Object(churn)) = map.get_mut("ddl_churn") {
                if let Some(Json::Object(block)) = churn.get_mut("report") {
                    if let Some(Json::Object(lat)) = block.get_mut("latency_us") {
                        lat.insert("p99".into(), Json::num(26_444));
                    }
                }
            }
        }
        validate_serve(&stalled).unwrap();
        if let Json::Object(map) = &mut stalled {
            map.insert("mode".into(), Json::str("full"));
        }
        assert!(validate_serve(&stalled).unwrap_err().contains("ceiling"));
        // Bump the version: must be rejected.
        if let Json::Object(map) = &mut doc {
            map.insert("schema_version".into(), Json::num(99));
        }
        assert!(validate_serve(&doc).unwrap_err().contains("schema_version"));
    }
}
