//! `rewrite-star`: cold GMR generation, the paper's Figure 6 point.
//!
//! Star queries of 8 subgoals with 2 nondistinguished variables against
//! catalogs of 1000 star views, served one at a time through
//! `BatchServer::serve` with the rewriting cache off and CoreCover on 2
//! threads. The `core` layer does almost all the work; `cost` (M1
//! planning) and `engine` (canonical-database joins) stay nearly idle,
//! and the cache and network are bypassed. Request `i` goes to catalog
//! `i % catalogs`: one run averages over several seeded catalogs, so
//! runs at different seeds measure the same mix.

use crate::replay::{replay, StageTimes};
use crate::report::Report;
use crate::stats::{percentile, sub_seed, Rng};
use crate::{ms, setup_median, timed, us, Opts};
use std::time::{Duration, Instant};
use viewplan_containment::{are_equivalent, canonicalize, expand};
use viewplan_core::{CoreCover, CoreCoverConfig, PreparedViews};
use viewplan_cost::{Catalog, CostModel, EstimateOracle, Optimizer};
use viewplan_cq::{parse_query, ConjunctiveQuery, ViewSet};
use viewplan_obs as obs;
use viewplan_serve::{BatchServer, ServeConfig, ServedAnswer};
use viewplan_workload::{generate, WorkloadConfig};

const THREADS: usize = 2;
const NONDISTINGUISHED: usize = 2;
/// Rewritings per distinct query whose expansion is checked.
const CHECK_SAMPLE: usize = 24;

struct Sizes {
    catalogs: usize,
    views: usize,
    queries: usize,
    setups: usize,
}

fn sizes(opts: &Opts) -> Sizes {
    if opts.tiny {
        Sizes {
            catalogs: 2,
            views: 80,
            queries: 6,
            setups: 1,
        }
    } else {
        Sizes {
            catalogs: 8,
            views: 1000,
            queries: 256,
            setups: 9,
        }
    }
}

fn catalog(seed: u64, k: usize, views: usize) -> ViewSet {
    generate(&WorkloadConfig::star(
        views,
        NONDISTINGUISHED,
        sub_seed(seed, 10 + k as u64),
    ))
    .views
}

fn queries(seed: u64, n: usize) -> Vec<ConjunctiveQuery> {
    (0..n as u64)
        .map(|i| {
            generate(&WorkloadConfig::star(
                0,
                NONDISTINGUISHED,
                sub_seed(seed, 100 + i),
            ))
            .query
        })
        .collect()
}

fn corecover_config() -> CoreCoverConfig {
    CoreCoverConfig {
        threads: THREADS,
        ..CoreCoverConfig::default()
    }
}

pub fn run(opts: &Opts, report: &mut Report) {
    let sz = sizes(opts);
    let queries = queries(opts.seed, sz.queries);
    let config = ServeConfig {
        cache_capacity: 0,
        corecover: corecover_config(),
        ..ServeConfig::default()
    };
    let (servers, setup_s, setups) = setup_median(sz.setups, || {
        (0..sz.catalogs)
            .map(|k| BatchServer::with_config(&catalog(opts.seed, k, sz.views), config.clone()))
            .collect::<Vec<_>>()
    });
    println!(
        "config rewrite-star: catalogs={} views_per_catalog={} view_classes={:?} queries={} corecover_threads={THREADS} cache_capacity=0 setups={setups:?}",
        servers.len(),
        sz.views,
        servers.iter().map(|s| s.prepared().class_count()).collect::<Vec<_>>(),
        queries.len(),
    );
    if opts.trace {
        traced(opts, report, &servers, &queries);
    } else {
        report.set("setup_s", setup_s, &format!("median of {}", setups.len()));
        untraced(opts, report, &servers, &queries);
    }
}

fn untraced(
    opts: &Opts,
    report: &mut Report,
    servers: &[BatchServer],
    queries: &[ConjunctiveQuery],
) {
    // Warm-up pass: process-wide memo caches reach their steady state.
    for (k, q) in queries.iter().enumerate() {
        let _ = servers[k % servers.len()].serve(q);
    }
    let mut latencies: Vec<f64> = Vec::new();
    let mut first: Vec<Option<ServedAnswer>> = vec![None; queries.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut i = 0usize;
    while Instant::now() < deadline || i < queries.len() {
        let k = i % queries.len();
        let (out, took) = timed(|| servers[k % servers.len()].serve(&queries[k]));
        report.attempt(1);
        i += 1;
        match out {
            Ok(answer) => {
                latencies.push(ms(took));
                match &first[k] {
                    None => first[k] = Some(answer),
                    Some(f) => report.check(f.render() == answer.render(), || {
                        format!("query {k} answered differently on a repeat")
                    }),
                }
            }
            Err(e) => report.check(false, || format!("query {k} failed: {e}")),
        }
    }
    report.peak_rss();
    // Theorem 3.2: every served rewriting expands to a query equivalent
    // to the request (checked on a seeded sample of each answer).
    let mut rng = Rng::new(sub_seed(opts.seed, 7));
    let mut checked = 0usize;
    let mut rewritings = 0usize;
    for (k, (q, answer)) in queries.iter().zip(&first).enumerate() {
        let Some(answer) = answer else { continue };
        let views = servers[k % servers.len()].views();
        rewritings += answer.rewritings.len();
        let mut picks: Vec<usize> = (0..answer.rewritings.len()).collect();
        while picks.len() > CHECK_SAMPLE {
            picks.swap_remove(rng.below(picks.len()));
        }
        for p in picks {
            let r = &answer.rewritings[p];
            let ok = expand(r, views).is_ok_and(|exp| are_equivalent(&exp, q));
            checked += 1;
            report.check(ok, || format!("rewriting {r} is not equivalent to {q}"));
        }
    }
    println!(
        "checks rewrite-star: requests={i} distinct_queries={} rewritings={rewritings} expansions_checked={checked}",
        queries.len()
    );
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    report.set(
        "qps",
        latencies.len() as f64 / busy_s,
        &format!("{} requests in {busy_s:.3} busy s", latencies.len()),
    );
    if let (Some(p50), Some(p90)) = (percentile(&latencies, 0.5), percentile(&latencies, 0.9)) {
        println!("p50 = {} ms ({})", p50.value, p50.describe("p50"));
        report.set("tail_ms", p90.value, &p90.describe("p90"));
    }
}

/// Per-request sums of the traced measurements.
#[derive(Default)]
struct Traced {
    requests: usize,
    parse: Duration,
    validate: Duration,
    canonicalize: Duration,
    run: Duration,
    stages: StageTimes,
    plan: Duration,
    rewritings_in: usize,
    checks: u64,
}

fn traced(opts: &Opts, report: &mut Report, servers: &[BatchServer], queries: &[ConjunctiveQuery]) {
    let (_, prepare) = timed(|| PreparedViews::prepare(servers[0].views()));
    report.set("core.prepare_ms", ms(prepare), "one PreparedViews::prepare");
    let empty = Catalog::new();
    let mut sum = Traced::default();
    let mut counts = [0u64; 5];
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut pass = 0usize;
    while pass == 0 || Instant::now() < deadline {
        for (k, q) in queries.iter().enumerate() {
            report.attempt(1);
            let server = &servers[k % servers.len()];
            let prepared = server.prepared();
            let text = q.to_string();
            let (parsed, t) = timed(|| parse_query(&text));
            sum.parse += t;
            let Ok(parsed) = parsed else {
                report.check(false, || format!("query {k} does not re-parse: {text}"));
                continue;
            };
            let (valid, t) = timed(|| server.validate(&parsed));
            sum.validate += t;
            report.check(valid.is_ok(), || format!("query {k} fails validation"));
            let (c, t) = timed(|| canonicalize(&parsed));
            sum.canonicalize += t;
            let checks_before = obs::counter_value("containment.checks");
            let (result, t_run) = timed(|| {
                CoreCover::with_prepared_views(&c.canonical, prepared)
                    .with_config(corecover_config())
                    .try_run()
            });
            sum.checks += obs::counter_value("containment.checks") - checks_before;
            sum.run += t_run;
            let (Ok(result), Ok(rep)) = (
                result,
                replay(&c.canonical, prepared, THREADS, true, 10_000),
            ) else {
                report.check(false, || format!("query {k} failed in CoreCover"));
                continue;
            };
            sum.stages.add(&rep.times);
            let same = rep
                .rewritings
                .iter()
                .map(|r| r.to_string())
                .eq(result.rewritings().iter().map(|r| r.to_string()));
            report.check(same, || format!("replay of query {k} differs from try_run"));
            sum.rewritings_in += result.rewritings().len();
            if pass == 0 {
                for (slot, v) in counts.iter_mut().zip([
                    rep.rewritings.len() as u64,
                    rep.candidates as u64,
                    rep.set_cover_nodes,
                    rep.view_tuples as u64,
                    rep.representative_tuples as u64,
                ]) {
                    *slot += v;
                }
            }
            let (planned, t) = timed(|| {
                Optimizer::new(&c.canonical, server.views()).try_plan_generated(
                    CostModel::M1,
                    result,
                    &mut EstimateOracle::new(&empty),
                )
            });
            sum.plan += t;
            report.check(planned.is_ok(), || format!("query {k} failed M1 planning"));
            sum.requests += 1;
        }
        pass += 1;
    }
    let n = sum.requests.max(1) as f64;
    let per = |d: Duration| ms(d) / n;
    let s = &sum.stages;
    report.set("cq.parse_us", us(sum.parse) / n, "mean per request");
    report.set(
        "analyze.validate_us",
        us(sum.validate) / n,
        "mean per request",
    );
    report.set(
        "serve.canonicalize_us",
        us(sum.canonicalize) / n,
        "mean per request",
    );
    report.set(
        "containment.minimize_us",
        us(s.minimize) / n,
        "mean per request",
    );
    report.set(
        "containment.checks",
        sum.checks as f64 / n,
        "mean per try_run",
    );
    report.set("core.prune_ms", per(s.prune), "mean per request");
    report.set(
        "core.view_tuples_ms",
        per(s.view_tuples),
        "mean per request",
    );
    report.set(
        "core.tuple_cores_ms",
        per(s.tuple_cores),
        "mean per request",
    );
    report.set("core.set_cover_ms", per(s.set_cover), "mean per request");
    report.set("core.build_ms", per(s.build + s.verify), "mean per request");
    report.set("core.dedup_ms", per(s.dedup), "mean per request");
    let unattributed = per(sum.run) - per(s.total());
    report.set(
        "core.unattributed_ms",
        unattributed,
        "mean try_run minus the replayed stages",
    );
    println!(
        "sum rewrite-star: replayed stages {:.4} ms + unattributed {unattributed:.4} ms = try_run {:.4} ms per request over {} requests",
        per(s.total()),
        per(sum.run),
        sum.requests
    );
    let [rewritings, candidates, nodes, view_tuples, reps] = counts;
    let nq = queries.len() as f64;
    report.set(
        "core.rewritings",
        rewritings as f64 / nq,
        "mean per query, first pass",
    );
    report.set(
        "core.candidates",
        candidates as f64 / nq,
        "mean per query, first pass",
    );
    report.set(
        "core.set_cover_nodes",
        nodes as f64 / nq,
        "mean per query, first pass",
    );
    report.set(
        "core.view_tuples",
        view_tuples as f64 / nq,
        "mean per query, first pass",
    );
    report.set(
        "core.representative_tuples",
        reps as f64 / nq,
        "mean per query, first pass",
    );
    report.set(
        "core.dedup_yield",
        rewritings as f64 / candidates.max(1) as f64,
        "rewritings / candidates",
    );
    report.count("core.rewritings", rewritings);
    report.count("core.set_cover_nodes", nodes);
    report.count("core.view_tuples", view_tuples);
    report.set(
        "cost.plan_ms",
        per(sum.plan),
        "mean M1 planning per request",
    );
    report.set(
        "cost.rewritings_in",
        sum.rewritings_in as f64 / n,
        "mean per request",
    );
    let sample = &queries[..queries.len().min(16)];
    let overhead = crate::trace_overhead_pct(|| {
        for (k, q) in sample.iter().enumerate() {
            let _ = servers[k % servers.len()].serve(q);
        }
    });
    report.set(
        "obs.trace_overhead_pct",
        overhead,
        "serve() of 16 queries, obs on vs off",
    );
}
