//! `answer-chain`: chain queries answered over data, the way
//! `viewplan plan` does.
//!
//! Catalogs of 50 chain views (8-subgoal chain setting, 1
//! nondistinguished variable) materialized over 50 000 random rows per
//! base relation (domain 50 000). Each request runs CoreCover* over one
//! catalog's prepared views, the M2 optimizer with an `EstimateOracle`
//! over a `Catalog` built at set-up, and executes the chosen plan. `cost`
//! planning and `engine` execution dominate; CoreCover's hot loops, the
//! cache and the network are bypassed.
//!
//! The cost of a request depends strongly on which views its catalog
//! holds, so one run cycles through many seeded catalogs, and runs at
//! different seeds measure the same mix. The chain generator draws from
//! a few dozen distinct definitions, so views equal up to variable
//! renaming share one name and one materialized relation across
//! catalogs.

use crate::replay::{replay, StageTimes};
use crate::report::Report;
use crate::stats::{percentile, sub_seed};
use crate::{ms, setup_median, timed, us, Opts};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use viewplan_containment::canonicalize;
use viewplan_core::{CoreCover, CoreCoverConfig, CoreCoverResult, CoreError, PreparedViews};
use viewplan_cost::{Catalog, CostModel, EstimateOracle, Optimizer, PlannedRewriting};
use viewplan_cq::{parse_query, ConjunctiveQuery, Symbol, View, ViewSet};
use viewplan_engine::{evaluate, materialize_views, Database, ExecutionTrace, Relation, Value};
use viewplan_workload::{generate, random_database, WorkloadConfig};

const THREADS: usize = 2;
const MAX_REWRITINGS: usize = 10_000;

struct Sizes {
    catalogs: usize,
    views: usize,
    rows: usize,
    domain: i64,
    queries: usize,
    setups: usize,
}

fn sizes(opts: &Opts) -> Sizes {
    if opts.tiny {
        Sizes {
            catalogs: 3,
            views: 20,
            rows: 300,
            domain: 300,
            queries: 40,
            setups: 1,
        }
    } else {
        Sizes {
            catalogs: 64,
            views: 50,
            rows: 50_000,
            domain: 50_000,
            queries: 200,
            setups: 3,
        }
    }
}

/// Everything built at set-up.
struct Setup {
    /// Each catalog's views and their prepared form.
    catalogs: Vec<(ViewSet, PreparedViews)>,
    base: Database,
    /// Every distinct view of every catalog, materialized.
    materialized: Database,
    distinct_views: usize,
    stats: Catalog,
    materialize: Duration,
}

/// A catalog's views renamed so that definitions equal up to variable
/// renaming share one name; new definitions are added to `all`.
fn shared_names(
    views: &ViewSet,
    names: &mut HashMap<String, Symbol>,
    all: &mut ViewSet,
) -> ViewSet {
    let mut out = ViewSet::new();
    for v in views.iter() {
        let mut def = v.definition.clone();
        def.head.predicate = Symbol::new("v");
        let key = canonicalize(&def).canonical.to_string();
        let next = names.len();
        let name = *names.entry(key).or_insert_with(|| {
            let name = Symbol::new(&format!("c{next}"));
            def.head.predicate = name;
            all.push(View {
                definition: def.clone(),
            });
            name
        });
        if out.get(name).is_none() {
            let mut def = v.definition.clone();
            def.head.predicate = name;
            out.push(View { definition: def });
        }
    }
    out
}

fn setup(seed: u64, sz: &Sizes) -> Setup {
    let shape = generate(&WorkloadConfig::chain(0, 1, sub_seed(seed, 1))).query;
    let mut base = Database::new();
    for (name, rows) in random_database(&shape, sz.rows, sz.domain, sub_seed(seed, 2)) {
        for row in rows {
            base.insert(name, row.into_iter().map(Value::Int).collect());
        }
    }
    let mut names = HashMap::new();
    let mut all = ViewSet::new();
    let catalogs = (0..sz.catalogs as u64)
        .map(|k| {
            let generated =
                generate(&WorkloadConfig::chain(sz.views, 1, sub_seed(seed, 10 + k))).views;
            let views = shared_names(&generated, &mut names, &mut all);
            let prepared = PreparedViews::prepare(&views);
            (views, prepared)
        })
        .collect();
    let (materialized, materialize) = timed(|| materialize_views(&all, &base));
    let stats = Catalog::from_database(&materialized);
    Setup {
        catalogs,
        base,
        materialized,
        distinct_views: all.len(),
        stats,
        materialize,
    }
}

/// The distinct chain queries (one per choice of nondistinguished
/// variable), in canonical order: every seed asks the same query mix.
fn queries(seed: u64, draws: usize) -> Vec<ConjunctiveQuery> {
    let mut distinct: BTreeMap<String, ConjunctiveQuery> = BTreeMap::new();
    for i in 0..draws as u64 {
        let q = generate(&WorkloadConfig::chain(0, 1, sub_seed(seed, 100 + i))).query;
        distinct
            .entry(canonicalize(&q).canonical.to_string())
            .or_insert(q);
    }
    distinct.into_values().collect()
}

fn generate_space(
    q: &ConjunctiveQuery,
    prepared: &PreparedViews,
) -> Result<CoreCoverResult, CoreError> {
    CoreCover::with_prepared_views(q, prepared)
        .with_config(CoreCoverConfig {
            threads: THREADS,
            max_rewritings: MAX_REWRITINGS,
            ..CoreCoverConfig::default()
        })
        .try_run_all_minimal()
}

fn plan(
    q: &ConjunctiveQuery,
    views: &ViewSet,
    s: &Setup,
    space: CoreCoverResult,
) -> Result<Option<PlannedRewriting>, String> {
    Optimizer::new(q, views)
        .try_plan_generated(CostModel::M2, space, &mut EstimateOracle::new(&s.stats))
        .map(|o| o.best)
        .map_err(|e| e.to_string())
}

fn execute(best: &PlannedRewriting, s: &Setup) -> Result<ExecutionTrace, String> {
    best.plan
        .try_execute(&best.rewriting.head, &s.materialized)
        .map_err(|e| e.to_string())
}

/// One request against catalog `k`: CoreCover*, M2 planning, execution.
fn answer(q: &ConjunctiveQuery, k: usize, s: &Setup) -> Result<Option<ExecutionTrace>, String> {
    let (views, prepared) = &s.catalogs[k];
    let space = generate_space(q, prepared).map_err(|e| e.to_string())?;
    match plan(q, views, s, space)? {
        Some(best) => execute(&best, s).map(Some),
        None => Ok(None),
    }
}

/// Order-independent digest of a relation's rows.
fn digest(r: &Relation) -> (usize, u64) {
    let mut rows: Vec<&Vec<Value>> = r.iter().collect();
    rows.sort();
    let mut h = DefaultHasher::new();
    rows.hash(&mut h);
    (rows.len(), h.finish())
}

/// The request list: request `i` asks query `i % queries` of catalog
/// `i % catalogs`, so a pass covers every catalog and every query evenly.
fn requests(catalogs: usize, queries: usize) -> Vec<(usize, usize)> {
    (0..catalogs).map(|i| (i, i % queries)).collect()
}

pub fn run(opts: &Opts, report: &mut Report) {
    let sz = sizes(opts);
    let queries = queries(opts.seed, sz.queries);
    let requests = requests(sz.catalogs, queries.len());
    let (s, setup_s, setups) = setup_median(sz.setups, || setup(opts.seed, &sz));
    let view_rows: usize = s.materialized.iter().map(|(_, r)| r.len()).sum();
    println!(
        "config answer-chain: catalogs={} views_per_catalog={} distinct_views={} base_rows_per_relation={} domain={} view_rows={view_rows} queries={} requests_per_pass={} corecover_threads={THREADS} setups={setups:?}",
        s.catalogs.len(),
        sz.views,
        s.distinct_views,
        sz.rows,
        sz.domain,
        queries.len(),
        requests.len(),
    );
    if opts.trace {
        report.set("engine.materialize_ms", ms(s.materialize), "last set-up");
        traced(opts, report, &s, &queries, &requests);
    } else {
        report.set("setup_s", setup_s, &format!("median of {}", setups.len()));
        untraced(opts, report, &s, &queries, &requests);
    }
}

fn untraced(
    opts: &Opts,
    report: &mut Report,
    s: &Setup,
    queries: &[ConjunctiveQuery],
    requests: &[(usize, usize)],
) {
    let mut latencies: Vec<f64> = Vec::new();
    // Per request: the query and its answer's digest (None: no plan).
    let mut served: Vec<(usize, Option<(usize, u64)>)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut i = 0usize;
    while Instant::now() < deadline || i < requests.len() {
        let (c, k) = requests[i % requests.len()];
        i += 1;
        report.attempt(1);
        let (out, took) = timed(|| answer(&queries[k], c, s));
        match out {
            Ok(trace) => {
                latencies.push(ms(took));
                served.push((k, trace.map(|t| digest(&t.answer))));
            }
            Err(e) => report.check(false, || format!("query {k} on catalog {c} failed: {e}")),
        }
    }
    report.peak_rss();
    // Closed-world equivalence: each executed plan's answer equals direct
    // evaluation of the query over the base data.
    let mut direct: HashMap<usize, (usize, u64)> = HashMap::new();
    let mut planned = 0usize;
    for (k, got) in &served {
        let Some(got) = got else { continue };
        planned += 1;
        let want = *direct
            .entry(*k)
            .or_insert_with(|| digest(&evaluate(&queries[*k], &s.base)));
        report.check(*got == want, || {
            format!(
                "query {k}: plan answered {} rows, direct evaluation {}",
                got.0, want.0
            )
        });
    }
    println!(
        "checks answer-chain: requests={i} executed_plans={planned} no_rewriting={} compared_to_direct_evaluation={planned}",
        served.len() - planned
    );
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    report.set(
        "qps",
        latencies.len() as f64 / busy_s,
        &format!("{} requests in {busy_s:.3} busy s", latencies.len()),
    );
    if let (Some(p50), Some(p85)) = (percentile(&latencies, 0.5), percentile(&latencies, 0.85)) {
        println!("p50 = {} ms ({})", p50.value, p50.describe("p50"));
        report.set("tail_ms", p85.value, &p85.describe("p85"));
    }
}

#[derive(Default)]
struct Traced {
    requests: usize,
    parse: Duration,
    validate: Duration,
    run: Duration,
    stages: StageTimes,
    plan: Duration,
    rewritings_in: usize,
    execute: Duration,
    executed: usize,
    intermediate_rows: usize,
    rows_touched: usize,
    estimated: f64,
    measured: f64,
}

fn traced(
    opts: &Opts,
    report: &mut Report,
    s: &Setup,
    queries: &[ConjunctiveQuery],
    requests: &[(usize, usize)],
) {
    let mut sum = Traced::default();
    let mut first_pass = [0u64; 4];
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut pass = 0usize;
    while pass == 0 || Instant::now() < deadline {
        for &(c, k) in requests {
            report.attempt(1);
            let q = &queries[k];
            let (views, prepared) = &s.catalogs[c];
            let text = q.to_string();
            let (parsed, t) = timed(|| parse_query(&text));
            sum.parse += t;
            let Ok(parsed) = parsed else {
                report.check(false, || format!("query {k} does not re-parse"));
                continue;
            };
            let (valid, t) =
                timed(|| viewplan_analyze::validate_query_against_views(&parsed, views));
            sum.validate += t;
            report.check(valid.is_ok(), || format!("query {k} fails validation"));
            let (space, t_run) = timed(|| generate_space(q, prepared));
            sum.run += t_run;
            let (Ok(space), Ok(rep)) = (space, replay(q, prepared, THREADS, false, MAX_REWRITINGS))
            else {
                report.check(false, || format!("query {k} failed in CoreCover*"));
                continue;
            };
            sum.stages.add(&rep.times);
            let same = rep
                .rewritings
                .iter()
                .map(|r| r.to_string())
                .eq(space.rewritings().iter().map(|r| r.to_string()));
            report.check(same, || {
                format!("replay of query {k} differs from try_run_all_minimal")
            });
            sum.rewritings_in += space.rewritings().len();
            let (best, t) = timed(|| plan(q, views, s, space));
            sum.plan += t;
            sum.requests += 1;
            let best = match best {
                Ok(Some(b)) => b,
                Ok(None) => continue,
                Err(e) => {
                    report.check(false, || format!("query {k} failed M2 planning: {e}"));
                    continue;
                }
            };
            let (trace, t) = timed(|| execute(&best, s));
            sum.execute += t;
            let Ok(trace) = trace else {
                report.check(false, || {
                    format!("query {k}: chosen plan failed to execute")
                });
                continue;
            };
            sum.executed += 1;
            let intermediate: usize = trace.intermediate_sizes.iter().sum();
            sum.intermediate_rows += intermediate;
            sum.rows_touched += trace.cost();
            sum.estimated += best.cost;
            sum.measured += trace.cost() as f64;
            if pass == 0 {
                for (slot, v) in first_pass.iter_mut().zip([
                    trace.cost() as u64,
                    rep.rewritings.len() as u64,
                    rep.set_cover_nodes,
                    rep.view_tuples as u64,
                ]) {
                    *slot += v;
                }
            }
        }
        pass += 1;
    }
    let n = sum.requests.max(1) as f64;
    let per = |d: Duration| ms(d) / n;
    let st = &sum.stages;
    report.set("cq.parse_us", us(sum.parse) / n, "mean per request");
    report.set(
        "analyze.validate_us",
        us(sum.validate) / n,
        "mean per request",
    );
    report.set(
        "containment.minimize_us",
        us(st.minimize) / n,
        "mean per request",
    );
    report.set("core.prune_ms", per(st.prune), "mean per request");
    report.set(
        "core.view_tuples_ms",
        per(st.view_tuples),
        "mean per request",
    );
    report.set(
        "core.tuple_cores_ms",
        per(st.tuple_cores),
        "mean per request",
    );
    report.set("core.set_cover_ms", per(st.set_cover), "mean per request");
    report.set(
        "core.build_ms",
        per(st.build + st.verify),
        "mean per request",
    );
    report.set("core.dedup_ms", per(st.dedup), "mean per request");
    let unattributed = per(sum.run) - per(st.total());
    report.set(
        "core.unattributed_ms",
        unattributed,
        "mean CoreCover* time minus the replayed stages",
    );
    report.set(
        "cost.plan_ms",
        per(sum.plan),
        "mean M2 planning per request",
    );
    report.set(
        "cost.rewritings_in",
        sum.rewritings_in as f64 / n,
        "mean per request",
    );
    report.set(
        "cost.estimate_ratio",
        sum.estimated / sum.measured.max(1.0),
        "sum of estimated / sum of measured plan cost",
    );
    let executed = sum.executed.max(1) as f64;
    report.set(
        "engine.execute_ms",
        ms(sum.execute) / executed,
        "mean per executed plan",
    );
    report.set(
        "engine.intermediate_rows",
        sum.intermediate_rows as f64 / executed,
        "mean per executed plan",
    );
    report.set(
        "engine.rows_per_s",
        sum.rows_touched as f64 / sum.execute.as_secs_f64().max(1e-9),
        "view and intermediate rows per execution second",
    );
    let [plan_cost, rewritings, nodes, view_tuples] = first_pass;
    report.set(
        "cost.plan_cost",
        plan_cost as f64,
        "first pass, all queries",
    );
    let nq = requests.len() as f64;
    report.set(
        "core.rewritings",
        rewritings as f64 / nq,
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
    report.count("answer.plan_cost", plan_cost);
    report.count("core.rewritings", rewritings);
    report.count("core.set_cover_nodes", nodes);
    report.count("core.view_tuples", view_tuples);
    println!(
        "sum answer-chain: replayed stages {:.4} ms + unattributed {unattributed:.4} ms = CoreCover* {:.4} ms per request over {} requests, {} executed",
        per(st.total()),
        per(sum.run),
        sum.requests,
        sum.executed
    );
    let sample = &requests[..requests.len().min(8)];
    let overhead = crate::trace_overhead_pct(|| {
        for &(c, k) in sample {
            let _ = answer(&queries[k], c, s);
        }
    });
    report.set(
        "obs.trace_overhead_pct",
        overhead,
        "8 requests, obs on vs off",
    );
}
