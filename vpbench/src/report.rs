//! Metric names, result accounting and the final one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// A metric the benchmark reports: name, unit, direction, and what it
/// should move (per-layer) or how each workload measures it (end-to-end).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        about,
    }
}

/// Printed by every workload's untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("qps", "1/s", "higher", "rewrite-star, answer-chain: requests completed per busy second (closed loop); serve-mixed: ok answers within 10 ms of their due time per second at the high rate (goodput)"),
    m("tail_ms", "ms", "lower", "p90 on rewrite-star, p85 on answer-chain, p99 at the high rate on serve-mixed (ranks with >= 10 samples beyond them at the 20 s run length)"),
    m("setup_s", "s", "lower", "median of several set-ups in the run: catalog generation, PreparedViews, materialization, server start"),
    m("peak_rss_mb", "MB", "lower", "VmHWM of the workload's process"),
];

/// Printed by every workload's traced run (`--trace 1`). A layer a
/// workload bypasses reads 0 there. `about` names the end-to-end metric
/// and workload each one should move.
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "containment.minimize_us",
        "us",
        "lower",
        "qps on rewrite-star",
    ),
    m(
        "containment.checks",
        "count",
        "lower",
        "qps on rewrite-star (per request)",
    ),
    m("core.prune_ms", "ms", "lower", "qps on rewrite-star"),
    m(
        "core.view_tuples_ms",
        "ms",
        "lower",
        "qps and tail_ms on rewrite-star; ~0 on answer-chain",
    ),
    m(
        "core.tuple_cores_ms",
        "ms",
        "lower",
        "qps and tail_ms on rewrite-star; ~0 on answer-chain",
    ),
    m(
        "core.set_cover_ms",
        "ms",
        "lower",
        "qps and tail_ms on rewrite-star; ~0 on answer-chain",
    ),
    m(
        "core.build_ms",
        "ms",
        "lower",
        "qps and tail_ms on rewrite-star",
    ),
    m(
        "core.dedup_ms",
        "ms",
        "lower",
        "qps and tail_ms on rewrite-star; ~0 on answer-chain",
    ),
    m(
        "core.unattributed_ms",
        "ms",
        "lower",
        "try_run time minus the replayed stages; qps on rewrite-star",
    ),
    m(
        "core.set_cover_nodes",
        "count",
        "lower",
        "qps on rewrite-star; gated exactly",
    ),
    m("core.candidates", "count", "lower", "qps on rewrite-star"),
    m(
        "core.rewritings",
        "count",
        "higher",
        "gated exactly; must not change",
    ),
    m(
        "core.view_tuples",
        "count",
        "lower",
        "qps on rewrite-star; gated exactly",
    ),
    m(
        "core.representative_tuples",
        "count",
        "lower",
        "qps on rewrite-star",
    ),
    m(
        "core.dedup_yield",
        "ratio",
        "higher",
        "rewritings / candidates; qps on rewrite-star",
    ),
    m(
        "core.prepare_ms",
        "ms",
        "lower",
        "setup_s on rewrite-star and serve-mixed",
    ),
    m(
        "cost.plan_ms",
        "ms",
        "lower",
        "qps and tail_ms on answer-chain; ~0 on rewrite-star",
    ),
    m(
        "cost.rewritings_in",
        "count",
        "lower",
        "qps and tail_ms on answer-chain",
    ),
    m(
        "cost.estimate_ratio",
        "ratio",
        "lower",
        "estimated / measured cost of the chosen M2 plans; cost.plan_cost on answer-chain",
    ),
    m(
        "cost.plan_cost",
        "rows",
        "lower",
        "sum of ExecutionTrace::cost over one pass of answer-chain's queries; gated exactly",
    ),
    m(
        "engine.materialize_ms",
        "ms",
        "lower",
        "setup_s and peak_rss_mb on answer-chain",
    ),
    m(
        "engine.execute_ms",
        "ms",
        "lower",
        "qps and tail_ms on answer-chain",
    ),
    m(
        "engine.intermediate_rows",
        "rows",
        "lower",
        "qps and tail_ms on answer-chain (per request)",
    ),
    m(
        "engine.rows_per_s",
        "1/s",
        "higher",
        "qps and tail_ms on answer-chain",
    ),
    m(
        "cq.parse_us",
        "us",
        "lower",
        "serve.high_p50_ms and qps on serve-mixed",
    ),
    m(
        "analyze.validate_us",
        "us",
        "lower",
        "serve.high_p50_ms and qps on serve-mixed",
    ),
    m(
        "serve.canonicalize_us",
        "us",
        "lower",
        "serve.high_p50_ms and qps on serve-mixed",
    ),
    m(
        "serve.hit_us",
        "us",
        "lower",
        "serve.high_p50_ms and qps on serve-mixed",
    ),
    m(
        "serve.miss_ms",
        "ms",
        "lower",
        "tail_ms and qps on serve-mixed",
    ),
    m(
        "serve.render_us",
        "us",
        "lower",
        "serve.high_p50_ms and qps on serve-mixed",
    ),
    m(
        "serve.ddl_swap_ms",
        "ms",
        "lower",
        "serve.ddl_ack_ms on serve-mixed",
    ),
    m(
        "serve.invalidated_per_ddl",
        "count",
        "lower",
        "serve.hit_ratio and qps on serve-mixed; gated exactly",
    ),
    m(
        "serve.hit_ratio",
        "ratio",
        "higher",
        "serve.high_p50_ms and qps on serve-mixed",
    ),
    m("serve.shed", "count", "lower", "qps on serve-mixed"),
    m(
        "serve.high_p50_ms",
        "ms",
        "lower",
        "p50 at the high rate on serve-mixed (a cache hit)",
    ),
    m(
        "serve.low_p50_ms",
        "ms",
        "lower",
        "p50 at the low rate on serve-mixed",
    ),
    m(
        "serve.low_p99_ms",
        "ms",
        "lower",
        "p99 at the low rate on serve-mixed",
    ),
    m(
        "serve.ddl_ack_ms",
        "ms",
        "lower",
        "median add-view/drop-view acknowledgement on serve-mixed",
    ),
    m(
        "net.frame_us",
        "us",
        "lower",
        "serve.high_p50_ms and qps on serve-mixed",
    ),
    m(
        "net.overhead_us",
        "us",
        "lower",
        "serve.high_p50_ms and qps on serve-mixed",
    ),
    m(
        "net.accept_wait_ms",
        "ms",
        "lower",
        "tail_ms and qps on serve-mixed",
    ),
    m("net.ping_us", "us", "lower", "qps on serve-mixed"),
    m(
        "load.lateness_ms",
        "ms",
        "lower",
        "p99 send lateness of the load generator on serve-mixed; a validity check",
    ),
    m(
        "obs.trace_overhead_pct",
        "%",
        "lower",
        "traced against untraced time of the same requests, per workload",
    ),
];

/// One run's result: metrics, deterministic counts and the accounting of
/// operations attempted and failed.
pub struct Report {
    trace: bool,
    values: BTreeMap<&'static str, f64>,
    counts: BTreeMap<String, u64>,
    attempted: u64,
    failed: u64,
    failures_shown: usize,
}

impl Report {
    pub fn new(trace: bool) -> Report {
        let mut values = BTreeMap::new();
        if trace {
            // A layer the workload bypasses reads 0.
            for d in PER_LAYER {
                values.insert(d.name, 0.0);
            }
        }
        Report {
            trace,
            values,
            counts: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures_shown: 0,
        }
    }

    fn table(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records a metric of this run's table; `detail` is printed next to
    /// it (sample counts, percentile ranks).
    pub fn set(&mut self, name: &'static str, value: f64, detail: &str) {
        let def = self
            .table()
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this run's table"));
        println!(
            "{name} = {value} {} ({detail}) [{} is better; {}]",
            def.unit, def.better, def.about
        );
        self.values.insert(name, value);
    }

    /// Records a deterministic count: repeats exactly at a given seed and
    /// size, and is compared exactly by `--counts-against`.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }

    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts a failed correctness check against the operations attempted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            return;
        }
        self.failed += 1;
        if self.failures_shown < 5 {
            self.failures_shown += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Records `peak_rss_mb` at the end of the timed region, before the
    /// correctness checks add their own allocations.
    pub fn peak_rss(&mut self) {
        if !self.trace {
            self.set(
                "peak_rss_mb",
                crate::sys::peak_rss_mb(),
                "VmHWM at the end of the timed region",
            );
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The deterministic counts as a one-line JSON object.
    pub fn counts_json(&self) -> String {
        let body: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Compares this run's counts with a saved `counts_json` line; each
    /// difference is a failed check.
    pub fn check_counts_against(&mut self, saved: &str) {
        let parsed = match viewplan_obs::parse_json(saved.trim()) {
            Ok(json) => json,
            Err(e) => {
                self.check(false, || format!("saved counts are not JSON: {e}"));
                return;
            }
        };
        let saved_obj = match parsed {
            viewplan_obs::Json::Object(map) => map,
            _ => BTreeMap::new(),
        };
        let keys: std::collections::BTreeSet<String> = saved_obj
            .keys()
            .cloned()
            .chain(self.counts.keys().cloned())
            .collect();
        for k in keys {
            let old = saved_obj.get(&k).and_then(|j| j.as_u64());
            let new = self.counts.get(&k).copied();
            self.check(old == new, || {
                format!("deterministic count {k} changed: {old:?} -> {new:?}")
            });
        }
    }

    /// Prints the result line and returns the exit code: non-zero when
    /// any check failed or a metric of the table is missing or not finite.
    pub fn finish(mut self) -> ExitCode {
        println!("counts {}", self.counts_json());
        let mut metrics = String::new();
        let mut missing = Vec::new();
        for (i, d) in self.table().iter().enumerate() {
            let value = match self.values.get(d.name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    missing.push(d.name);
                    0.0
                }
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        for name in missing {
            self.check(false, || format!("metric {name} was not measured"));
        }
        self.attempted = self.attempted.max(1);
        let correct = self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_obs::{parse_json, Json};

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this table reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = match doc.get(key) {
                Some(Json::Array(items)) => items.clone(),
                other => panic!("{key} is not an array: {other:?}"),
            };
            let listed: Vec<(String, String, String)> = listed
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from report.rs");
        }
    }
}
