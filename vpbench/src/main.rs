//! The viewplan benchmark: one process runs one workload at one seed.
//!
//! ```text
//! cargo run --release --manifest-path vpbench/Cargo.toml -- \
//!     --workload rewrite-star|answer-chain|serve-mixed --seed N --seconds S --trace 0|1 \
//!     [--counts-out FILE] [--counts-against FILE]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with `viewplan_obs`
//! collection off; `--trace 1` turns collection on and times each layer
//! from this crate's own calls into the layer's public functions. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; every failed correctness check
//! makes the exit code non-zero. `METRICS.md` documents the workloads,
//! the metrics and what each per-layer metric should move.

mod answer;
mod replay;
mod report;
mod rewrite;
mod serve;
mod stats;
mod sys;

use report::Report;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A seed kept out of tuning, for held-out checks of later claims.
pub const HELD_OUT_SEED: u64 = 20_011;

const USAGE: &str = "usage: vpbench --workload rewrite-star|answer-chain|serve-mixed \
--seed N --seconds S --trace 0|1 [--counts-out FILE] [--counts-against FILE]";

/// One run's options.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs; only the benchmark's own tests set it.
    pub tiny: bool,
    pub counts_out: Option<String>,
    pub counts_against: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        counts_out: None,
        counts_against: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--counts-out" => opts.counts_out = Some(value),
            "--counts-against" => opts.counts_against = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["rewrite-star", "answer-chain", "serve-mixed"].contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    Ok(opts)
}

/// Runs `build` `n` times and keeps the last result, reporting the
/// median wall time in seconds. Each earlier result is dropped before the
/// next build starts, so peak memory holds one set-up.
pub fn setup_median<T>(n: usize, mut build: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    let median = stats::median(&times);
    (last.expect("at least one set-up ran"), median, times)
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time of `work` with `viewplan_obs` collection on against off, in
/// percent: the median of three alternating pairs. Leaves collection on.
pub fn trace_overhead_pct(mut work: impl FnMut()) -> f64 {
    let mut ratios = Vec::new();
    for _ in 0..3 {
        viewplan_obs::set_enabled(false);
        let (_, off) = timed(&mut work);
        viewplan_obs::set_enabled(true);
        let (_, on) = timed(&mut work);
        ratios.push(on.as_secs_f64() / off.as_secs_f64().max(1e-9));
    }
    (stats::median(&ratios) - 1.0) * 100.0
}

/// Runs one workload into a fresh report (no stamp, no result line).
pub fn run_workload(opts: &Opts) -> Report {
    let mut report = Report::new(opts.trace);
    viewplan_obs::set_enabled(opts.trace);
    match opts.workload.as_str() {
        "rewrite-star" => rewrite::run(opts, &mut report),
        "answer-chain" => answer::run(opts, &mut report),
        _ => serve::run(opts, &mut report),
    }
    viewplan_obs::set_enabled(false);
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "stamp workload={} seed={} held_out_seed={HELD_OUT_SEED} seconds={} trace={} nproc={} rev={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        sys::nproc(),
        sys::git_rev()
    );
    let mut report = run_workload(&opts);
    if let Some(path) = &opts.counts_against {
        match std::fs::read_to_string(path) {
            Ok(saved) => report.check_counts_against(&saved),
            Err(e) => report.check(false, || format!("cannot read {path}: {e}")),
        }
    }
    if let Some(path) = &opts.counts_out {
        if let Err(e) = std::fs::write(path, report.counts_json() + "\n") {
            report.check(false, || format!("cannot write {path}: {e}"));
        }
    }
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool, seed: u64) -> Opts {
        Opts {
            workload: workload.into(),
            seed,
            seconds: 0.5,
            trace,
            tiny: true,
            counts_out: None,
            counts_against: None,
        }
    }

    // One test runs every workload: the traced and untraced runs toggle
    // the process-global `viewplan_obs` switch, so they must not overlap.
    #[test]
    fn every_workload_passes_its_checks_at_tiny_size() {
        for workload in ["rewrite-star", "answer-chain", "serve-mixed"] {
            for trace in [false, true] {
                let report = run_workload(&tiny(workload, trace, 3));
                assert_eq!(
                    report.failed(),
                    0,
                    "{workload} trace={trace} failed a check"
                );
            }
            // Deterministic counts repeat exactly at the same seed.
            let a = run_workload(&tiny(workload, true, 5)).counts_json();
            let b = run_workload(&tiny(workload, true, 5)).counts_json();
            assert_eq!(a, b, "{workload} counts differ between runs");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload serve-mixed --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload serve-mixed --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve-mixed --seconds 0")).is_err());
        assert!(parse_args(&args("--workload serve-mixed --seed")).is_err());
    }
}
