//! Differential testing of the hash-join executor against the
//! nested-loop reference engine shared with the engine crate's
//! `reference_eval.rs` suite (which holds the random-query proptests):
//! answers and full [`viewplan::engine::ExecutionTrace`]s must agree on
//! optimizer-chosen plans, empty and missing relations, and self-joins.
//! Served renders must be byte-identical at thread counts 1 and 8, with
//! and without node budgets.
//!
//! The second half holds regression tests for the three error-path
//! bugfixes:
//!
//! 1. an unsafe head query (head variable never bound by the body) is a
//!    typed [`EngineError::UnboundHeadVariable`], and exits the CLI
//!    with code 2 instead of panicking;
//! 2. a subgoal whose arity disagrees with the stored relation counts
//!    its skipped tuples in `engine.arity_mismatch_skips` instead of
//!    silently returning an empty join;
//! 3. re-registering a relation at a conflicting arity is a typed
//!    [`EngineError::ArityConflict`] from `Database::try_get_or_create`
//!    / `try_insert`, and a bad fact file exits the CLI with code 2.

#[path = "../crates/engine/tests/reference/mod.rs"]
mod reference;

use std::process::Command;
use viewplan::obs::BudgetSpec;
use viewplan::prelude::*;

/// Evaluates `q` and executes its body in order, asserting both agree
/// with the nested-loop reference (trace sizes and answer row order
/// included). Returns the answer rows.
fn matches_reference(q: &ConjunctiveQuery, db: &Database) -> Vec<Vec<Value>> {
    let answer = evaluate(q, db);
    assert_eq!(answer, reference::evaluate(q, db), "answer diverged on {q}");
    let trace = execute_ordered(&q.head, &q.body, db);
    let expected = reference::execute_ordered(&q.head, &q.body, db);
    assert_eq!(trace, expected, "trace diverged on {q}");
    assert_eq!(trace.answer.as_slice(), expected.answer.as_slice());
    assert_eq!(trace.answer, answer);
    answer.as_slice().to_vec()
}

// ---------------------------------------------------------------------
// Workload-scale: the full pipeline (CoreCover over canonical databases,
// M1 planning, serving) at thread counts 1 and 8, with and without node
// budgets.

fn served_renders(
    views: &ViewSet,
    stream: &[ConjunctiveQuery],
    threads: usize,
    budget: BudgetSpec,
) -> Vec<String> {
    let server = BatchServer::with_config(
        views,
        ServeConfig {
            budget,
            ..ServeConfig::default()
        },
    );
    server
        .serve_batch(stream, threads)
        .into_iter()
        .map(|r| match r {
            Ok(a) => a.render(),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

#[test]
fn served_renders_agree_across_threads_and_budgets() {
    for (shape, seed) in [(0usize, 11u64), (1, 23), (2, 47)] {
        let make = match shape {
            0 => WorkloadConfig::star,
            1 => WorkloadConfig::chain,
            _ => WorkloadConfig::random,
        };
        let views = generate(&make(10, 1, seed)).views;
        let stream: Vec<ConjunctiveQuery> = (0..4)
            .map(|i| generate(&make(10, 1, seed + i as u64)).query)
            .collect();
        for budget in [BudgetSpec::new(), BudgetSpec::new().node_budget(500)] {
            let serial = served_renders(&views, &stream, 1, budget);
            let parallel = served_renders(&views, &stream, 8, budget);
            assert_eq!(
                serial, parallel,
                "8 threads diverged from 1 (shape {shape}, seed {seed})"
            );
        }
    }
}

/// Optimizer-chosen plans over a random view database (the M2/M3
/// ground-truth costing path) execute to the reference trace.
#[test]
fn engines_agree_on_optimized_plan_traces() {
    for seed in [3u64, 9, 27] {
        let w = generate(&WorkloadConfig::chain(12, 0, seed));
        let mut base = Database::new();
        // Keep the chain joins small: the M2 exact oracle *executes*
        // every DP subset, so intermediate sizes grow like
        // rows·(rows/domain)^k.
        for (name, rows) in random_database(&w.query, 12, 12, seed) {
            for row in rows {
                base.insert(name, row.into_iter().map(Value::Int).collect());
            }
        }
        let vdb = materialize_views(&w.views, &base);
        let mut oracle = ExactOracle::new(&vdb);
        let Some(best) = Optimizer::new(&w.query, &w.views).best_plan(CostModel::M2, &mut oracle)
        else {
            continue;
        };
        let trace = best
            .plan
            .try_execute(&best.rewriting.head, &vdb)
            .expect("optimizer plans never drop head variables");
        let expected = reference::execute_annotated(&best.rewriting.head, &best.plan.steps, &vdb);
        assert_eq!(trace, expected, "seed {seed}: plan trace diverged");
    }
}

/// An empty (or entirely absent) relation empties the join.
#[test]
fn engines_agree_with_empty_and_missing_relations() {
    let q = parse_query("q(X, Z) :- e(X, Y), f(Y, Z)").unwrap();
    // `f` registered but empty.
    let mut db = Database::new();
    db.insert_int("e", &[&[1, 2], &[3, 4]]);
    db.set("f".into(), viewplan::engine::Relation::new(2));
    assert!(matches_reference(&q, &db).is_empty());
    // `f` missing entirely.
    let mut db = Database::new();
    db.insert_int("e", &[&[1, 2]]);
    assert!(matches_reference(&q, &db).is_empty());
}

/// Self-joins: both atoms read the same stored relation.
#[test]
fn engines_agree_on_self_joins() {
    let q = parse_query("q(X, Z) :- e(X, Y), e(Y, Z)").unwrap();
    let mut db = Database::new();
    // 1→2→3 chains; 7→8 dangles (no successor, no predecessor).
    db.insert_int("e", &[&[1, 2], &[2, 3], &[7, 8]]);
    let answer = matches_reference(&q, &db);
    assert_eq!(answer.len(), 1, "only 1→2→3 completes the 2-chain");
}

// ---------------------------------------------------------------------
// Regression tests for the three error-path bugfixes.

/// Bugfix 1 (engine): a head variable the body never binds is a typed
/// error, not an `expect` panic.
#[test]
fn unbound_head_variable_is_a_typed_error() {
    let parsed = parse_query("q(A) :- r(A, B)").unwrap();
    let unsafe_q = ConjunctiveQuery::new(Atom::new("q", vec![Term::var("Z")]), parsed.body);
    let mut db = Database::new();
    db.insert_int("r", &[&[1, 2]]);
    let err = try_evaluate(&unsafe_q, &db).unwrap_err();
    assert!(
        matches!(err, EngineError::UnboundHeadVariable { .. }),
        "expected UnboundHeadVariable, got {err}"
    );
}

/// Bugfix 1 (CLI): an unsafe head query is an input error — exit 2 with
/// a diagnostic, never a panic (exit 101) or an internal error (exit 1).
#[test]
fn unsafe_head_query_exits_2() {
    let path = std::env::temp_dir().join("viewplan_diff_unsafe.vp");
    std::fs::write(&path, "q(X) :- r(A, B).\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .args(["eval", path.to_str().unwrap()])
        .output()
        .expect("failed to spawn viewplan");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unsafe") || stderr.contains("head variable"),
        "stderr should explain the unsafe head: {stderr}"
    );
}

/// Bugfix 2: a subgoal whose arity disagrees with the stored relation
/// counts every skipped tuple in `engine.arity_mismatch_skips` (and
/// still evaluates to the empty answer) instead of skipping silently.
#[test]
fn arity_mismatch_increments_counter() {
    viewplan::obs::set_enabled(true);
    let q = parse_query("q(X) :- r(X, Y, Z)").unwrap();
    let mut db = Database::new();
    db.insert_int("r", &[&[1, 2], &[3, 4], &[5, 6]]); // stored arity 2, used with 3
    let before = viewplan::obs::counter_value("engine.arity_mismatch_skips");
    let answer = evaluate(&q, &db);
    assert!(answer.is_empty());
    let after = viewplan::obs::counter_value("engine.arity_mismatch_skips");
    // `>=` because other tests share the process-global metrics registry.
    assert!(
        after >= before + 3,
        "expected +3 skips, counter went {before} -> {after}"
    );
}

/// Bugfix 3 (API): re-registering a relation at a different arity is a
/// typed error, not a silently reused wrong-arity relation.
#[test]
fn arity_conflict_is_a_typed_error() {
    let mut db = Database::new();
    assert!(db
        .try_insert("r", vec![Value::Int(1), Value::Int(2)])
        .unwrap());
    let err = db.try_insert("r", vec![Value::Int(1)]).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::ArityConflict {
                existing: 2,
                requested: 1,
                ..
            }
        ),
        "expected ArityConflict, got {err}"
    );
    // The original relation is untouched.
    assert_eq!(db.get("r".into()).map(|r| r.len()), Some(1));
}

/// Bugfix 3 (CLI): a fact file whose facts disagree on a predicate's
/// arity exits 2 with a diagnostic naming the arity conflict.
#[test]
fn conflicting_fact_arity_exits_2() {
    let path = std::env::temp_dir().join("viewplan_diff_arity.vp");
    std::fs::write(&path, "q(X) :- r(X, Y).\nr(1, 2).\nr(1, 2, 3).\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_viewplan"))
        .args(["eval", path.to_str().unwrap()])
        .output()
        .expect("failed to spawn viewplan");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("arity"),
        "stderr should name the arity conflict: {stderr}"
    );
}
