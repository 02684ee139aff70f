//! Differential testing of the hash-join executor against the naive
//! nested-loop reference in `reference/mod.rs`.
//!
//! On every randomly generated query and database the executor must
//! agree with the reference on answers and on every [`ExecutionTrace`]
//! size: distinct prefix bindings for ordered (M2) plans, distinct
//! projections onto the not-yet-dropped variables for annotated (M3)
//! plans.

mod reference;

use proptest::prelude::*;
use std::collections::HashSet;
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term};
use viewplan_engine::{
    evaluate, execute_annotated, execute_ordered, AnnotatedStep, Database, ExecutionTrace, Value,
};

/// Strategy: a small random query over ≤ 3 binary/ternary predicates with
/// shared variables and occasional constants. The head keeps the first
/// `keep` of the body's variables (all of them when `keep` is large).
fn arb_query_keeping(
    keep: impl Strategy<Value = usize>,
) -> impl Strategy<Value = ConjunctiveQuery> {
    let term = prop_oneof![
        5 => (0..4usize).prop_map(|i| Term::var(&format!("V{i}"))),
        1 => (0..3i64).prop_map(Term::int),
    ];
    let atom = ((0..3usize), prop::collection::vec(term, 1..=3))
        .prop_map(|(p, ts)| Atom::new(format!("rel{}_{}", p, ts.len()).as_str(), ts));
    (prop::collection::vec(atom, 1..=4), keep).prop_map(|(body, keep)| {
        let mut vars: Vec<Symbol> = Vec::new();
        for a in &body {
            for v in a.variables() {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        }
        let head_terms: Vec<Term> = vars.into_iter().take(keep).map(Term::Var).collect();
        ConjunctiveQuery::new(Atom::new("out", head_terms), body)
    })
}

fn arb_query() -> impl Strategy<Value = ConjunctiveQuery> {
    arb_query_keeping(Just(usize::MAX))
}

/// Strategy: a database assigning 0–8 random rows to each predicate the
/// query mentions.
fn arb_db(q: &ConjunctiveQuery) -> impl Strategy<Value = Database> {
    let preds: Vec<(Symbol, usize)> = {
        let mut seen = HashSet::new();
        q.body
            .iter()
            .filter(|a| seen.insert(a.predicate))
            .map(|a| (a.predicate, a.arity()))
            .collect()
    };
    let tables: Vec<_> = preds
        .into_iter()
        .map(|(name, arity)| {
            prop::collection::vec(prop::collection::vec(0i64..4, arity), 0..8)
                .prop_map(move |rows| (name, rows))
        })
        .collect();
    tables.prop_map(|tables| {
        let mut db = Database::new();
        for (name, rows) in tables {
            for row in rows {
                db.insert(name, row.into_iter().map(Value::Int).collect());
            }
        }
        db
    })
}

/// An M3 plan over `q`'s body in body order: after each step, drop the
/// variables `mask` selects among those that are not in the head and
/// that no later step mentions — the drops a valid plan may make.
fn annotate(q: &ConjunctiveQuery, mask: u64) -> Vec<AnnotatedStep> {
    let head: HashSet<Symbol> = q.head.variables().collect();
    let mut dropped: HashSet<Symbol> = HashSet::new();
    let mut bit = 0;
    let mut steps = Vec::with_capacity(q.body.len());
    for (i, atom) in q.body.iter().enumerate() {
        let later: HashSet<Symbol> = q.body[i + 1..].iter().flat_map(Atom::variables).collect();
        let mut drop_after = HashSet::new();
        for v in q.body[..=i].iter().flat_map(Atom::variables) {
            if head.contains(&v) || later.contains(&v) || dropped.contains(&v) {
                continue;
            }
            if mask >> (bit % 64) & 1 == 1 {
                drop_after.insert(v);
                dropped.insert(v);
            }
            bit += 1;
        }
        steps.push(AnnotatedStep {
            atom: atom.clone(),
            drop_after,
        });
    }
    steps
}

fn sizes(t: &ExecutionTrace) -> (&[usize], &[usize]) {
    (&t.subgoal_sizes, &t.intermediate_sizes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hash_join_matches_nested_loop(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q);
            (Just(q), db)
        })
    ) {
        let fast = evaluate(&q, &db);
        let slow = reference::evaluate(&q, &db);
        prop_assert_eq!(fast, slow);
    }

    /// Ordered (M2) plans: per-step sizes equal the reference's distinct
    /// prefix bindings, and the answer matches row for row — probe-major
    /// join output is exactly nested-loop order.
    #[test]
    fn ordered_trace_matches_nested_loop(
        (q, db) in arb_query().prop_flat_map(|q| {
            let db = arb_db(&q);
            (Just(q), db)
        })
    ) {
        let fast = execute_ordered(&q.head, &q.body, &db);
        let slow = reference::execute_ordered(&q.head, &q.body, &db);
        prop_assert_eq!(sizes(&fast), sizes(&slow));
        prop_assert_eq!(fast.answer.as_slice(), slow.answer.as_slice());
    }

    /// Annotated (M3) plans: per-step GSR sizes equal the reference's
    /// distinct projections onto the variables not yet dropped, and the
    /// answers agree as sets.
    #[test]
    fn annotated_trace_matches_nested_loop(
        (q, db, mask) in arb_query_keeping(0..4usize).prop_flat_map(|q| {
            let db = arb_db(&q);
            (Just(q), db, any::<u64>())
        })
    ) {
        let steps = annotate(&q, mask);
        let fast = execute_annotated(&q.head, &steps, &db);
        let slow = reference::execute_annotated(&q.head, &steps, &db);
        prop_assert_eq!(fast, slow);
    }
}

#[test]
fn reference_sanity() {
    // The reference itself on a known case.
    let q = viewplan_cq::parse_query("out(X, Z) :- e(X, Y), e(Y, Z)").unwrap();
    let mut db = Database::new();
    db.insert_int("e", &[&[1, 2], &[2, 3]]);
    let r = reference::evaluate(&q, &db);
    assert_eq!(r.len(), 1);
    assert!(r.contains(&[Value::Int(1), Value::Int(3)]));
    // Two chain steps: e has 2 rows, the 2-chain 1 binding.
    let trace = reference::execute_ordered(&q.head, &q.body, &db);
    assert_eq!(trace.subgoal_sizes, [2, 2]);
    assert_eq!(trace.intermediate_sizes, [2, 1]);
}

/// Example 6.1's winning M3 plan, from the reference: after `v1(A, B)`
/// drop `B`, so GSR₁ holds one tuple, not four.
#[test]
fn reference_counts_gsr_projections() {
    let mut db = Database::new();
    db.insert_int("v1", &[&[1, 2], &[1, 4], &[1, 6], &[1, 8]]);
    db.insert_int("v2", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
    let q = viewplan_cq::parse_query("q(A) :- v1(A, B), v2(A, C)").unwrap();
    let steps = annotate(&q, u64::MAX);
    assert_eq!(
        steps[0].drop_after,
        [Symbol::new("B")].into_iter().collect()
    );
    let trace = reference::execute_annotated(&q.head, &steps, &db);
    assert_eq!(trace.intermediate_sizes, [1, 1]);
    assert_eq!(trace, execute_annotated(&q.head, &steps, &db));
}
