//! An obviously-correct nested-loop evaluator: the differential oracle
//! for the engine's hash-join executor.
//!
//! Every combination of stored tuples is enumerated in body order and
//! checked for variable consistency directly — exponential in the body
//! and plainly right. Besides answers, the reference computes the sizes
//! an [`ExecutionTrace`] reports, from first principles:
//!
//! * for an ordered plan (cost model M2), the intermediate size after
//!   step `i` is the number of distinct bindings of the first `i + 1`
//!   subgoals;
//! * for an annotated plan (cost model M3), it is the number of distinct
//!   projections of those bindings onto the variables not yet dropped.
//!
//! The module is shared by the engine crate's `reference_eval.rs` and the
//! workspace's `differential_engines.rs` (via `#[path]`), so each suite
//! may use only part of it.
#![allow(dead_code)]

use std::collections::HashSet;
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term};
use viewplan_engine::{AnnotatedStep, Database, ExecutionTrace, Relation, Tuple, Value};

/// One consistent assignment of the variables bound so far.
type Binding = std::collections::HashMap<Symbol, Value>;

/// Every binding under which each of `atoms` matches a stored tuple, in
/// nested-loop order (outermost loop over the first atom). A missing
/// relation, or one stored at another arity, matches nothing.
pub fn bindings(atoms: &[Atom], db: &Database) -> Vec<Binding> {
    let mut out = vec![Binding::new()];
    for atom in atoms {
        let Some(rel) = db.get(atom.predicate) else {
            return Vec::new();
        };
        out = out
            .iter()
            .flat_map(|b| rel.iter().filter_map(move |t| extend(b, atom, t)))
            .collect();
    }
    out
}

/// `b` extended so that `atom` maps onto `tuple`, if consistent.
fn extend(b: &Binding, atom: &Atom, tuple: &[Value]) -> Option<Binding> {
    if tuple.len() != atom.arity() {
        return None;
    }
    let mut b = b.clone();
    for (term, &val) in atom.terms.iter().zip(tuple) {
        let ok = match *term {
            Term::Const(c) => Value::from_constant(c) == val,
            Term::Var(v) => *b.entry(v).or_insert(val) == val,
        };
        if !ok {
            return None;
        }
    }
    Some(b)
}

/// The head projection of every binding, first occurrence kept.
fn answer(head: &Atom, rows: &[Binding]) -> Relation {
    let mut out = Relation::new(head.arity());
    for b in rows {
        let tuple: Tuple = head
            .terms
            .iter()
            .map(|t| match *t {
                Term::Var(v) => b[&v],
                Term::Const(c) => Value::from_constant(c),
            })
            .collect();
        out.insert(tuple);
    }
    out
}

/// The answer of `q` over `db`.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Relation {
    answer(&q.head, &bindings(&q.body, db))
}

/// The trace of an ordered plan: every attribute retained.
pub fn execute_ordered(head: &Atom, body: &[Atom], db: &Database) -> ExecutionTrace {
    let steps: Vec<AnnotatedStep> = body
        .iter()
        .map(|a| AnnotatedStep {
            atom: a.clone(),
            drop_after: HashSet::new(),
        })
        .collect();
    execute_annotated(head, &steps, db)
}

/// The trace of an annotated plan. Assumes a valid plan: no step drops a
/// head variable or a variable a later step mentions.
pub fn execute_annotated(head: &Atom, steps: &[AnnotatedStep], db: &Database) -> ExecutionTrace {
    let atoms: Vec<Atom> = steps.iter().map(|s| s.atom.clone()).collect();
    let mut dropped: HashSet<Symbol> = HashSet::new();
    let mut intermediate_sizes = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        dropped.extend(step.drop_after.iter().copied());
        let mut kept: Vec<Symbol> = Vec::new();
        for v in atoms[..=i].iter().flat_map(Atom::variables) {
            if !dropped.contains(&v) && !kept.contains(&v) {
                kept.push(v);
            }
        }
        let distinct: HashSet<Vec<Value>> = bindings(&atoms[..=i], db)
            .iter()
            .map(|b| kept.iter().map(|v| b[v]).collect())
            .collect();
        intermediate_sizes.push(distinct.len());
    }
    ExecutionTrace {
        subgoal_sizes: steps
            .iter()
            .map(|s| db.get(s.atom.predicate).map_or(0, Relation::len))
            .collect(),
        intermediate_sizes,
        answer: answer(head, &bindings(&atoms, db)),
    }
}
