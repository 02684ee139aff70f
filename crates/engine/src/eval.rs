//! Conjunctive-query evaluation by multiway hash join.
//!
//! Evaluation maintains a *bindings table*: an ordered variable schema plus
//! a set of distinct rows. Each step hash-joins the table with the next
//! subgoal's relation; constants and repeated variables inside a subgoal
//! act as selections. Because all variables are retained and inputs are
//! sets, rows stay distinct without re-deduplication — except in
//! [`execute_annotated`] plans, where dropping attributes (cost model M3)
//! can merge rows and the table is re-deduplicated.
//!
//! The bindings table is the columnar batch executor's
//! `ColumnarBindings`; this module holds the loops that fold a
//! body through it. The nested-loop reference in the crate's
//! `tests/reference/` is the differential oracle for both the answers
//! and the [`ExecutionTrace`] sizes.

use crate::batch::ColumnarBindings;
use crate::database::Database;
use crate::error::EngineError;
use crate::relation::Relation;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term};
use viewplan_obs as obs;

/// The sole panic site for the documented-`# Panics` wrappers around the
/// fallible entry points.
pub(crate) fn engine_panic(e: EngineError) -> ! {
    panic!("{e}")
}

/// Counter funnel for one hash-join step, so the metric names register at
/// a single site.
pub(crate) fn note_join(probe_rows: usize, out_rows: usize) {
    obs::counter!("engine.joins").incr();
    obs::counter!("engine.join_probes").add(probe_rows as u64);
    obs::histogram!("engine.intermediate_rows").record(out_rows as u64);
}

/// Records tuples skipped because the stored relation's arity differs from
/// the subgoal's (a schema violation that would otherwise vanish silently).
/// Called with 0 on clean joins so the counter always exists in snapshots.
pub(crate) fn note_arity_mismatch(skipped: usize) {
    obs::counter!("engine.arity_mismatch_skips").add(skipped as u64);
}

/// Records the generalized-supplementary-relation size after one annotated
/// step.
pub(crate) fn note_gsr(rows: usize) {
    obs::histogram!("engine.gsr_rows").record(rows as u64);
}

/// How each argument position of the current subgoal relates to the
/// bindings table.
pub(crate) enum Slot {
    /// Must equal this constant.
    Fixed(Value),
    /// Must equal the value in this bindings column.
    Bound(usize),
    /// First occurrence of a new variable: extend the schema.
    New(Symbol),
    /// Repeated occurrence of a new variable first seen at this earlier
    /// position of the same atom.
    SameAs(usize),
}

pub(crate) fn plan_slots(atom: &Atom, vars: &[Symbol]) -> Vec<Slot> {
    let mut slots = Vec::with_capacity(atom.arity());
    let mut local: HashMap<Symbol, usize> = HashMap::new();
    for (i, t) in atom.terms.iter().enumerate() {
        let slot = match *t {
            Term::Const(c) => Slot::Fixed(Value::from_constant(c)),
            Term::Var(v) => {
                if let Some(col) = vars.iter().position(|&x| x == v) {
                    Slot::Bound(col)
                } else if let Some(&pos) = local.get(&v) {
                    Slot::SameAs(pos)
                } else {
                    local.insert(v, i);
                    Slot::New(v)
                }
            }
        };
        slots.push(slot);
    }
    slots
}

/// Maps each head term to either a bindings column or a constant, failing
/// on head variables the plan never bound (unsafe queries).
pub(crate) fn head_columns(
    head: &Atom,
    vars: &[Symbol],
) -> Result<Vec<Result<usize, Value>>, EngineError> {
    head.terms
        .iter()
        .map(|t| match *t {
            Term::Var(v) => match vars.iter().position(|&x| x == v) {
                Some(col) => Ok(Ok(col)),
                None => Err(EngineError::UnboundHeadVariable { var: v }),
            },
            Term::Const(c) => Ok(Err(Value::from_constant(c))),
        })
        .collect()
}

/// Evaluates a conjunctive query over a database, returning the distinct
/// answer relation. Subgoals are joined in a greedy order (smallest
/// relation first, then most-connected) purely as an internal heuristic —
/// the answer is order-independent.
pub fn try_evaluate(q: &ConjunctiveQuery, db: &Database) -> Result<Relation, EngineError> {
    obs::counter!("engine.evaluations").incr();
    let mut table = ColumnarBindings::unit();
    for idx in greedy_order(&q.body, db) {
        table = table.join(&q.body[idx], db);
        if table.row_count() == 0 {
            break;
        }
    }
    table.project_head(&q.head)
}

/// Infallible twin of [`try_evaluate`] for pre-validated queries.
///
/// # Panics
/// Panics if a head variable is not bound by any body subgoal (the query
/// is unsafe) and the join result is nonempty.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Relation {
    match try_evaluate(q, db) {
        Ok(rel) => rel,
        Err(e) => engine_panic(e),
    }
}

/// Greedy join order: start from the smallest relation; repeatedly take the
/// subgoal sharing a variable with the bound set (smallest relation on
/// ties), falling back to the smallest unconnected subgoal (Cartesian
/// product) when the query is disconnected.
fn greedy_order(body: &[Atom], db: &Database) -> Vec<usize> {
    let size = |a: &Atom| db.get(a.predicate).map_or(0, Relation::len);
    let mut remaining: Vec<usize> = (0..body.len()).collect();
    let mut order = Vec::with_capacity(body.len());
    let mut bound: HashSet<Symbol> = HashSet::new();
    while !remaining.is_empty() {
        let Some(pick) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| {
                let connected = body[i].variables().any(|v| bound.contains(&v));
                // Connected subgoals first (0 beats 1), then by size.
                (
                    if connected || order.is_empty() { 0 } else { 1 },
                    size(&body[i]),
                )
            })
            .map(|(pos, _)| pos)
        else {
            break;
        };
        let i = remaining.swap_remove(pick);
        bound.extend(body[i].variables());
        order.push(i);
    }
    order
}

/// The record of executing a physical plan: per-step view-relation sizes
/// and intermediate-relation sizes, plus the final answer.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionTrace {
    /// `size(g_i)` for each subgoal, in execution order.
    pub subgoal_sizes: Vec<usize>,
    /// `size(IR_i)` (or `size(GSR_i)` for annotated plans) after each step.
    pub intermediate_sizes: Vec<usize>,
    /// The final answer, projected on the head.
    pub answer: Relation,
}

impl ExecutionTrace {
    /// The M2-style cost of this execution:
    /// `Σ (size(g_i) + size(IR_i))` (Table 1).
    pub fn cost(&self) -> usize {
        self.subgoal_sizes.iter().sum::<usize>() + self.intermediate_sizes.iter().sum::<usize>()
    }
}

/// Executes the body subgoals in exactly the given order, with all
/// attributes retained — the physical plans of cost model M2. Records
/// `size(g_i)` and `size(IR_i)` for each step.
pub fn try_execute_ordered(
    head: &Atom,
    body: &[Atom],
    db: &Database,
) -> Result<ExecutionTrace, EngineError> {
    let steps: Vec<AnnotatedStep> = body
        .iter()
        .map(|a| AnnotatedStep {
            atom: a.clone(),
            drop_after: HashSet::new(),
        })
        .collect();
    try_execute_annotated(head, &steps, db)
}

/// Infallible twin of [`try_execute_ordered`] for pre-validated plans.
///
/// # Panics
/// Panics if a head variable is not bound by any subgoal and the join
/// result is nonempty.
pub fn execute_ordered(head: &Atom, body: &[Atom], db: &Database) -> ExecutionTrace {
    match try_execute_ordered(head, body, db) {
        Ok(trace) => trace,
        Err(e) => engine_panic(e),
    }
}

/// One step of an M3 physical plan: a subgoal and the attributes to drop
/// after it is processed (the `X_i` annotation of §2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnnotatedStep {
    /// The subgoal joined at this step.
    pub atom: Atom,
    /// Variables projected away after this step.
    pub drop_after: HashSet<Symbol>,
}

/// Executes an annotated plan (cost model M3): joins each step's subgoal,
/// then projects away its `drop_after` variables and re-deduplicates. The
/// recorded intermediate sizes are the generalized-supplementary-relation
/// sizes `size(GSR_i)`.
///
/// Fails with [`EngineError::HeadVariableDropped`] if a step drops a head
/// variable (the plan can no longer compute the answer) and with
/// [`EngineError::UnboundHeadVariable`] if a nonempty result reaches a
/// head variable no subgoal ever bound.
pub fn try_execute_annotated(
    head: &Atom,
    steps: &[AnnotatedStep],
    db: &Database,
) -> Result<ExecutionTrace, EngineError> {
    let _span = obs::span("engine.execute_plan");
    let mut table = ColumnarBindings::unit();
    let mut subgoal_sizes = Vec::with_capacity(steps.len());
    let mut intermediate_sizes = Vec::with_capacity(steps.len());
    for step in steps {
        subgoal_sizes.push(db.get(step.atom.predicate).map_or(0, Relation::len));
        table = table.join(&step.atom, db);
        if !step.drop_after.is_empty() {
            // Scan head terms (not the drop set) so the reported variable
            // is deterministic.
            if let Some(var) = head
                .terms
                .iter()
                .find_map(|t| t.as_var().filter(|v| step.drop_after.contains(v)))
            {
                return Err(EngineError::HeadVariableDropped { var });
            }
            table = table.project_away(&step.drop_after);
        }
        note_gsr(table.row_count());
        intermediate_sizes.push(table.row_count());
    }
    Ok(ExecutionTrace {
        subgoal_sizes,
        intermediate_sizes,
        answer: table.project_head(head)?,
    })
}

/// Infallible twin of [`try_execute_annotated`] for pre-validated plans.
///
/// # Panics
/// Panics if a head variable is dropped before the end, or never bound —
/// such a plan cannot compute the query answer and is a planner bug.
pub fn execute_annotated(head: &Atom, steps: &[AnnotatedStep], db: &Database) -> ExecutionTrace {
    match try_execute_annotated(head, steps, db) {
        Ok(trace) => trace,
        Err(e) => engine_panic(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_cq::parse_query;

    fn figure5_db() -> Database {
        // The base relations of Figure 5 / Example 6.1.
        let mut db = Database::new();
        db.insert_int("r", &[&[1, 1], &[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
        db.insert_int("s", &[&[2, 2], &[4, 4], &[6, 6], &[8, 8]]);
        db.insert_int("t", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        db
    }

    #[test]
    fn evaluates_single_subgoal_with_selection() {
        let db = figure5_db();
        let q = parse_query("q(X) :- r(X, X)").unwrap();
        assert_eq!(evaluate(&q, &db).len(), 5);
        let q2 = parse_query("q(Y) :- t(1, Y)").unwrap();
        let ans = evaluate(&q2, &db);
        assert_eq!(ans.as_slice(), [vec![Value::Int(2)]]);
    }

    #[test]
    fn evaluates_join() {
        let db = figure5_db();
        // t(A,B), s(B,B): pairs where t's target is an s self-loop.
        let q = parse_query("q(A, B) :- t(A, B), s(B, B)").unwrap();
        let ans = evaluate(&q, &db);
        assert_eq!(ans.len(), 4);
        assert!(ans.contains(&[Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn example61_answer() {
        // Q: q(A) :- r(A,A), t(A,B), s(B,B) over Figure 5 gives A ∈ {1}.
        let db = figure5_db();
        let q = parse_query("q(A) :- r(A, A), t(A, B), s(B, B)").unwrap();
        let ans = evaluate(&q, &db);
        assert_eq!(ans.as_slice(), [vec![Value::Int(1)]]);
    }

    #[test]
    fn missing_relation_gives_empty_answer() {
        let db = figure5_db();
        let q = parse_query("q(X) :- nope(X, X)").unwrap();
        assert!(evaluate(&q, &db).is_empty());
    }

    #[test]
    fn cartesian_product_when_disconnected() {
        let db = figure5_db();
        let q = parse_query("q(A, B) :- r(A, A), s(B, B)").unwrap();
        assert_eq!(evaluate(&q, &db).len(), 20);
    }

    #[test]
    fn constants_in_head_are_emitted() {
        let db = figure5_db();
        let q = parse_query("q(7, X) :- r(X, X)").unwrap();
        let ans = evaluate(&q, &db);
        assert!(ans.iter().all(|t| t[0] == Value::Int(7)));
    }

    #[test]
    fn duplicate_answers_are_collapsed() {
        let db = figure5_db();
        // Project t onto its first column twice over: still 4 tuples, but
        // project to a single column with collisions across B.
        let q = parse_query("q(B) :- t(A, B)").unwrap();
        assert_eq!(evaluate(&q, &db).len(), 4);
        let q2 = parse_query("q() :- t(A, B)").unwrap();
        assert_eq!(evaluate(&q2, &db).len(), 1);
    }

    #[test]
    fn symbolic_join_exercises_dictionary_columns() {
        let mut db = Database::new();
        db.insert_sym("car", &[&["honda", "anderson"], &["bmw", "smith"]]);
        db.insert_sym("loc", &[&["anderson", "palo_alto"], &["smith", "mp"]]);
        let q = parse_query("q(M, C) :- car(M, P), loc(P, C)").unwrap();
        let ans = evaluate(&q, &db);
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[Value::sym("honda"), Value::sym("palo_alto")]));
    }

    #[test]
    fn execute_ordered_reports_intermediate_sizes() {
        let db = figure5_db();
        let q = parse_query("q(A) :- r(A, A), t(A, B), s(B, B)").unwrap();
        let trace = execute_ordered(&q.head, &q.body, &db);
        assert_eq!(trace.subgoal_sizes, [5, 4, 4]);
        // IR1 = r self-loops: 5; IR2 = r ⋈ t on A: {1}×{(1,2)} → (1,2); also
        // (2,?) t(2,..)? t has no first-col 2 → just (1,2). Wait: r pairs are
        // (1..8 evens +1); t first columns are odd {1,3,5,7} so only A=1.
        assert_eq!(trace.intermediate_sizes[0], 5);
        assert_eq!(trace.intermediate_sizes[1], 1);
        assert_eq!(trace.intermediate_sizes[2], 1);
        assert_eq!(trace.answer.as_slice(), [vec![Value::Int(1)]]);
        assert_eq!(trace.cost(), 5 + 4 + 4 + 5 + 1 + 1);
    }

    #[test]
    fn execute_annotated_drops_attributes() {
        // Example 6.1's winning plan: after v1(A,B), drop B.
        let mut db = Database::new();
        db.insert_int("v1", &[&[1, 2], &[1, 4], &[1, 6], &[1, 8]]);
        db.insert_int("v2", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let q = parse_query("q(A) :- v1(A, B), v2(A, C)").unwrap();
        let drop_b: HashSet<Symbol> = [Symbol::new("B")].into_iter().collect();
        let steps = vec![
            AnnotatedStep {
                atom: q.body[0].clone(),
                drop_after: drop_b,
            },
            AnnotatedStep {
                atom: q.body[1].clone(),
                drop_after: [Symbol::new("C")].into_iter().collect(),
            },
        ];
        let trace = execute_annotated(&q.head, &steps, &db);
        // GSR1 = {1} (B dropped) — the paper's point: one tuple, not four.
        assert_eq!(trace.intermediate_sizes[0], 1);
        assert_eq!(trace.answer.as_slice(), [vec![Value::Int(1)]]);
    }

    #[test]
    fn dropping_head_variable_is_a_typed_error() {
        let mut db = Database::new();
        db.insert_int("v1", &[&[1, 2]]);
        let q = parse_query("q(A) :- v1(A, B)").unwrap();
        let steps = vec![AnnotatedStep {
            atom: q.body[0].clone(),
            drop_after: [Symbol::new("A")].into_iter().collect(),
        }];
        let err = try_execute_annotated(&q.head, &steps, &db);
        assert_eq!(
            err,
            Err(EngineError::HeadVariableDropped {
                var: Symbol::new("A")
            })
        );
    }

    #[test]
    #[should_panic(expected = "head variable")]
    fn dropping_head_variable_panics() {
        let mut db = Database::new();
        db.insert_int("v1", &[&[1, 2]]);
        let q = parse_query("q(A) :- v1(A, B)").unwrap();
        let steps = vec![AnnotatedStep {
            atom: q.body[0].clone(),
            drop_after: [Symbol::new("A")].into_iter().collect(),
        }];
        execute_annotated(&q.head, &steps, &db);
    }

    /// An unsafe query (head variable absent from the body). The parser
    /// rejects these, but programmatic callers can hand them to the
    /// engine directly.
    fn unsafe_query(body: &str) -> ConjunctiveQuery {
        let parsed = parse_query(&format!("q(A) :- {body}")).unwrap();
        ConjunctiveQuery::new(Atom::new("q", vec![Term::var("X")]), parsed.body)
    }

    #[test]
    fn unbound_head_variable_is_a_typed_error() {
        let db = figure5_db();
        // X never occurs in the body: unsafe. The body is satisfiable, so
        // the error fires (with an empty body relation it would not).
        let q = unsafe_query("r(A, A)");
        let err = try_evaluate(&q, &db);
        assert_eq!(
            err,
            Err(EngineError::UnboundHeadVariable {
                var: Symbol::new("X")
            })
        );
    }

    #[test]
    fn unbound_head_variable_over_empty_body_is_empty() {
        // The join stops empty before the head is consulted — the answer
        // is empty regardless, so no error.
        let db = Database::new();
        let q = unsafe_query("nope(A, A)");
        let ans = try_evaluate(&q, &db);
        assert_eq!(ans, Ok(Relation::new(1)));
    }

    #[test]
    fn arity_mismatch_counts_skipped_tuples() {
        obs::set_enabled(true);
        let mut db = Database::new();
        // Store q-ary facts under `r`, then query `r` at arity 3.
        db.insert_int("r", &[&[1, 1], &[2, 2]]);
        let q = parse_query("q(X) :- r(X, Y, Z)").unwrap();
        let before = obs::counter_value("engine.arity_mismatch_skips");
        let ans = evaluate(&q, &db);
        assert!(ans.is_empty());
        let after = obs::counter_value("engine.arity_mismatch_skips");
        assert_eq!(after - before, 2);
    }

    #[test]
    fn repeated_variable_across_subgoals_joins() {
        let mut db = Database::new();
        db.insert_int("e", &[&[1, 2], &[2, 3], &[3, 1]]);
        let q = parse_query("q(X, Z) :- e(X, Y), e(Y, Z)").unwrap();
        let ans = evaluate(&q, &db);
        assert_eq!(ans.len(), 3);
        assert!(ans.contains(&[Value::Int(1), Value::Int(3)]));
    }

    #[test]
    fn empty_body_returns_unit() {
        let db = Database::new();
        let q = viewplan_cq::ConjunctiveQuery::new(Atom::new("q", vec![]), vec![]);
        let ans = evaluate(&q, &db);
        assert_eq!(ans.len(), 1);
    }
}
