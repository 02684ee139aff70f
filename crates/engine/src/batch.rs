//! The columnar batch executor.
//!
//! Runs the bindings-table pipeline of [`crate::eval`] batch-at-a-time
//! over struct-of-arrays data ([`crate::ColumnarRelation`]): a selection
//! vector filters the stored relation column-by-column, a hash index
//! specialized by key shape is built over the surviving rows, and probing
//! gathers output *columns* in tight per-column loops the compiler can
//! auto-vectorize. Output row order is probe order × build insertion
//! order, so answers and traces are deterministic.

use crate::columnar::{Column, ColumnarRelation};
use crate::database::Database;
use crate::error::EngineError;
use crate::eval::{head_columns, note_arity_mismatch, note_join, plan_slots, Slot};
use crate::relation::{Relation, Tuple};
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use viewplan_cq::{Atom, Symbol};
use viewplan_obs as obs;

/// Counter funnel for one batch join: build-side rows fed to the hash
/// index, dictionary-encoded key columns encountered, and output rows.
fn note_batch_join(build_rows: usize, dict_columns: usize, out_rows: usize) {
    obs::counter!("engine.batch_joins").incr();
    obs::counter!("engine.batch_build_rows").add(build_rows as u64);
    obs::counter!("engine.batch_dict_columns").add(dict_columns as u64);
    obs::histogram!("engine.batch_output_rows").record(out_rows as u64);
}

/// The bindings table in columnar form: one `Vec<Value>` per variable,
/// all of length `len`.
pub(crate) struct ColumnarBindings {
    vars: Vec<Symbol>,
    len: usize,
    cols: Vec<Vec<Value>>,
}

/// The hash index over the build side, specialized by key shape. Bucket
/// contents are row indices in relation insertion order.
enum JoinIndex {
    /// No bound columns: every selected row matches (Cartesian product).
    Cross(Vec<u32>),
    /// One bound column, dictionary-encoded: hash interned symbols.
    Sym(HashMap<Symbol, Vec<u32>>),
    /// One bound column, mixed values.
    One(HashMap<Value, Vec<u32>>),
    /// Several bound columns: composite key.
    Multi(HashMap<Vec<Value>, Vec<u32>>),
}

/// Shrinks `sel` to the rows whose column `col` equals the constant `v`.
fn filter_fixed(sel: &mut Vec<u32>, col: &Column, v: Value) {
    match (col, v) {
        (Column::Syms(syms), Value::Sym(s)) => sel.retain(|&r| syms[r as usize] == s),
        // A non-symbol constant never matches an all-symbol column.
        (Column::Syms(_), _) => sel.clear(),
        (Column::Values(vals), _) => sel.retain(|&r| vals[r as usize] == v),
    }
}

/// Shrinks `sel` to the rows where columns `a` and `b` hold equal values
/// (an intra-atom repeated variable).
fn filter_same(sel: &mut Vec<u32>, a: &Column, b: &Column) {
    match (a, b) {
        (Column::Syms(x), Column::Syms(y)) => sel.retain(|&r| x[r as usize] == y[r as usize]),
        _ => sel.retain(|&r| a.value(r as usize) == b.value(r as usize)),
    }
}

/// Builds the hash index over the selected rows, keyed by the values at
/// `key_positions`; buckets keep selection (= insertion) order.
fn build_index(rel: &ColumnarRelation, sel: Vec<u32>, key_positions: &[usize]) -> JoinIndex {
    match *key_positions {
        [] => JoinIndex::Cross(sel),
        [i] => match rel.column(i) {
            Column::Syms(syms) => {
                let mut map: HashMap<Symbol, Vec<u32>> = HashMap::new();
                for &r in &sel {
                    map.entry(syms[r as usize]).or_default().push(r);
                }
                JoinIndex::Sym(map)
            }
            Column::Values(vals) => {
                let mut map: HashMap<Value, Vec<u32>> = HashMap::new();
                for &r in &sel {
                    map.entry(vals[r as usize]).or_default().push(r);
                }
                JoinIndex::One(map)
            }
        },
        ref many => {
            let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
            for &r in &sel {
                let key: Vec<Value> = many
                    .iter()
                    .map(|&i| rel.column(i).value(r as usize))
                    .collect();
                map.entry(key).or_default().push(r);
            }
            JoinIndex::Multi(map)
        }
    }
}

impl ColumnarBindings {
    /// Probes the index with every bindings row in order, producing
    /// `(probe_row, build_row)` pairs in probe-major order.
    fn probe(&self, index: &JoinIndex, key_cols: &[usize]) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut emit = |p: usize, bucket: &[u32]| {
            pairs.extend(bucket.iter().map(|&b| (p as u32, b)));
        };
        match index {
            JoinIndex::Cross(rows) => {
                for p in 0..self.len {
                    emit(p, rows);
                }
            }
            JoinIndex::Sym(map) => {
                let col = &self.cols[key_cols[0]];
                for (p, v) in col.iter().enumerate() {
                    // Only symbols can match an all-symbol build column.
                    if let Value::Sym(s) = v {
                        if let Some(bucket) = map.get(s) {
                            emit(p, bucket);
                        }
                    }
                }
            }
            JoinIndex::One(map) => {
                let col = &self.cols[key_cols[0]];
                for (p, v) in col.iter().enumerate() {
                    if let Some(bucket) = map.get(v) {
                        emit(p, bucket);
                    }
                }
            }
            JoinIndex::Multi(map) => {
                let mut key = Vec::with_capacity(key_cols.len());
                for p in 0..self.len {
                    key.clear();
                    key.extend(key_cols.iter().map(|&c| self.cols[c][p]));
                    if let Some(bucket) = map.get(&key) {
                        emit(p, bucket);
                    }
                }
            }
        }
        pairs
    }

    /// The unit table: empty schema, one empty row.
    pub(crate) fn unit() -> ColumnarBindings {
        ColumnarBindings {
            vars: Vec::new(),
            len: 1,
            cols: Vec::new(),
        }
    }

    /// Number of rows currently in the table.
    pub(crate) fn row_count(&self) -> usize {
        self.len
    }

    /// Hash-joins the table with one subgoal. A missing relation is
    /// treated as empty (closed world).
    pub(crate) fn join(self, atom: &Atom, db: &Database) -> ColumnarBindings {
        let empty = Relation::new(atom.arity());
        let rel = db.get(atom.predicate).unwrap_or(&empty);
        let slots = plan_slots(atom, &self.vars);

        // An atom whose arity differs from the stored relation matches
        // nothing (no fact can map onto it); relations have uniform arity,
        // so the whole relation is skipped — and counted, loudly. Also
        // guards the column accesses below, which index by atom position.
        let mismatched = rel.arity() != atom.arity();
        note_arity_mismatch(if mismatched { rel.len() } else { 0 });

        // Bound positions pair the atom-side key position with the
        // bindings-side column, in slot order.
        let bound: Vec<(usize, usize)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                Slot::Bound(c) => Some((i, *c)),
                _ => None,
            })
            .collect();
        let key_positions: Vec<usize> = bound.iter().map(|&(i, _)| i).collect();
        let key_cols: Vec<usize> = bound.iter().map(|&(_, c)| c).collect();

        let (index, build_rows, dict_columns) = if mismatched {
            (JoinIndex::Cross(Vec::new()), 0, 0)
        } else {
            let crel = rel.columnar();
            // Selection vector: ascending row indices surviving the
            // constant and repeated-variable filters, one column at a time.
            let mut sel: Vec<u32> = (0..crel.len() as u32).collect();
            for (i, slot) in slots.iter().enumerate() {
                match *slot {
                    Slot::Fixed(v) => filter_fixed(&mut sel, crel.column(i), v),
                    Slot::SameAs(j) => filter_same(&mut sel, crel.column(i), crel.column(j)),
                    _ => {}
                }
            }
            let dict = key_positions
                .iter()
                .filter(|&&i| crel.column(i).is_dictionary())
                .count();
            let build_rows = sel.len();
            (build_index(crel, sel, &key_positions), build_rows, dict)
        };

        let pairs = self.probe(&index, &key_cols);

        // Extend the schema with the new variables in argument order.
        let mut vars = self.vars.clone();
        let mut new_positions = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            if let Slot::New(v) = slot {
                vars.push(*v);
                new_positions.push(i);
            }
        }

        // Column-wise gathers: one tight loop per output column.
        let mut cols: Vec<Vec<Value>> = Vec::with_capacity(vars.len());
        for old in &self.cols {
            cols.push(pairs.iter().map(|&(p, _)| old[p as usize]).collect());
        }
        if mismatched {
            // No pairs exist; the new columns are empty (and the stored
            // relation's columns cannot be indexed by atom position).
            cols.extend(new_positions.iter().map(|_| Vec::new()));
        } else {
            let crel = rel.columnar();
            for &i in &new_positions {
                cols.push(match crel.column(i) {
                    Column::Syms(syms) => pairs
                        .iter()
                        .map(|&(_, b)| Value::Sym(syms[b as usize]))
                        .collect(),
                    Column::Values(vals) => pairs.iter().map(|&(_, b)| vals[b as usize]).collect(),
                });
            }
        }

        note_join(self.len, pairs.len());
        note_batch_join(build_rows, dict_columns, pairs.len());
        ColumnarBindings {
            vars,
            len: pairs.len(),
            cols,
        }
    }

    /// Removes the given variables from the schema and deduplicates rows
    /// (keep-first).
    pub(crate) fn project_away(self, drop: &HashSet<Symbol>) -> ColumnarBindings {
        let keep: Vec<usize> = (0..self.vars.len())
            .filter(|&i| !drop.contains(&self.vars[i]))
            .collect();
        let vars: Vec<Symbol> = keep.iter().map(|&i| self.vars[i]).collect();
        // Keep-first dedup over the projected rows, then gather the
        // survivors column by column.
        let mut seen = HashSet::new();
        let mut survivors: Vec<u32> = Vec::new();
        for row in 0..self.len {
            let projected: Tuple = keep.iter().map(|&i| self.cols[i][row]).collect();
            if seen.insert(projected) {
                survivors.push(row as u32);
            }
        }
        let cols: Vec<Vec<Value>> = keep
            .iter()
            .map(|&i| {
                survivors
                    .iter()
                    .map(|&r| self.cols[i][r as usize])
                    .collect()
            })
            .collect();
        ColumnarBindings {
            vars,
            len: survivors.len(),
            cols,
        }
    }

    /// Projects the table onto the head atom, in row order.
    pub(crate) fn project_head(&self, head: &Atom) -> Result<Relation, EngineError> {
        if self.len == 0 {
            // An empty join may have stopped before every head variable
            // entered the schema; the projection is empty regardless.
            return Ok(Relation::new(head.arity()));
        }
        let cols = head_columns(head, &self.vars)?;
        let mut out = Relation::new(head.arity());
        for row in 0..self.len {
            out.insert(
                cols.iter()
                    .map(|c| match c {
                        Ok(i) => self.cols[*i][row],
                        Err(v) => *v,
                    })
                    .collect(),
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_fixed_clears_on_kind_mismatch() {
        let col = Column::Syms(vec![Symbol::new("a"), Symbol::new("b")]);
        let mut sel = vec![0, 1];
        filter_fixed(&mut sel, &col, Value::Int(3));
        assert!(sel.is_empty());
    }

    #[test]
    fn filter_fixed_symbol_fast_path() {
        let col = Column::Syms(vec![Symbol::new("a"), Symbol::new("b"), Symbol::new("a")]);
        let mut sel = vec![0, 1, 2];
        filter_fixed(&mut sel, &col, Value::sym("a"));
        assert_eq!(sel, [0, 2]);
    }

    #[test]
    fn filter_same_mixed_columns() {
        let a = Column::Values(vec![Value::Int(1), Value::Int(2)]);
        let b = Column::Values(vec![Value::Int(1), Value::Int(3)]);
        let mut sel = vec![0, 1];
        filter_same(&mut sel, &a, &b);
        assert_eq!(sel, [0]);
    }

    #[test]
    fn unit_table_has_one_row_and_no_columns() {
        let t = ColumnarBindings::unit();
        assert_eq!(t.row_count(), 1);
        assert!(t.vars.is_empty());
    }
}
