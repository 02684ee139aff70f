//! Size oracles: the one interface both plan searches cost against.
//!
//! [`ExactOracle`] measures sizes by actually evaluating subgoal prefixes
//! over a (view) database through the engine — the ground truth the
//! paper's cost measures are defined over. [`EstimateOracle`] predicts the
//! same quantities from a [`Catalog`] with the independence assumption, as
//! a real optimizer would. Both memoize per (subset, retained-variables)
//! key, which is what makes the subset-DP plan search cheap.

use crate::catalog::Catalog;
use std::collections::{BTreeSet, HashMap};
use viewplan_cq::{Atom, ConjunctiveQuery, Symbol, Term};
use viewplan_engine::{evaluate, Database};
use viewplan_obs as obs;

// Single registration site per counter name (the xtask lint enforces
// this): both oracles funnel their memo bookkeeping through here.
fn note_oracle_call(cache_hit: bool) {
    obs::counter!("cost.oracle_calls").incr();
    if cache_hit {
        obs::counter!("cost.oracle_cache_hits").incr();
    }
}

/// Sizes used by the M2/M3 cost measures.
pub trait SizeOracle {
    /// `size(g)`: the size of the stored relation behind subgoal `g`.
    fn relation_size(&mut self, atom: &Atom) -> f64;

    /// The size of the intermediate relation joining the subgoals of
    /// `body` selected by `mask`, projected onto `retained` (pass all
    /// variables of the subset for plain `IR`, a subset for `GSR`).
    fn intermediate_size(&mut self, body: &[Atom], mask: u32, retained: &BTreeSet<Symbol>) -> f64;
}

/// Measures sizes against a real database (exact, memoized).
pub struct ExactOracle<'a> {
    db: &'a Database,
    memo: HashMap<(Vec<Atom>, Vec<Symbol>), f64>,
}

impl<'a> ExactOracle<'a> {
    /// Builds an oracle over the given (view) database.
    pub fn new(db: &'a Database) -> ExactOracle<'a> {
        ExactOracle {
            db,
            memo: HashMap::new(),
        }
    }
}

impl SizeOracle for ExactOracle<'_> {
    fn relation_size(&mut self, atom: &Atom) -> f64 {
        self.db.get(atom.predicate).map_or(0.0, |r| r.len() as f64)
    }

    fn intermediate_size(&mut self, body: &[Atom], mask: u32, retained: &BTreeSet<Symbol>) -> f64 {
        let atoms: Vec<Atom> = (0..body.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| body[i].clone())
            .collect();
        let key = (atoms.clone(), retained.iter().copied().collect::<Vec<_>>());
        if let Some(&v) = self.memo.get(&key) {
            note_oracle_call(true);
            return v;
        }
        note_oracle_call(false);
        let head = Atom::new("__ir__", retained.iter().map(|&v| Term::Var(v)).collect());
        let q = ConjunctiveQuery::new(head, atoms);
        let size = evaluate(&q, self.db).len() as f64;
        self.memo.insert(key, size);
        size
    }
}

/// Per-variable distinct-count bookkeeping for the estimator.
#[derive(Clone, Debug)]
struct Estimate {
    rows: f64,
    distinct: HashMap<Symbol, f64>,
}

/// Predicts sizes from catalog statistics (System-R style).
pub struct EstimateOracle<'a> {
    catalog: &'a Catalog,
    memo: HashMap<Vec<Atom>, Estimate>,
}

impl<'a> EstimateOracle<'a> {
    /// Builds an estimator over the given catalog.
    pub fn new(catalog: &'a Catalog) -> EstimateOracle<'a> {
        EstimateOracle {
            catalog,
            memo: HashMap::new(),
        }
    }

    /// Estimated rows and per-variable distincts for one subgoal after its
    /// local selections (constants, repeated variables).
    fn atom_estimate(&self, atom: &Atom) -> Estimate {
        let Some(stats) = self.catalog.get(atom.predicate) else {
            return Estimate {
                rows: 0.0,
                distinct: HashMap::new(),
            };
        };
        let mut rows = stats.cardinality;
        let mut seen: HashMap<Symbol, f64> = HashMap::new();
        for (i, t) in atom.terms.iter().enumerate() {
            let d = stats.distinct.get(i).copied().unwrap_or(1.0).max(1.0);
            match *t {
                Term::Const(_) => rows /= d,
                Term::Var(v) => {
                    if let Some(prev) = seen.get(&v) {
                        // Repeated variable: equality selection.
                        rows /= prev.max(d);
                    } else {
                        seen.insert(v, d);
                    }
                }
            }
        }
        let rows = rows.max(if stats.cardinality > 0.0 { 1.0 } else { 0.0 });
        let distinct = seen.into_iter().map(|(v, d)| (v, d.min(rows))).collect();
        Estimate { rows, distinct }
    }

    /// Estimated join of two sub-results on their shared variables.
    fn join(a: &Estimate, b: &Estimate) -> Estimate {
        let mut rows = a.rows * b.rows;
        let mut distinct = a.distinct.clone();
        for (&v, &db) in &b.distinct {
            match distinct.get_mut(&v) {
                Some(da) => {
                    rows /= da.max(db).max(1.0);
                    *da = da.min(db);
                }
                None => {
                    distinct.insert(v, db);
                }
            }
        }
        let rows = if a.rows == 0.0 || b.rows == 0.0 {
            0.0
        } else {
            rows.max(1.0)
        };
        for d in distinct.values_mut() {
            *d = d.min(rows.max(1.0));
        }
        Estimate { rows, distinct }
    }

    /// The memoized estimate for a subset, folding subgoals in index order
    /// (the canonical fold keeps the DP deterministic).
    fn subset_estimate(&mut self, body: &[Atom], mask: u32) -> Estimate {
        let atoms: Vec<Atom> = (0..body.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| body[i].clone())
            .collect();
        if let Some(e) = self.memo.get(&atoms) {
            note_oracle_call(true);
            return e.clone();
        }
        note_oracle_call(false);
        let mut acc: Option<Estimate> = None;
        for atom in &atoms {
            let e = self.atom_estimate(atom);
            acc = Some(match acc {
                None => e,
                Some(prev) => Self::join(&prev, &e),
            });
        }
        let e = acc.unwrap_or(Estimate {
            rows: 1.0,
            distinct: HashMap::new(),
        });
        self.memo.insert(atoms, e.clone());
        e
    }
}

impl SizeOracle for EstimateOracle<'_> {
    fn relation_size(&mut self, atom: &Atom) -> f64 {
        self.catalog
            .get(atom.predicate)
            .map_or(0.0, |s| s.cardinality)
    }

    fn intermediate_size(&mut self, body: &[Atom], mask: u32, retained: &BTreeSet<Symbol>) -> f64 {
        let e = self.subset_estimate(body, mask);
        // Projection estimate: capped product of retained distincts.
        let mut cap = 1.0f64;
        let mut all_retained = true;
        for (v, d) in &e.distinct {
            if retained.contains(v) {
                cap *= d.max(1.0);
            } else {
                all_retained = false;
            }
        }
        if all_retained {
            e.rows
        } else {
            e.rows.min(cap)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RelationStats;
    use viewplan_cq::parse_query;

    fn body(src: &str) -> Vec<Atom> {
        parse_query(src).unwrap().body
    }

    fn all_vars(atoms: &[Atom]) -> BTreeSet<Symbol> {
        atoms.iter().flat_map(|a| a.variables()).collect()
    }

    #[test]
    fn exact_oracle_measures_prefixes() {
        let mut db = Database::new();
        db.insert_int("v1", &[&[1, 2], &[1, 4], &[1, 6], &[1, 8]]);
        db.insert_int("v2", &[&[1, 2], &[3, 4], &[5, 6], &[7, 8]]);
        let b = body("q(A) :- v1(A, B), v2(A, B)");
        let mut o = ExactOracle::new(&db);
        assert_eq!(o.relation_size(&b[0]), 4.0);
        let full = all_vars(&b);
        assert_eq!(o.intermediate_size(&b, 0b01, &full), 4.0);
        // v1 ⋈ v2 on (A, B): only (1,2) matches.
        assert_eq!(o.intermediate_size(&b, 0b11, &full), 1.0);
        // GSR: project the v1 prefix onto A only → one value.
        let a_only: BTreeSet<Symbol> = [Symbol::new("A")].into_iter().collect();
        assert_eq!(o.intermediate_size(&b, 0b01, &a_only), 1.0);
    }

    #[test]
    fn estimate_oracle_join_formula() {
        let mut cat = Catalog::new();
        cat.set("r", RelationStats::uniform(2, 100.0, 10.0));
        cat.set("s", RelationStats::uniform(2, 50.0, 10.0));
        let b = body("q(X, Z) :- r(X, Y), s(Y, Z)");
        let mut o = EstimateOracle::new(&cat);
        let full = all_vars(&b);
        // |r ⋈ s| = 100·50 / max(10,10) = 500.
        assert_eq!(o.intermediate_size(&b, 0b11, &full), 500.0);
    }

    #[test]
    fn estimate_selection_on_constant() {
        let mut cat = Catalog::new();
        cat.set("r", RelationStats::uniform(2, 100.0, 10.0));
        let b = body("q(X) :- r(X, c)");
        let mut o = EstimateOracle::new(&cat);
        let full = all_vars(&b);
        assert_eq!(o.intermediate_size(&b, 0b1, &full), 10.0);
    }

    #[test]
    fn estimate_projection_caps_by_distincts() {
        let mut cat = Catalog::new();
        cat.set("r", RelationStats::uniform(2, 100.0, 5.0));
        let b = body("q(X) :- r(X, Y)");
        let mut o = EstimateOracle::new(&cat);
        let x_only: BTreeSet<Symbol> = [Symbol::new("X")].into_iter().collect();
        // Projecting 100 rows onto a 5-distinct column → 5.
        assert_eq!(o.intermediate_size(&b, 0b1, &x_only), 5.0);
    }

    #[test]
    fn unknown_relation_estimates_zero() {
        let cat = Catalog::new();
        let b = body("q(X) :- nope(X, Y)");
        let mut o = EstimateOracle::new(&cat);
        assert_eq!(o.relation_size(&b[0]), 0.0);
        assert_eq!(o.intermediate_size(&b, 0b1, &all_vars(&b)), 0.0);
    }

    #[test]
    fn repeated_variable_selection_estimate() {
        let mut cat = Catalog::new();
        cat.set("r", RelationStats::uniform(2, 100.0, 10.0));
        let b = body("q(X) :- r(X, X)");
        let mut o = EstimateOracle::new(&cat);
        assert_eq!(o.intermediate_size(&b, 0b1, &all_vars(&b)), 10.0);
    }
}
