//! A shared, thread-safe containment memo cache.
//!
//! Containment checks recur heavily across the CoreCover pipeline: the
//! same query pair is tested during minimization, again while grouping
//! views into equivalence classes, again per view tuple, and once more by
//! the M3 renaming heuristic — and a parallel sweep multiplies the
//! repetition across worker threads. Since containment is invariant under
//! variable renaming (Chandra & Merlin homomorphisms never look at
//! variable *names*), verdicts can be memoized on **canonicalized** query
//! pairs: every variable is renamed to its order of first occurrence
//! (head first, then body, left to right), so all variants of a pair hit
//! the same entry.
//!
//! The cache is process-global and sharded: each shard is an independent
//! `viewplan_sync::RwLock<HashMap>`, picked by key hash, so concurrent
//! workers rarely contend on the same lock. Reads take the shard's read
//! lock; only a miss upgrades to a write. Only checks of at least
//! [`MIN_CACHED_SUBGOALS`] combined body subgoals are memoized: below
//! that, a fresh homomorphism search beats even an uncontended cache
//! probe, and routing the millions of tiny view-vs-view checks of a
//! sweep through shared locks would serialize parallel workers. To bound memory across long
//! sweeps (whose workloads never repeat a query pair between instances),
//! a shard that reaches [`SHARD_CAPACITY`] entries is cleared wholesale —
//! reuse is temporally local, so epoch-style eviction loses almost
//! nothing.
//!
//! Observability: hits, misses, and evictions are reported through the
//! `containment.cache_hits` / `containment.cache_misses` /
//! `containment.cache_evictions` counters when stats collection is on.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;
use viewplan_cq::{Atom, ConjunctiveQuery, Constant, Substitution, Symbol, Term};
use viewplan_obs as obs;
use viewplan_sync::{AtomicBool, Ordering, RwLock};

/// Number of independent lock shards (power of two).
const SHARDS: usize = 16;

/// Entries per shard before the shard is cleared (epoch eviction). With
/// 16 shards this bounds the cache at ~128k verdicts.
const SHARD_CAPACITY: usize = 8192;

/// Minimum combined body size (subgoals of both queries) for a check to
/// be memoized. Below this, a fresh homomorphism search is cheaper than
/// building two canonical keys and taking a shard lock — and under a
/// parallel sweep the lock traffic of millions of tiny view-vs-view
/// checks serializes the workers. Expansion-sized checks (rewriting
/// verification, minimization of expansions), where the search is
/// genuinely expensive and repetition is high, are all well above this.
const MIN_CACHED_SUBGOALS: usize = 12;

/// One token of a canonical query encoding. Variables are replaced by
/// dense first-occurrence indices, so two queries that differ only by a
/// variable renaming encode identically; constants and predicates keep
/// their interned identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Tok {
    /// Atom start: predicate symbol + arity.
    Pred(u32, u32),
    /// Variable by dense first-occurrence index.
    Var(u32),
    /// Symbolic constant by interned id.
    Sym(u32),
    /// Integer constant.
    Int(i64),
}

/// A conjunctive query canonicalized up to variable renaming. Two queries
/// that are variants (differ only in variable names) produce equal keys;
/// queries that differ structurally (including body order) produce
/// different keys, which costs hit rate but never correctness.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CanonicalQuery(Vec<Tok>);

/// Canonicalizes a query for use as a cache key.
pub fn canonical_key(q: &ConjunctiveQuery) -> CanonicalQuery {
    let mut toks = Vec::with_capacity(2 + 4 * (q.body.len() + 1));
    let mut rename: HashMap<Symbol, u32> = HashMap::new();
    let mut encode_atom = |atom: &Atom, toks: &mut Vec<Tok>| {
        toks.push(Tok::Pred(
            atom.predicate.index() as u32,
            atom.terms.len() as u32,
        ));
        for t in &atom.terms {
            toks.push(match *t {
                Term::Var(v) => {
                    let next = rename.len() as u32;
                    Tok::Var(*rename.entry(v).or_insert(next))
                }
                Term::Const(Constant::Sym(s)) => Tok::Sym(s.index() as u32),
                Term::Const(Constant::Int(i)) => Tok::Int(i),
            });
        }
    };
    encode_atom(&q.head, &mut toks);
    for atom in &q.body {
        encode_atom(atom, &mut toks);
    }
    CanonicalQuery(toks)
}

/// The canonical name of the `i`-th variable (by first occurrence) of a
/// canonicalized query. The `__c` prefix keeps canonical names out of the
/// way of ordinary user variables, but nothing breaks if a user query
/// already contains one: canonicalization is a *simultaneous* bijective
/// renaming, so collisions cannot alias two variables.
pub fn canonical_variable(i: usize) -> Symbol {
    Symbol::new(&format!("__c{i}"))
}

/// A query renamed into canonical variable space, together with the map
/// back to the original names.
///
/// Canonicalization assigns every variable the dense name
/// [`canonical_variable`]`(i)` where `i` is its first-occurrence index
/// (head first, then body, left to right) — the same order
/// [`canonical_key`] uses. Two queries that are variants of each other
/// therefore canonicalize to **byte-identical** queries, which is the
/// foundation of the serving layer's rewriting cache: run the pipeline on
/// `canonical`, and any variant of the original query can reuse the
/// result by renaming it through its own `from_canonical` map. Because
/// every variant performs the *same* canonical computation, a cache hit
/// is provably identical to a cold run — no equivariance assumption about
/// the pipeline is needed.
#[derive(Clone, Debug)]
pub struct Canonicalization {
    /// The query with every variable renamed to its canonical name.
    pub canonical: ConjunctiveQuery,
    /// The cache key (equals `canonical_key` of the original query).
    pub key: CanonicalQuery,
    /// Substitution mapping canonical names back to the original
    /// variables. Pipeline outputs over `canonical` mention only its
    /// variables, so applying this recovers the original vocabulary.
    pub from_canonical: Substitution,
}

/// Canonicalizes a query: renames variables to dense first-occurrence
/// names and returns the renamed query, its cache key, and the inverse
/// renaming. See [`Canonicalization`].
pub fn canonicalize(q: &ConjunctiveQuery) -> Canonicalization {
    let mut order: Vec<Symbol> = Vec::new();
    let mut seen: HashMap<Symbol, ()> = HashMap::new();
    let mut visit = |atom: &Atom| {
        for t in &atom.terms {
            if let Term::Var(v) = *t {
                if seen.insert(v, ()).is_none() {
                    order.push(v);
                }
            }
        }
    };
    visit(&q.head);
    for atom in &q.body {
        visit(atom);
    }
    let to_canonical = Substitution::from_pairs(
        order
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, Term::Var(canonical_variable(i)))),
    );
    let from_canonical = Substitution::from_pairs(
        order
            .iter()
            .enumerate()
            .map(|(i, &v)| (canonical_variable(i), Term::Var(v))),
    );
    let canonical = q.apply(&to_canonical);
    let key = canonical_key(&canonical);
    Canonicalization {
        canonical,
        key,
        from_canonical,
    }
}

type Shard = RwLock<HashMap<(CanonicalQuery, CanonicalQuery), bool>>;

fn shards() -> &'static Vec<Shard> {
    static CACHE: OnceLock<Vec<Shard>> = OnceLock::new();
    CACHE.get_or_init(|| (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect())
}

static CACHE_ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the containment cache on or off process-wide (on by default).
/// Disabling does not clear existing entries; use
/// [`clear_containment_cache`] for that.
pub fn set_cache_enabled(enabled: bool) {
    // ordering: standalone switch; probes that see it late merely hit or
    // skip the cache one more time, both of which are correct.
    CACHE_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether memoization is currently on.
pub fn cache_enabled() -> bool {
    // ordering: standalone switch read; see set_cache_enabled.
    CACHE_ENABLED.load(Ordering::Relaxed)
}

/// Drops every cached verdict (all shards).
pub fn clear_containment_cache() {
    for shard in shards() {
        shard.write().clear();
    }
}

/// Total number of cached verdicts across all shards.
pub fn containment_cache_len() -> usize {
    shards().iter().map(|s| s.read().len()).sum()
}

fn shard_of(key: &(CanonicalQuery, CanonicalQuery)) -> &'static Shard {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    &shards()[(h.finish() as usize) % SHARDS]
}

/// Memoizes the verdict of `compute` under the canonicalized `(q1, q2)`
/// pair. The caller fixes the semantics of the pair (here: "q1 ⊑ q2");
/// canonicalization guarantees any variant pair gets the same verdict.
///
/// `compute` additionally reports whether it ran to completion: a
/// verdict from a budget-truncated search is returned to the caller but
/// **never inserted** into the cache — truncated verdicts are
/// conservative under-approximations, and memoizing one would poison
/// later unbudgeted (or more generously budgeted) checks. Cache *hits*
/// under a budget are safe in the other direction: a cached verdict is
/// always from a complete search, i.e. at least as accurate as the
/// truncated search it replaces.
// lock-order: one shard lock, taken twice sequentially (read probe, then
// write insert) — the read guard is dropped before `compute` runs, so no
// two locks are ever held together and `compute` may recurse freely.
pub(crate) fn cached_verdict_complete(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    compute: impl FnOnce() -> (bool, bool),
) -> bool {
    if !cache_enabled() || q1.body.len() + q2.body.len() < MIN_CACHED_SUBGOALS {
        return compute().0;
    }
    let key = (canonical_key(q1), canonical_key(q2));
    let shard = shard_of(&key);
    if let Some(&verdict) = shard.read().get(&key) {
        obs::counter!("containment.cache_hits").incr();
        return verdict;
    }
    obs::counter!("containment.cache_misses").incr();
    let (verdict, complete) = compute();
    if !complete {
        obs::counter!("containment.cache_uncacheable").incr();
        return verdict;
    }
    let mut wr = shard.write();
    if wr.len() >= SHARD_CAPACITY {
        obs::counter!("containment.cache_evictions").incr();
        wr.clear();
    }
    wr.insert(key, verdict);
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::containment::{containment_mapping, containment_mapping_complete, is_contained_in};
    use viewplan_cq::parse_query;

    #[test]
    fn variants_share_a_key() {
        let q1 = parse_query("q(X) :- e(X, Y), e(Y, Z)").unwrap();
        let q2 = parse_query("q(A) :- e(A, B), e(B, C)").unwrap();
        assert_eq!(canonical_key(&q1), canonical_key(&q2));
    }

    #[test]
    fn structurally_different_queries_differ() {
        let q1 = parse_query("q(X) :- e(X, Y)").unwrap();
        let q2 = parse_query("q(X) :- e(Y, X)").unwrap();
        let q3 = parse_query("q(X) :- f(X, Y)").unwrap();
        let q4 = parse_query("q(X) :- e(X, a)").unwrap();
        assert_ne!(canonical_key(&q1), canonical_key(&q2));
        assert_ne!(canonical_key(&q1), canonical_key(&q3));
        assert_ne!(canonical_key(&q1), canonical_key(&q4));
    }

    #[test]
    fn variants_canonicalize_to_byte_identical_queries() {
        let q1 = parse_query("q(X, Y) :- e(X, Z), f(Z, Y), g(Y, a)").unwrap();
        let q2 = parse_query("q(A, B) :- e(A, C), f(C, B), g(B, a)").unwrap();
        let c1 = canonicalize(&q1);
        let c2 = canonicalize(&q2);
        assert_eq!(c1.canonical, c2.canonical);
        assert_eq!(c1.key, c2.key);
        assert_eq!(c1.key, canonical_key(&q1));
        // Round trip: renaming back recovers each original query.
        assert_eq!(c1.canonical.apply(&c1.from_canonical), q1);
        assert_eq!(c2.canonical.apply(&c2.from_canonical), q2);
    }

    #[test]
    fn canonicalize_handles_adversarial_names() {
        // A query that already uses canonical-style names in "wrong"
        // positions: the simultaneous renaming must stay bijective.
        let q = parse_query("q(__c1, __c0) :- e(__c1, __c0), e(__c0, W)").unwrap();
        let c = canonicalize(&q);
        assert_eq!(c.canonical.apply(&c.from_canonical), q);
        // Distinct originals stay distinct in canonical space.
        let vars = c.canonical.variables();
        assert_eq!(vars.len(), q.variables().len());
    }

    #[test]
    fn repeated_variables_are_distinguished_from_distinct_ones() {
        let diag = parse_query("q(X) :- e(X, X)").unwrap();
        let free = parse_query("q(X) :- e(X, Y)").unwrap();
        assert_ne!(canonical_key(&diag), canonical_key(&free));
    }

    /// Serializes tests that observe or toggle the process-global cache
    /// (the default test harness runs tests concurrently).
    fn state_lock() -> viewplan_sync::MutexGuard<'static, ()> {
        static LOCK: viewplan_sync::Mutex<()> = viewplan_sync::Mutex::new(());
        LOCK.lock()
    }

    /// A chain query `q(V0) :- e(V0, V1), …` of `n` subgoals, with `v`
    /// as the variable name prefix. Large enough chains clear the
    /// [`MIN_CACHED_SUBGOALS`] gate.
    fn chain(v: &str, n: usize) -> String {
        let body: Vec<String> = (0..n).map(|i| format!("e({v}{i}, {v}{})", i + 1)).collect();
        format!("q({v}0) :- {}", body.join(", "))
    }

    #[test]
    fn cached_verdict_matches_fresh_verdict() {
        let _guard = state_lock();
        // The satellite's correctness contract: a verdict answered from
        // the cache must equal the one computed fresh with the cache off.
        let pairs = [
            (chain("X", 8), chain("X", 6)),
            (chain("X", 6), chain("X", 8)),
            (chain("X", 7), chain("Y", 7)),
        ];
        for (s1, s2) in &pairs {
            let q1 = parse_query(s1).unwrap();
            let q2 = parse_query(s2).unwrap();
            set_cache_enabled(false);
            let fresh = containment_mapping(&q2, &q1).is_some();
            set_cache_enabled(true);
            clear_containment_cache();
            let first = is_contained_in(&q1, &q2); // populates the cache
            assert!(containment_cache_len() > 0, "check was not memoized");
            let second = is_contained_in(&q1, &q2); // answered from the cache
            assert_eq!(first, fresh, "first check disagrees for {s1} ⊑ {s2}");
            assert_eq!(second, fresh, "cached check disagrees for {s1} ⊑ {s2}");
        }
    }

    #[test]
    fn variant_pair_is_answered_from_the_same_entry() {
        let _guard = state_lock();
        clear_containment_cache();
        set_cache_enabled(true);
        let q1 = parse_query(&chain("X", 8)).unwrap();
        let q2 = parse_query(&chain("X", 6)).unwrap();
        let before = containment_cache_len();
        assert!(is_contained_in(&q1, &q2));
        let after_first = containment_cache_len();
        assert!(after_first > before);
        // A renamed variant of the same pair must not add a new entry.
        let q1v = parse_query(&chain("A", 8)).unwrap();
        let q2v = parse_query(&chain("B", 6)).unwrap();
        assert!(is_contained_in(&q1v, &q2v));
        assert_eq!(containment_cache_len(), after_first);
    }

    #[test]
    fn small_checks_bypass_the_cache() {
        let _guard = state_lock();
        // Below the size gate a fresh search is cheaper than a probe, so
        // tiny checks must leave no trace in the cache.
        clear_containment_cache();
        set_cache_enabled(true);
        let q1 = parse_query("q(X) :- p(X, Y), r(Y)").unwrap();
        let q2 = parse_query("q(X) :- p(X, Y)").unwrap();
        assert!(is_contained_in(&q1, &q2));
        assert_eq!(containment_cache_len(), 0);
    }

    #[test]
    fn truncated_verdicts_are_not_cached() {
        let _guard = state_lock();
        clear_containment_cache();
        set_cache_enabled(true);
        let q1 = parse_query(&chain("X", 8)).unwrap();
        let q2 = parse_query(&chain("Y", 6)).unwrap();
        // Chains are acyclic, so `is_contained_in` would decide them on
        // the semijoin route regardless of budget — run the homomorphism
        // DFS through the cache directly to exercise the truncation path
        // this test is about. Under a 1-node hom budget the check
        // truncates: conservative `false`, and nothing may be written to
        // the cache.
        let truncated = {
            let _b = obs::budget::install(
                obs::budget::BudgetSpec::new()
                    .phase_nodes(obs::Phase::Hom, 1)
                    .build(),
            );
            cached_verdict_complete(&q1, &q2, || {
                let (mapping, complete) = containment_mapping_complete(&q2, &q1);
                (mapping.is_some(), complete)
            })
        };
        assert!(!truncated, "truncated check must under-approximate");
        assert_eq!(containment_cache_len(), 0, "truncated verdict was cached");
        // The same check without a budget is complete, correct, cached.
        assert!(is_contained_in(&q1, &q2));
        assert!(containment_cache_len() > 0);
    }

    #[test]
    fn acyclic_fast_path_verdicts_are_complete_under_budget_and_cached() {
        let _guard = state_lock();
        clear_containment_cache();
        set_cache_enabled(true);
        let q1 = parse_query(&chain("X", 8)).unwrap();
        let q2 = parse_query(&chain("Y", 6)).unwrap();
        // Truncation is impossible on the semijoin route: even a 1-node
        // hom budget leaves the verdict complete — correct, and written
        // to the cache (unlike the truncated DFS above).
        let _b = obs::budget::install(
            obs::budget::BudgetSpec::new()
                .phase_nodes(obs::Phase::Hom, 1)
                .build(),
        );
        assert!(
            is_contained_in(&q1, &q2),
            "fast path must ignore the budget"
        );
        assert!(
            containment_cache_len() > 0,
            "complete verdict must be cached"
        );
    }

    #[test]
    fn disabling_bypasses_memoization() {
        let _guard = state_lock();
        clear_containment_cache();
        set_cache_enabled(false);
        let q1 = parse_query("q(X) :- zz_cache_off(X, Y)").unwrap();
        let q2 = parse_query("q(X) :- zz_cache_off(X, Y)").unwrap();
        assert!(is_contained_in(&q1, &q2));
        assert_eq!(containment_cache_len(), 0);
        set_cache_enabled(true);
    }
}
