//! Containment, equivalence, minimization, and expansion of conjunctive
//! queries.
//!
//! This crate implements the classical machinery the paper builds on:
//!
//! * **Containment mappings** (Chandra & Merlin \[5\]): a conjunctive query
//!   `Q1` is contained in `Q2` iff there is a homomorphism from `Q2` to
//!   `Q1` mapping head to head, each variable to a term, and each constant
//!   to itself ([`homomorphism`], [`is_contained_in`]).
//! * **Equivalence** — containment both ways ([`are_equivalent`]).
//! * **Minimization** — removing redundant subgoals until the core is
//!   reached ([`minimize()`]); the first step of `CoreCover` (Figure 4,
//!   step 1).
//! * **Expansion** of a rewriting over views into base relations
//!   (Definition 2.2, [`expand`]).
//! * **Variant checking** — equality of queries up to variable renaming
//!   ([`is_variant`]), the identification the paper adopts ("we assume two
//!   rewritings are the same if the only difference between them is
//!   variable renamings", §3.3).
//! * **Acyclic fast path** — a containment check whose pattern is
//!   acyclic after head pinning is decided by polynomial semijoins over
//!   its GYO join forest ([`acyclic`]) instead of the exponential DFS;
//!   cyclic patterns fall back to the DFS. The route is a pure function
//!   of the query pair, and [`containment::containment_mapping_complete`]
//!   is the homomorphism-only reference the differential tests compare
//!   against.
//! * **Memoization** — a process-global, lock-sharded cache of containment
//!   verdicts keyed on canonicalized query pairs ([`cache`]), shared by
//!   containment, minimization, view-class grouping, and the M3 dropping
//!   heuristic, and safe to hit from parallel workers.
//!
//! # Example
//!
//! ```
//! use viewplan_cq::parse_query;
//! use viewplan_containment::{are_equivalent, is_contained_in, minimize};
//!
//! let q1 = parse_query("q(X) :- e(X, Y), e(Y, Z)").unwrap();
//! let q2 = parse_query("q(X) :- e(X, Y)").unwrap();
//! assert!(is_contained_in(&q1, &q2));
//! assert!(!is_contained_in(&q2, &q1));
//!
//! let redundant = parse_query("q(X) :- e(X, Y), e(X, Z)").unwrap();
//! assert_eq!(minimize(&redundant).body.len(), 1);
//! assert!(are_equivalent(&redundant, &q2));
//! ```

pub mod acyclic;
pub mod cache;
pub mod containment;
pub mod expansion;
pub mod homomorphism;
pub mod minimize;
pub mod variant;

pub use cache::{
    cache_enabled, canonical_key, canonical_variable, canonicalize, clear_containment_cache,
    containment_cache_len, set_cache_enabled, CanonicalQuery, Canonicalization,
};
pub use containment::{are_equivalent, containment_mapping, head_bindings, is_contained_in};
pub use expansion::{expand, expand_atom, ExpandError};
pub use homomorphism::{find_homomorphism, find_homomorphism_with, HomomorphismSearch};
pub use minimize::minimize;
pub use variant::is_variant;
