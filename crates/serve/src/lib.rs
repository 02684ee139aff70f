//! Batched multi-query serving (the deployment shape of the paper's
//! pipeline).
//!
//! The CoreCover/CoreCover* pipeline does its expensive work per query,
//! but a deployment sees *streams* of queries over a mostly-stable view
//! set. This crate amortizes across the stream and hardens the result
//! into a real network server:
//!
//! * [`BatchServer`] — owns the per-view-set preprocessing
//!   ([`viewplan_core::PreparedViews`], computed once) and answers
//!   queries one at a time or in parallel batches over the PR 2 worker
//!   pool;
//! * [`RewritingCache`] — a bounded, sharded LRU cache of answers keyed
//!   on queries canonicalized up to variable renaming, epoch-versioned
//!   for the live catalog, with the poisoning rule that budget-truncated
//!   answers are never stored;
//! * [`LiveCatalog`] — online `add-view`/`drop-view` via epoch-versioned
//!   `Arc` snapshot swaps (one writer, many lock-free readers) with
//!   principled cache invalidation;
//! * [`AdmissionQueue`] — bounded, deadline-aware admission with honest
//!   load shedding ([`Completeness`](viewplan_obs::Completeness) on
//!   every shed, never silence);
//! * [`NetServer`] — a TCP front-end speaking the length-prefixed
//!   [`net`] protocol: one blocking acceptor, a thread per connection,
//!   and a worker pool behind the admission queue, with read/write
//!   timeouts, idle-connection reaping, a prompt graceful drain on
//!   shutdown, and serving-layer fault injection ([`fault`]).
//!
//! The correctness contract — a cached/batched answer is byte-identical
//! to a cold single-query run *against the epoch that served it* — is
//! established by construction (canonicalize → compute/hit in canonical
//! space → denormalize; see [`batch`]) and enforced end to end by the
//! workspace's differential tests.

pub mod admission;
pub mod batch;
pub mod cache;
pub mod catalog;
pub mod fault;
pub mod net;

pub use admission::{AdmissionQueue, ShedReason};
pub use batch::{BatchServer, CachedAnswer, ServeConfig, ServedAnswer};
pub use cache::{CacheProbe, CacheStats, FlightGuard, RetargetOutcome, RewritingCache};
pub use catalog::{DdlOutcome, LiveCatalog};
pub use fault::ServeFaults;
pub use net::{NetConfig, NetServer};
