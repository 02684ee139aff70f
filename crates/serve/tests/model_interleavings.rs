//! Interleaving regression tests for the serving layer's two core
//! concurrency protocols, pinned by the `viewplan-sync` model checker:
//!
//! 1. **Cache contention / single-flight coalescing** — concurrent
//!    requests for the same canonical query elect exactly one leader;
//!    the rest share its published answer. Invariants: one compute per
//!    `(key, epoch)`, `hits + misses == lookups`, every thread gets the
//!    same `Arc` (no torn or duplicated insert).
//! 2. **Epoch publish vs. concurrent readers** — the DDL writer
//!    publishes the new snapshot *before* retargeting the cache, so a
//!    reader never observes a cache hit whose answer belongs to a
//!    different catalog version than its snapshot (no stale-epoch
//!    answer).
//! 3. **Network shutdown wake-up** — `NetServer`'s blocking acceptor
//!    and handlers are woken by an explicit sweep instead of polling: a
//!    connection registering concurrently with shutdown is either swept
//!    or refused, the acceptor exits after the single wake-connect, and
//!    an admitted request is still answered.
//!
//! These run in the standard suite at bounded budgets (small DFS
//! preemption bounds), so `cargo test` exhaustively re-explores every
//! schedule on each run; EXPERIMENTS.md records the measured
//! interleaving counts.

use std::collections::VecDeque;
use std::sync::Arc;
use viewplan_containment::{canonicalize, CanonicalQuery};
use viewplan_cq::{parse_query, ConjunctiveQuery};
use viewplan_obs::Completeness;
use viewplan_serve::{AdmissionQueue, CacheProbe, CachedAnswer, RewritingCache};
use viewplan_sync::model;
use viewplan_sync::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering, RwLock};

/// Model executions must be a pure function of the schedule, but global
/// lazy state (the symbol interner, obs counter registration) is
/// initialized on first touch. Parse the fixture query and warm every
/// code path once, single-threaded, before any model runs.
fn fixture() -> (CanonicalQuery, ConjunctiveQuery, Arc<CachedAnswer>) {
    let canonical = canonicalize(&parse_query("q(X, Y) :- e(X, Z), f(Z, Y)").unwrap());
    let answer = Arc::new(CachedAnswer {
        rewritings: Vec::new(),
        best: None,
        completeness: Completeness::Complete,
    });
    // Warm-up pass: exercise the exact operations the models run so
    // every OnceLock / lazy registration settles before exploration.
    let cache = RewritingCache::new(16);
    match cache.get_or_join(&canonical.key, 0) {
        CacheProbe::Miss(flight) => flight.publish(canonical.canonical.clone(), answer.clone()),
        CacheProbe::Hit(_) => unreachable!("fresh cache cannot hit"),
    }
    let _ = cache.get(&canonical.key, 0);
    cache.retarget(0, 1, |_, _| true);
    (canonical.key, canonical.canonical, answer)
}

#[test]
fn concurrent_identical_misses_coalesce_onto_one_compute() {
    let (key, canonical, answer) = fixture();
    let report = model::check(&model::Config::dfs(2), move || {
        let cache = Arc::new(RewritingCache::new(16));
        let computes = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cache = cache.clone();
                let computes = computes.clone();
                let key = key.clone();
                let canonical = canonical.clone();
                let answer = answer.clone();
                model::spawn(move || match cache.get_or_join(&key, 0) {
                    CacheProbe::Hit(value) => value,
                    CacheProbe::Miss(flight) => {
                        computes.fetch_add(1, Ordering::SeqCst);
                        flight.publish(canonical, answer.clone());
                        answer
                    }
                })
            })
            .collect();
        let answers: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert!(
            Arc::ptr_eq(&answers[0], &answers[1]),
            "both requests must observe the same published answer"
        );
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "duplicate misses must coalesce onto exactly one compute"
        );
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            2,
            "exactly one hit-or-miss is tallied per lookup"
        );
        assert_eq!(stats.misses, 1, "only the leader counts a miss");
        assert_eq!(stats.hits, 1, "the follower counts a (coalesced) hit");
    });
    eprintln!("model cache_coalesce: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

#[test]
fn aborted_leader_wakes_followers_to_reelect() {
    let (key, canonical, answer) = fixture();
    let report = model::check(&model::Config::dfs(2), move || {
        let cache = Arc::new(RewritingCache::new(16));
        // The quitter abandons its flight without publishing (a compute
        // error or panic); dropping the guard must abort the flight.
        let quitter = {
            let cache = cache.clone();
            let key = key.clone();
            model::spawn(move || {
                if let CacheProbe::Miss(flight) = cache.get_or_join(&key, 0) {
                    drop(flight);
                    true
                } else {
                    false
                }
            })
        };
        let worker = {
            let cache = cache.clone();
            let key = key.clone();
            let canonical = canonical.clone();
            let answer = answer.clone();
            model::spawn(move || match cache.get_or_join(&key, 0) {
                // The quitter never publishes, so a hit is impossible:
                // an aborted flight must loop and re-elect, not serve.
                CacheProbe::Hit(_) => false,
                CacheProbe::Miss(flight) => {
                    flight.publish(canonical, answer);
                    true
                }
            })
        };
        let quit_led = quitter.join().unwrap();
        assert!(
            worker.join().unwrap(),
            "the worker must become leader (never hang, never hit)"
        );
        let stats = cache.stats();
        let expected_misses = if quit_led { 2 } else { 1 };
        assert_eq!(stats.hits + stats.misses, 2);
        assert_eq!(stats.misses, expected_misses);
        assert_eq!(cache.len(), 1, "the worker's answer is resident");
    });
    eprintln!("model cache_abort: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

/// The live catalog's swap protocol, reduced to its synchronization
/// skeleton: a snapshot pointer (`RwLock<Arc<_>>`, as in
/// `LiveCatalog::server`) published *before* the cache is retargeted.
/// The pinned invariant: whenever a reader's `get` hits, the answer is
/// the one computed under the reader's snapshot epoch — never the
/// pre-swap answer through a post-swap snapshot or vice versa.
#[test]
fn readers_never_observe_cross_epoch_answers_during_swap() {
    let (key, canonical, old_answer) = fixture();
    let new_answer = Arc::new(CachedAnswer {
        rewritings: Vec::new(),
        best: None,
        completeness: Completeness::Complete,
    });
    let report = model::check(&model::Config::dfs(2), move || {
        let cache = Arc::new(RewritingCache::new(16));
        cache.insert(key.clone(), canonical.clone(), old_answer.clone(), 0);
        let snapshot = Arc::new(RwLock::new(Arc::new(0u64)));
        let swaps_seen = Arc::new(AtomicU64::new(0));

        let writer = {
            let cache = cache.clone();
            let snapshot = snapshot.clone();
            let key = key.clone();
            let canonical = canonical.clone();
            let new_answer = new_answer.clone();
            model::spawn(move || {
                // Publish first, retarget second — the order swap_to
                // uses. Readers between the two see plain misses (their
                // epoch is new, the entry is old), never stale answers.
                *snapshot.write() = Arc::new(1);
                cache.retarget(0, 1, |_, _| true);
                cache.insert(key, canonical, new_answer, 1);
            })
        };
        let reader = {
            let cache = cache.clone();
            let snapshot = snapshot.clone();
            let key = key.clone();
            let old_answer = old_answer.clone();
            let new_answer = new_answer.clone();
            let swaps_seen = swaps_seen.clone();
            model::spawn(move || {
                let epoch = **snapshot.read();
                if epoch == 1 {
                    swaps_seen.fetch_add(1, Ordering::SeqCst);
                }
                if let Some(hit) = cache.get(&key, epoch) {
                    let expected = if epoch == 0 { &old_answer } else { &new_answer };
                    assert!(
                        Arc::ptr_eq(&hit, expected),
                        "hit at epoch {epoch} must carry that epoch's answer"
                    );
                }
            })
        };
        writer.join();
        reader.join();
        // After the swap settles, epoch-1 readers get the new answer and
        // epoch-0 probes can never hit again.
        assert!(cache.get(&key, 0).is_none(), "pre-swap epoch is dead");
        let settled = cache.get(&key, 1).expect("post-swap answer resident");
        assert!(Arc::ptr_eq(&settled, &new_answer));
    });
    eprintln!("model epoch_swap: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

/// A deeper seeded-random pass over the coalescing protocol with three
/// contending requests — too many schedules for exhaustive DFS in the
/// standard suite, so this samples a fixed pseudo-random slice (the seed
/// pins it; failures replay deterministically from the logged schedule).
#[test]
fn three_way_contention_random_walk() {
    let (key, canonical, answer) = fixture();
    let report = model::check(&model::Config::random(400, 0xC0A1E5CE), move || {
        let cache = Arc::new(RewritingCache::new(16));
        let computes = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let cache = cache.clone();
                let computes = computes.clone();
                let key = key.clone();
                let canonical = canonical.clone();
                let answer = answer.clone();
                model::spawn(move || match cache.get_or_join(&key, 0) {
                    CacheProbe::Hit(value) => value,
                    CacheProbe::Miss(flight) => {
                        computes.fetch_add(1, Ordering::SeqCst);
                        flight.publish(canonical, answer.clone());
                        answer
                    }
                })
            })
            .collect();
        let answers: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert!(answers.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 3);
        assert_eq!(stats.misses, 1);
    });
    eprintln!("model cache_3way: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
}

/// A stand-in for one accepted socket: the two halves the shutdown sweep
/// could close. A read on a stand-in whose read half is shut returns
/// EOF; a write on a shut write half fails.
#[derive(Default)]
struct StandIn {
    read_shut: AtomicBool,
    write_shut: AtomicBool,
}

/// `net.rs`'s shutdown protocol, reduced to its synchronization
/// skeleton: the stop flag, the connection registry, the listener
/// backlog a blocking `accept` waits on, and the admission queue.
struct Front {
    shutdown: AtomicBool,
    registry: Mutex<Vec<Arc<StandIn>>>,
    backlog: Mutex<VecDeque<Arc<StandIn>>>,
    connected: Condvar,
    wakes: AtomicUsize,
    queue: AdmissionQueue<Arc<ReplySlot>>,
}

impl Front {
    fn new() -> Front {
        Front {
            shutdown: AtomicBool::new(false),
            registry: Mutex::new(Vec::new()),
            backlog: Mutex::new(VecDeque::new()),
            connected: Condvar::new(),
            wakes: AtomicUsize::new(0),
            queue: AdmissionQueue::new(4),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// `Shared::request_shutdown`: flag, close, sweep, wake-connect.
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        for conn in self.registry.lock().iter() {
            conn.read_shut.store(true, Ordering::SeqCst);
        }
        self.wakes.fetch_add(1, Ordering::SeqCst);
        self.connect(Arc::new(StandIn::default()));
    }

    /// A client connect: lands in the backlog, waking a blocked accept.
    fn connect(&self, conn: Arc<StandIn>) {
        self.backlog.lock().push_back(conn);
        self.connected.notify_one();
    }

    /// A blocking `accept`.
    fn accept(&self) -> Arc<StandIn> {
        let mut backlog = self.backlog.lock();
        loop {
            if let Some(conn) = backlog.pop_front() {
                return conn;
            }
            backlog = self.connected.wait(backlog);
        }
    }

    /// `Shared::register`: the flag is checked under the registry lock.
    fn register(&self, conn: Arc<StandIn>) -> bool {
        let mut registry = self.registry.lock();
        if self.shutting_down() {
            return false;
        }
        registry.push(conn);
        true
    }

    /// `accept_loop`: returns how many connections it registered.
    fn accept_loop(&self) -> usize {
        let mut registered = 0;
        loop {
            let conn = self.accept();
            if self.shutting_down() || !self.register(conn) {
                return registered;
            }
            registered += 1;
        }
    }
}

/// A handler's reply channel, on facade primitives so the model sees it.
#[derive(Default)]
struct ReplySlot {
    reply: Mutex<Option<&'static str>>,
    ready: Condvar,
}

/// Warms the admission queue's lazy metric registrations before any
/// model runs (see [`fixture`]).
fn warm_admission() {
    let queue = AdmissionQueue::new(1);
    assert!(queue.offer((), None).is_ok());
    assert!(queue.take().is_some());
    queue.close();
    assert!(queue.take().is_none());
}

/// Property 1: a connection the acceptor registers while shutdown is
/// under way is either swept (its blocked read would return EOF) or
/// refused because the acceptor saw the flag — never registered with an
/// open read half after the sweep.
#[test]
fn registration_racing_shutdown_is_swept_or_refused() {
    warm_admission();
    let report = model::check(&model::Config::dfs(2), || {
        let front = Arc::new(Front::new());
        let conn = Arc::new(StandIn::default());
        let acceptor = {
            let front = front.clone();
            let conn = conn.clone();
            model::spawn(move || front.register(conn))
        };
        let stopper = {
            let front = front.clone();
            model::spawn(move || front.request_shutdown())
        };
        let registered = acceptor.join().unwrap();
        stopper.join();
        if registered {
            assert!(
                conn.read_shut.load(Ordering::SeqCst),
                "a connection registered before the sweep must be swept"
            );
        }
        assert!(front.registry.lock().len() == usize::from(registered));
    });
    eprintln!("model net_register: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

/// Property 2: the acceptor, blocked in `accept`, exits after the one
/// wake-connect whatever the interleaving, with a client connecting
/// concurrently. The stopper requests shutdown twice (a `shutdown` frame
/// then `NetServer::shutdown`); the second request must not connect
/// again. A missed wake shows as a deadlock.
#[test]
fn acceptor_exits_after_the_single_wake_connect() {
    warm_admission();
    let report = model::check(&model::Config::dfs(2), || {
        let front = Arc::new(Front::new());
        let client_conn = Arc::new(StandIn::default());
        let acceptor = {
            let front = front.clone();
            model::spawn(move || front.accept_loop())
        };
        let client = {
            let front = front.clone();
            let conn = client_conn.clone();
            model::spawn(move || front.connect(conn))
        };
        let stopper = {
            let front = front.clone();
            model::spawn(move || {
                front.request_shutdown();
                front.request_shutdown();
            })
        };
        let registered = acceptor.join().expect("the acceptor exits");
        client.join();
        stopper.join();
        assert_eq!(front.wakes.load(Ordering::SeqCst), 1, "one wake-connect");
        assert!(registered <= 1);
        if registered == 1 {
            assert!(client_conn.read_shut.load(Ordering::SeqCst));
        }
    });
    eprintln!("model net_accept_wake: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}

/// Property 3: a handler whose request was admitted before shutdown
/// still gets its reply and can write it — the sweep shuts only the
/// read half, and the closed queue still drains to the worker. A
/// request offered after the close gets an honest shed instead.
#[test]
fn in_flight_replies_survive_shutdown() {
    warm_admission();
    let report = model::check(&model::Config::dfs(2), || {
        let front = Arc::new(Front::new());
        let conn = Arc::new(StandIn::default());
        assert!(front.register(conn.clone()));
        let handler = {
            let front = front.clone();
            let conn = conn.clone();
            model::spawn(move || {
                let slot = Arc::new(ReplySlot::default());
                let reply = match front.queue.offer(slot.clone(), None) {
                    Err(_) => "shed",
                    Ok(()) => {
                        let mut reply = slot.reply.lock();
                        loop {
                            if let Some(r) = *reply {
                                break r;
                            }
                            reply = slot.ready.wait(reply);
                        }
                    }
                };
                // The write: a shut write half would lose the reply.
                assert!(
                    !conn.write_shut.load(Ordering::SeqCst),
                    "the sweep must leave the write half open"
                );
                reply
            })
        };
        let worker = {
            let front = front.clone();
            model::spawn(move || {
                while let Some(job) = front.queue.take() {
                    *job.item.reply.lock() = Some("ok");
                    job.item.ready.notify_all();
                }
            })
        };
        let stopper = {
            let front = front.clone();
            model::spawn(move || front.request_shutdown())
        };
        let reply = handler.join().expect("the handler gets a reply");
        worker.join();
        stopper.join();
        assert!(reply == "ok" || reply == "shed", "{reply}");
        assert!(conn.read_shut.load(Ordering::SeqCst), "swept");
    });
    eprintln!("model net_drain: {}", report.summary());
    assert!(report.ok(), "{}", report.summary());
    assert!(report.exhaustive, "DFS must exhaust the bounded schedules");
}
