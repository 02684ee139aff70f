//! Stage-by-stage replay of one `CoreCover` run through viewplan-core's
//! root-exported functions, so the traced run can time each stage from
//! the benchmark's own code. The sequence mirrors `CoreCover::try_run`
//! (and `try_run_all_minimal`) with the default configuration over a
//! `PreparedViews` set; `replay_matches_try_run` in the tests pins that
//! the two produce the same rewritings.

use std::time::{Duration, Instant};
use viewplan_containment::{are_equivalent, expand, minimize};
use viewplan_core::cover::all_minimum_covers_counted;
use viewplan_core::{
    all_irredundant_covers_counted, body_signature, dedup_variants_with_map, parallel_map,
    tuple_core, view_is_unusable, view_tuple_classes, view_tuples_with_threads, CoreError,
    PreparedViews, Rewriting, TupleCore, MAX_SUBGOALS,
};
use viewplan_cq::{ConjunctiveQuery, ViewSet};
use viewplan_obs as obs;

/// Wall time of each replayed stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub minimize: Duration,
    pub prune: Duration,
    pub view_tuples: Duration,
    pub tuple_cores: Duration,
    pub set_cover: Duration,
    pub build: Duration,
    pub dedup: Duration,
    /// Expansion checks; debug builds only, as in `try_run`.
    pub verify: Duration,
}

impl StageTimes {
    pub fn total(&self) -> Duration {
        self.minimize
            + self.prune
            + self.view_tuples
            + self.tuple_cores
            + self.set_cover
            + self.build
            + self.dedup
            + self.verify
    }

    pub fn add(&mut self, o: &StageTimes) {
        self.minimize += o.minimize;
        self.prune += o.prune;
        self.view_tuples += o.view_tuples;
        self.tuple_cores += o.tuple_cores;
        self.set_cover += o.set_cover;
        self.build += o.build;
        self.dedup += o.dedup;
        self.verify += o.verify;
    }
}

/// What one replay produced.
pub struct Replay {
    pub times: StageTimes,
    pub rewritings: Vec<Rewriting>,
    pub view_tuples: usize,
    pub representative_tuples: usize,
    /// Covers found by the set-cover search, before dedup.
    pub candidates: usize,
    /// `cover.search_nodes` delta of the set-cover stage (0 unless
    /// `viewplan_obs` collection is on).
    pub set_cover_nodes: u64,
}

fn timed<R>(slot: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Replays `CoreCover` over `prepared` for `query`: GMRs when
/// `minimum_only`, else the `CoreCover*` space capped at `max_rewritings`.
pub fn replay(
    query: &ConjunctiveQuery,
    prepared: &PreparedViews,
    threads: usize,
    minimum_only: bool,
    max_rewritings: usize,
) -> Result<Replay, CoreError> {
    let mut t = StageTimes::default();
    let qm = timed(&mut t.minimize, || minimize(query));
    if qm.body.len() > MAX_SUBGOALS {
        return Err(CoreError::TooManySubgoals {
            subgoals: qm.body.len(),
        });
    }
    let active: ViewSet = timed(&mut t.prune, || {
        let needed = body_signature(&qm);
        ViewSet::from_views(
            prepared
                .representatives()
                .iter()
                .filter(|v| !view_is_unusable(&needed, v))
                .cloned(),
        )
    });
    let tuples = timed(&mut t.view_tuples, || {
        view_tuples_with_threads(&qm, &active, threads)
    });
    let (cores, classes) = timed(&mut t.tuple_cores, || {
        let cores: Vec<TupleCore> =
            parallel_map(threads, &tuples, |tv| tuple_core(&qm, tv, &active));
        let classes = view_tuple_classes(&cores);
        (cores, classes)
    });
    let universe: u64 = if qm.body.is_empty() {
        0
    } else {
        u64::MAX >> (64 - qm.body.len())
    };
    let nodes_before = obs::counter_value("cover.search_nodes");
    let (candidate_indices, covers) = timed(&mut t.set_cover, || {
        let candidate_indices: Vec<usize> = classes
            .iter()
            .map(|class| class[0])
            .filter(|&i| !cores[i].is_empty())
            .collect();
        let masks: Vec<u64> = candidate_indices
            .iter()
            .map(|&i| cores[i].bitmask())
            .collect();
        let covers = if minimum_only {
            all_minimum_covers_counted(universe, &masks).covers
        } else {
            all_irredundant_covers_counted(universe, &masks, max_rewritings).covers
        };
        (candidate_indices, covers)
    });
    let set_cover_nodes = obs::counter_value("cover.search_nodes") - nodes_before;
    let candidates: Vec<Rewriting> = timed(&mut t.build, || {
        covers
            .iter()
            .map(|cover| {
                ConjunctiveQuery::new(
                    qm.head.clone(),
                    cover
                        .iter()
                        .map(|&k| tuples[candidate_indices[k]].atom.clone())
                        .collect(),
                )
            })
            .collect()
    });
    let candidate_count = candidates.len();
    let (mut rewritings, _) = timed(&mut t.dedup, || dedup_variants_with_map(candidates));
    if cfg!(debug_assertions) {
        rewritings = timed(&mut t.verify, || {
            let ok = parallel_map(threads, &rewritings, |r| {
                expand(r, &active).is_ok_and(|exp| are_equivalent(&exp, &qm))
            });
            rewritings
                .into_iter()
                .zip(ok)
                .filter_map(|(r, ok)| ok.then_some(r))
                .collect()
        });
    }
    Ok(Replay {
        times: t,
        rewritings,
        view_tuples: tuples.len(),
        representative_tuples: candidate_indices.len(),
        candidates: candidate_count,
        set_cover_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use viewplan_core::{CoreCover, CoreCoverConfig};
    use viewplan_workload::{generate, WorkloadConfig};

    fn printed(rs: &[Rewriting]) -> Vec<String> {
        rs.iter().map(|r| r.to_string()).collect()
    }

    #[test]
    fn replay_matches_try_run() {
        for seed in 1..=4u64 {
            for (make, minimum_only) in [
                (
                    WorkloadConfig::star as fn(usize, usize, u64) -> WorkloadConfig,
                    true,
                ),
                (WorkloadConfig::chain, false),
                (WorkloadConfig::random, true),
            ] {
                let w = generate(&make(40, 1, seed));
                let prepared = PreparedViews::prepare(&w.views);
                let config = CoreCoverConfig {
                    threads: 2,
                    ..CoreCoverConfig::default()
                };
                let run = CoreCover::with_prepared_views(&w.query, &prepared).with_config(config);
                let expected = if minimum_only {
                    run.try_run()
                } else {
                    run.try_run_all_minimal()
                }
                .expect("8-subgoal queries fit the cover masks");
                let got = replay(&w.query, &prepared, 2, minimum_only, 10_000).expect("fits");
                assert_eq!(printed(&got.rewritings), printed(expected.rewritings()));
                assert_eq!(got.view_tuples, expected.stats.view_tuples);
                assert_eq!(
                    got.representative_tuples,
                    expected.stats.representative_tuples
                );
            }
        }
    }
}
