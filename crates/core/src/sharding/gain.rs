//! The cross-shard marginal-gain combiner: greedy MaxkCovRST as a
//! scatter–gather round protocol.
//!
//! Plain greedy folds, per round and per candidate, a stream of per-user
//! marginal deltas in ascending trajectory-id order
//! ([`Coverage::marginal_views`]). Users are partitioned across shards
//! and shard-local ids are assigned in ascending global-id order, so each
//! shard can emit **its** slice of that stream locally (in ascending
//! global-id order after translation), and a k-way merge of the per-shard
//! streams reproduces the single-engine fold order — and therefore, since
//! floating-point addition is order-sensitive, the single engine's exact
//! gain bits. The winner is picked with the same `1e-12`/lowest-id rule,
//! every shard folds the winner into its local coverage, and the front
//! end replays the winner's merged delta stream into the running combined
//! value, reproducing [`Coverage::add_views`]' accumulation bit-for-bit.
//!
//! [`GainCombiner`] is the round protocol's participant interface. The
//! in-process [`LocalGains`] implements it over a shard's
//! [`ServedTable`]; the same protocol — score remaining candidates,
//! commit winner, report served count — is what a future distributed
//! max-cov would speak over `tqd` connections, which is why it is a trait
//! and not three inlined loops.

use crate::maxcov::{Coverage, ServedTable};
use crate::service::ServiceModel;
use std::sync::Arc;
use tq_trajectory::{FacilityId, TrajectoryId, UserSet};

/// One shard's participant in the greedy combiner rounds. Ids in emitted
/// streams are **global**; candidate indices refer to the shared candidate
/// order (identical on every shard and on the merged table).
pub trait GainCombiner {
    /// Per-candidate marginal-delta streams against the participant's
    /// current coverage, one per entry of `remaining`, each sorted by
    /// ascending global trajectory id. An entry is emitted exactly where
    /// `Coverage::marginal_views` would execute a `gain +=`.
    fn score(&self, remaining: &[usize]) -> Vec<Vec<(TrajectoryId, f64)>>;

    /// Folds candidate `winner`'s masks into the participant's coverage.
    fn commit(&mut self, winner: usize);

    /// Number of locally-owned users with strictly positive combined
    /// value under the current coverage.
    fn users_served(&self) -> usize;
}

/// The in-process [`GainCombiner`]: a shard's served table (its rows are
/// already in canonical order), its local→global id map, and a local
/// [`Coverage`] keyed by shard-local ids.
pub struct LocalGains {
    /// Per-candidate canonical-order masks, read in place.
    table: Arc<ServedTable>,
    /// Shard-local id → global id (monotone by construction).
    locals: Arc<Vec<TrajectoryId>>,
    users: Arc<UserSet>,
    model: ServiceModel,
    cov: Coverage,
}

impl LocalGains {
    /// A fresh participant over one shard's table.
    pub(crate) fn new(
        table: Arc<ServedTable>,
        locals: Arc<Vec<TrajectoryId>>,
        users: Arc<UserSet>,
        model: ServiceModel,
    ) -> LocalGains {
        LocalGains {
            table,
            locals,
            users,
            model,
            cov: Coverage::new(),
        }
    }
}

impl GainCombiner for LocalGains {
    fn score(&self, remaining: &[usize]) -> Vec<Vec<(TrajectoryId, f64)>> {
        let mut scratch = Vec::new();
        remaining
            .iter()
            .map(|&ci| {
                scratch.clear();
                self.cov.marginal_deltas_views(
                    &self.users,
                    &self.model,
                    self.table.masks[ci].views(),
                    &mut scratch,
                );
                scratch
                    .iter()
                    .map(|&(lid, d)| (self.locals[lid as usize], d))
                    .collect()
            })
            .collect()
    }

    fn commit(&mut self, winner: usize) {
        // Field-disjoint borrows: `cov` is mutated while the mask views
        // stream out of `table`.
        let LocalGains {
            table,
            users,
            model,
            cov,
            ..
        } = self;
        cov.add(users, model, &table.masks[winner]);
    }

    fn users_served(&self) -> usize {
        self.cov.users_served(&self.users, &self.model)
    }
}

/// Folds the disjoint per-shard streams in ascending global-id order,
/// calling `fold` once per merged entry. Streams are pre-sorted and the
/// id spaces are disjoint (users live on exactly one shard), so a plain
/// pointer merge suffices.
fn fold_merged(streams: &[&[(TrajectoryId, f64)]], mut fold: impl FnMut(f64)) {
    let mut idx = vec![0usize; streams.len()];
    loop {
        let mut next: Option<(usize, TrajectoryId)> = None;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(&(gid, _)) = stream.get(idx[s]) {
                if next.is_none_or(|(_, best)| gid < best) {
                    next = Some((s, gid));
                }
            }
        }
        let Some((s, _)) = next else { break };
        fold(streams[s][idx[s]].1);
        idx[s] += 1;
    }
}

/// The gather half of the greedy rounds: scores all remaining candidates
/// through the participants, merges their delta streams, selects winners
/// with plain greedy's exact comparator, and accumulates the combined
/// value by replaying winner streams entry-by-entry.
///
/// Returns `(chosen ids, combined value, users served)` — bit-identical
/// to [`crate::maxcov::greedy`] over the equivalent merged table.
pub(crate) fn sharded_greedy<W: GainCombiner + Sync>(
    workers: &mut [W],
    ids: &[FacilityId],
    k: usize,
) -> (Vec<FacilityId>, f64, usize) {
    let n = ids.len();
    let mut value = 0.0f64;
    let mut used = vec![false; n];
    let mut chosen = Vec::with_capacity(k.min(n));
    for _ in 0..k.min(n) {
        let remaining: Vec<usize> = (0..n).filter(|&i| !used[i]).collect();
        let rem = remaining.as_slice();
        // Scatter: each participant scores every remaining candidate
        // against its local coverage, in parallel across shards.
        let streams: Vec<Vec<Vec<(TrajectoryId, f64)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter()
                .map(|w| scope.spawn(move || w.score(rem)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Gather: fold each candidate's merged stream for its gain, then
        // select with plain greedy's tolerance/lowest-id comparator.
        let mut winner_streams: Vec<&[(TrajectoryId, f64)]> = Vec::new();
        let mut best: Option<(usize, f64)> = None;
        for (ri, &i) in remaining.iter().enumerate() {
            let per_shard: Vec<&[(TrajectoryId, f64)]> =
                streams.iter().map(|s| s[ri].as_slice()).collect();
            let mut gain = 0.0f64;
            fold_merged(&per_shard, |d| gain += d);
            let take = match best {
                Some((bi, bg)) => {
                    gain > bg + 1e-12 || (gain > bg - 1e-12 && ids[i] < ids[bi])
                }
                None => true,
            };
            if take {
                best = Some((i, gain));
                winner_streams = per_shard;
            }
        }
        let Some((bi, _)) = best else { break };
        used[bi] = true;
        // Replay the winner's merged stream into the running value —
        // entry-by-entry, exactly as `Coverage::add_views` accumulates
        // (`value += gain_of_round` would associate differently).
        fold_merged(&winner_streams, |d| value += d);
        for w in workers.iter_mut() {
            w.commit(bi);
        }
        chosen.push(ids[bi]);
    }
    let served = workers.iter().map(|w| w.users_served()).sum();
    (chosen, value, served)
}
