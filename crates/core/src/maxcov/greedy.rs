//! Greedy MaxkCovRST approximation (paper §V-A).
//!
//! The straightforward greedy iteratively adds the facility with the largest
//! *marginal* combined gain, correctly discounting users (and user points)
//! already served by earlier picks. The two-step variant first narrows the
//! candidate pool to the `k' ≥ k` individually best facilities via the
//! kMaxRRST best-first search, then runs greedy on those only — the paper's
//! practical accelerator.

use super::{Coverage, CovOutcome, ServedTable};
use crate::parallel;
use crate::service::ServiceModel;
use crate::topk::top_k_facilities;
use crate::tqtree::TqTree;
use tq_trajectory::{FacilitySet, UserSet};

/// Greedy over a pre-built [`ServedTable`]. Selects `k` facilities (or all,
/// when fewer candidates exist), each maximizing the marginal combined gain.
///
/// Each round's marginal gains are computed in parallel (one pure
/// `Coverage::marginal` per remaining candidate); the winner is then picked
/// by a serial scan of the ordered gain vector, so the selection — ties
/// break toward the lower facility id — is identical to the sequential
/// algorithm regardless of thread count.
pub fn greedy(
    table: &ServedTable,
    users: &UserSet,
    model: &ServiceModel,
    k: usize,
) -> CovOutcome {
    let mut cov = Coverage::new();
    let mut chosen = Vec::with_capacity(k.min(table.len()));
    let mut used = vec![false; table.len()];
    for _ in 0..k.min(table.len()) {
        // No lazy-greedy shortcut here: under the non-submodular service
        // function a facility's marginal gain may exceed its individual
        // value (paper Lemma 1), so every candidate must be re-evaluated
        // each round.
        let remaining: Vec<usize> = (0..table.len()).filter(|&i| !used[i]).collect();
        let gains = parallel::par_map(&remaining, |&i| {
            cov.marginal(users, model, &table.masks[i])
        });
        let mut best: Option<(usize, f64)> = None;
        for (&i, &gain) in remaining.iter().zip(&gains) {
            match best {
                Some((bi, bg)) => {
                    if gain > bg + 1e-12
                        || (gain > bg - 1e-12 && table.ids[i] < table.ids[bi])
                    {
                        best = Some((i, gain));
                    }
                }
                None => best = Some((i, gain)),
            }
        }
        let Some((bi, _)) = best else { break };
        used[bi] = true;
        cov.add(users, model, &table.masks[bi]);
        chosen.push(table.ids[bi]);
    }
    CovOutcome {
        chosen,
        value: cov.value(),
        users_served: cov.users_served(users, model),
        stats: table.stats,
    }
}

/// The paper's two-step greedy: kMaxRRST narrows `facilities` down to the
/// `k_prime` individually best candidates, then [`greedy`] picks `k` of
/// them with overlap-aware marginal gains.
///
/// `k_prime` defaults (when `None`) to `max(4k, 32)` — see DESIGN.md §5.
pub fn two_step_greedy(
    tree: &TqTree,
    users: &UserSet,
    model: &ServiceModel,
    facilities: &FacilitySet,
    k: usize,
    k_prime: Option<usize>,
) -> CovOutcome {
    let kp = k_prime.unwrap_or_else(|| (4 * k).max(32)).max(k);
    let top = top_k_facilities(tree, users, model, facilities, kp.min(facilities.len()));
    let candidates: Vec<_> = top.ranked.iter().map(|(id, _)| *id).collect();
    let mut table = ServedTable::build_for(tree, users, model, facilities, &candidates);
    table.stats.add(&top.stats);
    greedy(&table, users, model, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Scenario;
    use crate::tqtree::TqTreeConfig;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_geometry::Point;
    use tq_trajectory::{Facility, Trajectory};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// Scenario of the paper's Example 1: greedy with overlap awareness must
    /// prefer complementary facilities over individually strong but
    /// redundant ones.
    #[test]
    fn greedy_prefers_complementary_coverage() {
        // Users in two clusters, A (6 users) and B (4 users).
        let mut trajs = Vec::new();
        for i in 0..6 {
            let off = i as f64 * 0.1;
            trajs.push(Trajectory::two_point(p(0.0 + off, 0.0), p(2.0 + off, 0.0)));
        }
        for i in 0..4 {
            let off = i as f64 * 0.1;
            trajs.push(Trajectory::two_point(p(50.0 + off, 0.0), p(52.0 + off, 0.0)));
        }
        let users = UserSet::from_vec(trajs);
        // f0, f1 both cover cluster A; f2 covers cluster B.
        let facilities = FacilitySet::from_vec(vec![
            Facility::new(vec![p(0.3, 0.2), p(2.3, 0.2)]),
            Facility::new(vec![p(0.25, -0.2), p(2.25, -0.2)]),
            Facility::new(vec![p(50.2, 0.2), p(52.2, 0.2)]),
        ]);
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let out = greedy(&table, &users, &model, 2);
        // First pick: a cluster-A facility (6 users) — then the cluster-B
        // one (4 more), NOT the redundant A facility (0 more).
        assert_eq!(out.chosen.len(), 2);
        assert!(out.chosen.contains(&2), "must pick the complementary f2");
        assert_eq!(out.value, 10.0);
        assert_eq!(out.users_served, 10);
    }

    #[test]
    fn greedy_ties_break_deterministically() {
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(0.0, 0.0), p(2.0, 0.0))]);
        let f = Facility::new(vec![p(0.0, 0.5), p(2.0, 0.5)]);
        let facilities = FacilitySet::from_vec(vec![f.clone(), f]);
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let out = greedy(&table, &users, &model, 1);
        assert_eq!(out.chosen, vec![0]);
    }

    #[test]
    fn greedy_k_exceeding_candidates() {
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(0.0, 0.0), p(2.0, 0.0))]);
        let facilities =
            FacilitySet::from_vec(vec![Facility::new(vec![p(0.0, 0.5), p(2.0, 0.5)])]);
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let out = greedy(&table, &users, &model, 5);
        assert_eq!(out.chosen.len(), 1);
    }

    #[test]
    fn two_step_matches_full_greedy_with_large_k_prime() {
        let mut rng = StdRng::seed_from_u64(91);
        let users = UserSet::from_vec(
            (0..300)
                .map(|_| {
                    Trajectory::two_point(
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    )
                })
                .collect(),
        );
        let facilities = FacilitySet::from_vec(
            (0..20)
                .map(|_| {
                    let mut x = rng.gen_range(5.0..95.0);
                    let mut y = rng.gen_range(5.0..95.0);
                    Facility::new(
                        (0..6)
                            .map(|_| {
                                x = (x + rng.gen_range(-8.0..8.0f64)).clamp(0.0, 100.0);
                                y = (y + rng.gen_range(-8.0..8.0f64)).clamp(0.0, 100.0);
                                p(x, y)
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let model = ServiceModel::new(Scenario::Transit, 5.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        // k' = |F| → identical candidate pool → identical result.
        let full_table = ServedTable::build(&tree, &users, &model, &facilities);
        let full = greedy(&full_table, &users, &model, 4);
        let two = two_step_greedy(&tree, &users, &model, &facilities, 4, Some(20));
        assert_eq!(full.value, two.value);
        assert_eq!(full.chosen, two.chosen);
    }

    #[test]
    fn two_step_with_small_k_prime_still_reasonable() {
        let mut rng = StdRng::seed_from_u64(92);
        let users = UserSet::from_vec(
            (0..200)
                .map(|_| {
                    Trajectory::two_point(
                        p(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                        p(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)),
                    )
                })
                .collect(),
        );
        let facilities = FacilitySet::from_vec(
            (0..16)
                .map(|i| {
                    let x = (i % 4) as f64 * 12.0 + 5.0;
                    let y = (i / 4) as f64 * 12.0 + 5.0;
                    Facility::new(vec![p(x, y), p(x + 4.0, y), p(x, y + 4.0)])
                })
                .collect(),
        );
        let model = ServiceModel::new(Scenario::Transit, 6.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let two = two_step_greedy(&tree, &users, &model, &facilities, 3, Some(8));
        let best_single = ServedTable::build(&tree, &users, &model, &facilities)
            .values
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!(
            two.value >= best_single,
            "greedy set must be at least as good as the best single facility"
        );
        assert_eq!(two.chosen.len(), 3);
    }

    #[test]
    fn greedy_value_monotone_in_k() {
        let mut rng = StdRng::seed_from_u64(93);
        let users = UserSet::from_vec(
            (0..150)
                .map(|_| {
                    Trajectory::two_point(
                        p(rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)),
                        p(rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)),
                    )
                })
                .collect(),
        );
        let facilities = FacilitySet::from_vec(
            (0..10)
                .map(|_| {
                    let x = rng.gen_range(5.0..55.0);
                    let y = rng.gen_range(5.0..55.0);
                    Facility::new(vec![p(x, y), p(x + 3.0, y + 3.0)])
                })
                .collect(),
        );
        let model = ServiceModel::new(Scenario::Transit, 5.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let mut last = 0.0;
        for k in 1..=6 {
            let out = greedy(&table, &users, &model, k);
            assert!(out.value >= last - 1e-12, "greedy value dropped at k={k}");
            last = out.value;
        }
    }
}
