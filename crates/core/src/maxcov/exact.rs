//! Exact MaxkCovRST via branch-and-bound.
//!
//! The paper's exact reference ("iterate through all possible combinations")
//! is only needed at small candidate counts to report approximation ratios
//! (Fig. 11). We make it practical with a branch-and-bound whose pruning
//! bound respects the problem's **non-submodularity**: a facility's marginal
//! gain may *exceed* its individual value (paper Lemma 1 — a facility that
//! completes another's half-served users gains more in combination), so
//! bounding by individual values would wrongly prune optima. The admissible
//! per-facility bound is its *potential*: the sum of `max_value(u)` over
//! every user it touches — no superset can ever extract more from it.
//! Candidates are sorted by potential; a DFS node is pruned when the current
//! combined value plus the `k - |chosen|` largest remaining potentials
//! cannot beat the incumbent (seeded by greedy).

use super::{greedy, Coverage, CovOutcome, ServedTable};
use crate::service::ServiceModel;
use tq_trajectory::UserSet;

/// Exact MaxkCovRST over the candidates of `table`.
///
/// `node_budget` caps the number of DFS nodes explored; `None` means
/// unlimited. Returns `None` when the budget is exhausted before the search
/// completes (the incumbent may then be suboptimal, so nothing is returned
/// rather than something mislabeled "exact").
pub fn exact(
    table: &ServedTable,
    users: &UserSet,
    model: &ServiceModel,
    k: usize,
    node_budget: Option<usize>,
) -> Option<CovOutcome> {
    let n = table.len();
    let k = k.min(n);
    if k == 0 {
        return Some(CovOutcome {
            chosen: Vec::new(),
            value: 0.0,
            users_served: 0,
            stats: table.stats,
        });
    }

    // Admissible per-facility potential: Σ max_value(u) over touched users.
    // Marginal gain under ANY coverage state is at most this (each touched
    // user contributes at most its max value, untouched users contribute 0).
    // Summed in the rows' ascending-id order so the candidate ordering —
    // and with it the search — is deterministic for any two content-equal
    // tables, e.g. across engine backends.
    let potentials: Vec<f64> = table
        .masks
        .iter()
        .map(|m| m.ids().map(|id| model.max_value(users.get(id))).sum::<f64>())
        .collect();

    // Candidate order: by potential, descending (best bounds first).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| potentials[b].total_cmp(&potentials[a]));

    // The sum of the r largest potentials in order[i..] is — because the
    // order is descending — the sum of the first r from position i.
    let sorted_pots: Vec<f64> = order.iter().map(|&i| potentials[i]).collect();
    let mut prefix = vec![0.0; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + sorted_pots[i];
    }
    // Seed the incumbent with greedy — a strong lower bound that makes the
    // pruning bite immediately.
    let seed = greedy::greedy(table, users, model, k);
    let best_value = seed.value;
    let best_set: Vec<usize> = seed
        .chosen
        .iter()
        .map(|fid| table.ids.iter().position(|i| i == fid).expect("greedy id"))
        .collect();

    struct Dfs<'a> {
        table: &'a ServedTable,
        users: &'a UserSet,
        model: &'a ServiceModel,
        order: &'a [usize],
        /// Prefix sums of the descending potential order: the sum of the
        /// `r` best remaining potentials from position `i` is
        /// `prefix[min(i + r, n)] - prefix[i]`.
        prefix: &'a [f64],
        k: usize,
        nodes: usize,
        budget: usize,
        exhausted: bool,
        best_value: f64,
        best_set: Vec<usize>,
    }

    impl Dfs<'_> {
        fn top_sum(&self, from: usize, r: usize) -> f64 {
            let to = (from + r).min(self.order.len());
            self.prefix[to] - self.prefix[from]
        }

        fn run(&mut self, pos: usize, chosen: &mut Vec<usize>, cov: &mut Coverage) {
            if chosen.len() == self.k {
                if cov.value() > self.best_value + 1e-12 {
                    self.best_value = cov.value();
                    self.best_set = chosen.clone();
                }
                return;
            }
            let need = self.k - chosen.len();
            for i in pos..self.order.len() {
                if self.exhausted {
                    return;
                }
                // Not enough candidates left to fill the subset.
                if self.order.len() - i < need {
                    break;
                }
                // Admissible bound: current value + best `need` remaining
                // potentials.
                if cov.value() + self.top_sum(i, need) <= self.best_value + 1e-12 {
                    break; // sorted order → no later i can do better
                }
                self.nodes += 1;
                if self.nodes > self.budget {
                    self.exhausted = true;
                    return;
                }
                let cand = self.order[i];
                let undo =
                    cov.add_undoable(self.users, self.model, &self.table.masks[cand]);
                chosen.push(cand);
                self.run(i + 1, chosen, cov);
                chosen.pop();
                cov.undo(undo);
            }
        }
    }

    let mut dfs = Dfs {
        table,
        users,
        model,
        order: &order,
        prefix: &prefix,
        k,
        nodes: 0,
        budget: node_budget.unwrap_or(usize::MAX),
        exhausted: false,
        best_value,
        best_set,
    };
    let mut cov = Coverage::new();
    let mut chosen = Vec::with_capacity(k);
    dfs.run(0, &mut chosen, &mut cov);
    if dfs.exhausted {
        return None;
    }
    let best_set = dfs.best_set;

    let mut final_cov = Coverage::new();
    for &i in &best_set {
        final_cov.add(users, model, &table.masks[i]);
    }
    Some(CovOutcome {
        chosen: best_set.iter().map(|&i| table.ids[i]).collect(),
        value: final_cov.value(),
        users_served: final_cov.users_served(users, model),
        stats: table.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Scenario;
    use crate::tqtree::{TqTree, TqTreeConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_geometry::Point;
    use tq_trajectory::{Facility, FacilitySet, Trajectory};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn random_instance(
        n_users: usize,
        n_fac: usize,
        seed: u64,
    ) -> (UserSet, FacilitySet) {
        let mut rng = StdRng::seed_from_u64(seed);
        let users = UserSet::from_vec(
            (0..n_users)
                .map(|_| {
                    Trajectory::two_point(
                        p(rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)),
                        p(rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)),
                    )
                })
                .collect(),
        );
        let facilities = FacilitySet::from_vec(
            (0..n_fac)
                .map(|_| {
                    let mut x = rng.gen_range(5.0..55.0);
                    let mut y = rng.gen_range(5.0..55.0);
                    Facility::new(
                        (0..4)
                            .map(|_| {
                                x = (x + rng.gen_range(-6.0..6.0f64)).clamp(0.0, 60.0);
                                y = (y + rng.gen_range(-6.0..6.0f64)).clamp(0.0, 60.0);
                                p(x, y)
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        (users, facilities)
    }

    /// Brute-force all combinations as the reference for the B&B.
    fn brute_best(
        table: &ServedTable,
        users: &UserSet,
        model: &ServiceModel,
        k: usize,
    ) -> f64 {
        fn rec(
            table: &ServedTable,
            users: &UserSet,
            model: &ServiceModel,
            start: usize,
            left: usize,
            subset: &mut Vec<usize>,
            best: &mut f64,
        ) {
            if left == 0 {
                let v = Coverage::value_of_subset(table, users, model, subset);
                if v > *best {
                    *best = v;
                }
                return;
            }
            for i in start..table.len() {
                subset.push(i);
                rec(table, users, model, i + 1, left - 1, subset, best);
                subset.pop();
            }
        }
        let mut best = 0.0;
        rec(table, users, model, 0, k, &mut Vec::new(), &mut best);
        best
    }

    #[test]
    fn exact_matches_brute_force_enumeration() {
        for seed in 0..4 {
            let (users, facilities) = random_instance(150, 10, 100 + seed);
            let model = ServiceModel::new(Scenario::Transit, 5.0);
            let tree = TqTree::build(&users, TqTreeConfig::default());
            let table = ServedTable::build(&tree, &users, &model, &facilities);
            for k in [1, 2, 3] {
                let got = exact(&table, &users, &model, k, None).expect("no budget");
                let want = brute_best(&table, &users, &model, k);
                assert!(
                    (got.value - want).abs() < 1e-9,
                    "seed {seed} k {k}: got {} want {want}",
                    got.value
                );
                assert_eq!(got.chosen.len(), k.min(table.len()));
            }
        }
    }

    #[test]
    fn exact_at_least_greedy() {
        let (users, facilities) = random_instance(200, 12, 7);
        let model = ServiceModel::new(Scenario::PointCount, 4.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let g = greedy::greedy(&table, &users, &model, 3);
        let e = exact(&table, &users, &model, 3, None).unwrap();
        assert!(e.value >= g.value - 1e-12);
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let (users, facilities) = random_instance(100, 12, 8);
        let model = ServiceModel::new(Scenario::Transit, 5.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        // A budget of 1 node cannot finish any non-trivial search.
        assert!(exact(&table, &users, &model, 3, Some(1)).is_none());
    }

    #[test]
    fn k_zero_and_empty_table() {
        let (users, facilities) = random_instance(20, 3, 9);
        let model = ServiceModel::new(Scenario::Transit, 5.0);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let table = ServedTable::build(&tree, &users, &model, &facilities);
        let z = exact(&table, &users, &model, 0, None).unwrap();
        assert_eq!(z.value, 0.0);
        assert!(z.chosen.is_empty());
    }
}
