//! The paper's baseline (**BL** / **G-BL**) query processing.
//!
//! BL indexes the individual *points* of all user trajectories in a
//! traditional spatial index (a point quadtree, as in the paper's §VI) and
//! evaluates each facility in the paper's own words: *"the user trajectories
//! that are within ψ distance are retrieved by executing a range query in a
//! traditional index"* — i.e. one rectangular range query over the
//! facility's ψ-expanded MBR (EMBR), after which every candidate trajectory
//! is verified exactly, testing its points against every stop. The lack of
//! any per-stop locality in that candidate set is precisely what the TQ-tree
//! improves on, and what the paper's 2–3 order-of-magnitude gaps measure.
//! kMaxRRST degenerates to "evaluate every facility, sort, take k";
//! MaxkCovRST's greedy (G-BL) feeds the same per-facility masks into the
//! shared greedy solver of `tq-core`.
//!
//! The baseline produces *exactly* the same service values and masks as the
//! TQ-tree evaluators (integration tests enforce this); only the work it
//! performs differs. Values are summed in the canonical ascending
//! trajectory-id order ([`crate::eval::canonical_value`]), so baseline
//! answers are **bit-identical** to the TQ-tree answers — which is what lets
//! [`crate::engine::Engine`] treat the two as interchangeable
//! [`crate::engine::Backend`]s and cross-check them against each other.
//! (The baseline always evaluates *every* trajectory point; a TQ-tree
//! under two-point placement exposes only endpoints, so over multipoint
//! data the identity requires the segmented or full-trajectory placement
//! — see the [`crate::engine`] docs.)

use crate::eval::{EvalOutcome, EvalStats};
use crate::fasthash::FxHashMap;
use crate::maxcov::{greedy, CovOutcome, ServedTable};
use crate::service::{PointMask, ServiceModel};
use crate::topk::TopKOutcome;
use tq_geometry::{Point, Rect};
use tq_quadtree::QuadTree;
use tq_trajectory::{FacilityId, FacilitySet, TrajectoryId, UserSet};

/// Leaf capacity of the baseline's point quadtree.
pub const DEFAULT_LEAF_CAPACITY: usize = 64;

/// The baseline index: every point of every user trajectory, individually.
#[derive(Debug, Clone)]
pub struct BaselineIndex {
    tree: QuadTree<(TrajectoryId, u32)>,
}

impl BaselineIndex {
    /// Indexes all points of `users` in a point quadtree.
    pub fn build(users: &UserSet) -> BaselineIndex {
        Self::build_with_capacity(users, DEFAULT_LEAF_CAPACITY)
    }

    /// Like [`BaselineIndex::build`] with an explicit leaf capacity.
    pub fn build_with_capacity(users: &UserSet, capacity: usize) -> BaselineIndex {
        let bounds = users
            .mbr()
            .map(|r| r.expand((r.width().max(r.height()) * 1e-3).max(1e-9)))
            .unwrap_or_else(|| Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        let mut tree = QuadTree::with_max_depth(bounds, capacity.max(1), 24);
        for (id, t) in users.iter() {
            for (i, &p) in t.points().iter().enumerate() {
                tree.insert(p, (id, i as u32));
            }
        }
        BaselineIndex { tree }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// The leaf capacity the index was built with — the build parameter
    /// the snapshot format persists so a load can rebuild this index
    /// bit-identically from the decoded user set.
    pub fn capacity(&self) -> usize {
        self.tree.capacity()
    }

    /// Returns `true` when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Evaluates one facility the paper's way: one range query over the
    /// facility's EMBR retrieves every candidate user trajectory, then each
    /// candidate is verified exactly against every stop.
    ///
    /// Note the asymmetry to the TQ-tree methods: the candidate set carries
    /// no per-stop locality, so a trajectory anywhere inside the (large)
    /// EMBR pays `O(|u| · |stops|)` distance tests.
    pub fn evaluate(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facility: &tq_trajectory::Facility,
    ) -> EvalOutcome {
        let mut stats = EvalStats::default();
        let psi = model.psi;
        let psi_sq = psi * psi;
        let embr = facility.embr(psi);
        stats.nodes_visited += 1; // one range query per facility

        // Phase 1: candidate retrieval (the paper's "range query in a
        // traditional index").
        let mut candidates: FxHashMap<TrajectoryId, ()> = FxHashMap::default();
        self.tree.range_visit(&embr, |_, (traj, _)| {
            candidates.entry(traj).or_insert(());
        });

        // Phase 2: exact verification of each candidate trajectory.
        let mut masks: FxHashMap<TrajectoryId, PointMask> = FxHashMap::default();
        for (&traj, _) in candidates.iter() {
            stats.items_tested += 1;
            let t = users.get(traj);
            let mut mask: Option<PointMask> = None;
            for (i, p) in t.points().iter().enumerate() {
                for s in facility.stops() {
                    stats.distance_checks += 1;
                    if s.dist_sq(p) <= psi_sq {
                        mask.get_or_insert_with(|| PointMask::empty(t.len())).set(i);
                        break;
                    }
                }
            }
            if let Some(m) = mask {
                masks.insert(traj, m);
            }
        }
        // Canonical (ascending-id) summation: bit-identical to what the
        // TQ-tree evaluators report for the same facility.
        let masks = crate::maxcov::MaskRow::from_map(users, model, masks);
        let value = masks.value();
        EvalOutcome {
            value,
            masks,
            stats,
        }
    }

    /// kMaxRRST by exhaustive evaluation: computes every facility's value
    /// and returns the best `k` (the paper's BL query algorithm).
    pub fn top_k(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> TopKOutcome {
        let mut stats = EvalStats::default();
        let mut ranked: Vec<(FacilityId, f64)> = facilities
            .iter()
            .map(|(id, f)| {
                let out = self.evaluate(users, model, f);
                stats.add(&out.stats);
                (id, out.value)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        TopKOutcome {
            ranked,
            stats,
            relaxations: 0,
        }
    }

    /// Builds a [`ServedTable`] (input to the MaxkCovRST solvers) through
    /// baseline evaluation — the table behind the paper's G-BL.
    pub fn served_table(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
    ) -> ServedTable {
        let mut stats = EvalStats::default();
        let mut ids = Vec::with_capacity(facilities.len());
        let mut masks = Vec::with_capacity(facilities.len());
        for (id, f) in facilities.iter() {
            let out = self.evaluate(users, model, f);
            stats.add(&out.stats);
            ids.push(id);
            masks.push(out.masks);
        }
        ServedTable::from_rows(ids, masks, stats)
    }

    /// The paper's G-BL: straightforward greedy MaxkCovRST over baseline
    /// evaluation.
    pub fn greedy_max_cov(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> CovOutcome {
        let table = self.served_table(users, model, facilities);
        greedy(&table, users, model, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use crate::eval::{brute_force_masks, brute_force_value};
    use crate::service::Scenario;
    use tq_trajectory::{Facility, Trajectory};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn random_users(n: usize, seed: u64) -> UserSet {
        let mut rng = StdRng::seed_from_u64(seed);
        UserSet::from_vec(
            (0..n)
                .map(|_| {
                    let len = rng.gen_range(2..5);
                    let pts = (0..len)
                        .map(|_| p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                        .collect();
                    Trajectory::new(pts)
                })
                .collect(),
        )
    }

    fn random_facility(stops: usize, seed: u64) -> Facility {
        let mut rng = StdRng::seed_from_u64(seed);
        Facility::new(
            (0..stops)
                .map(|_| p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                .collect(),
        )
    }

    #[test]
    fn evaluate_matches_oracle_masks_and_values() {
        let users = random_users(300, 1);
        let index = BaselineIndex::build(&users);
        assert_eq!(index.len(), users.total_points());
        for scenario in Scenario::ALL {
            let model = ServiceModel::new(scenario, 6.0);
            for fs in 0..4 {
                let f = random_facility(8, 50 + fs);
                let got = index.evaluate(&users, &model, &f);
                let want_masks = brute_force_masks(&users, &model, &f);
                let want_value = brute_force_value(&users, &model, &f);
                assert!((got.value - want_value).abs() < 1e-9, "{scenario:?}");
                assert_eq!(got.masks.len(), want_masks.len());
                for (id, m) in &want_masks {
                    assert_eq!(got.masks.get(id), Some(m));
                }
            }
        }
    }

    #[test]
    fn top_k_is_sorted_and_exact() {
        let users = random_users(200, 2);
        let index = BaselineIndex::build(&users);
        let model = ServiceModel::new(Scenario::Transit, 8.0);
        let facilities = tq_trajectory::FacilitySet::from_vec(
            (0..10).map(|i| random_facility(5, 100 + i)).collect(),
        );
        let out = index.top_k(&users, &model, &facilities, 3);
        assert_eq!(out.ranked.len(), 3);
        assert!(out.ranked.windows(2).all(|w| w[0].1 >= w[1].1));
        // Exactness against the oracle for the winner.
        let (best_id, best_val) = out.ranked[0];
        let want = brute_force_value(&users, &model, facilities.get(best_id));
        assert!((best_val - want).abs() < 1e-9);
    }

    #[test]
    fn greedy_max_cov_runs_and_counts_overlap_once() {
        let users = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(2.0, 0.0)),
            Trajectory::two_point(p(10.0, 0.0), p(12.0, 0.0)),
        ]);
        let index = BaselineIndex::build(&users);
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let f_both = Facility::new(vec![p(0.0, 0.5), p(2.0, 0.5)]);
        let facilities = tq_trajectory::FacilitySet::from_vec(vec![
            f_both.clone(),
            f_both,
            Facility::new(vec![p(10.0, 0.5), p(12.0, 0.5)]),
        ]);
        let out = index.greedy_max_cov(&users, &model, &facilities, 2);
        assert_eq!(out.value, 2.0);
        assert_eq!(out.users_served, 2);
        assert!(out.chosen.contains(&2), "complementary facility required");
    }

    #[test]
    fn empty_user_set() {
        let users = UserSet::new();
        let index = BaselineIndex::build(&users);
        assert!(index.is_empty());
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let out = index.evaluate(&users, &model, &random_facility(4, 9));
        assert_eq!(out.value, 0.0);
        assert!(out.masks.is_empty());
    }
}
