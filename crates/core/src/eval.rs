//! Divide-and-conquer service evaluation (paper Algorithms 1 and 2).
//!
//! `evaluateService(Q, f)` recursively splits a facility into the components
//! relevant to each child q-node (pruning children farther than `ψ` from
//! every stop) and, at every visited node, evaluates the node's own
//! trajectory list against the component — through `zReduce` for TQ(Z)
//! ([`crate::tqtree::ZList::z_reduce`]) or a linear scan for TQ(B).
//!
//! Two evaluation flavours exist:
//!
//! * [`evaluate_service`] — the service value `SO(U, f)` of one facility,
//!   allowed to use the strongest (scenario-dependent) pruning;
//! * [`evaluate_masks`] — additionally guarantees that *every* servable
//!   point bit is present in the returned masks, which the MaxkCovRST `AGG`
//!   union over facilities requires (a facility that can only serve a user's
//!   destination must still contribute that bit even though the user isn't
//!   individually served).
//!
//! The paper's `MakeUnion` concern — recognizing that spatially disjoint
//! pieces of one facility still belong to the same route — is handled
//! structurally: all recursion branches of one evaluation share the same
//! per-user mask, so a user whose source is served in one subspace and whose
//! destination is served in another is correctly counted as served.

use crate::fasthash::FxHashMap;
use crate::maxcov::MaskRow;
use crate::service::{PointMask, Scenario, ServiceModel};
use crate::tqtree::{NodeId, NodeList, Placement, ReduceMode, ReduceScratch, StoredItem, TqTree, ROOT};
use tq_geometry::{Point, Rect};
use tq_trajectory::{Facility, TrajectoryId, UserSet};

/// A facility component: the stops of one facility that are relevant to the
/// subspace currently being evaluated (paper's `intersectingComponents`).
#[derive(Debug, Clone, Default)]
pub struct FacilityComponent {
    /// The relevant stop points.
    pub stops: Vec<Point>,
}

impl FacilityComponent {
    /// The stops of `parent` that can serve any point of `rect`
    /// (within `ψ` of the rectangle).
    pub fn restrict(parent: &[Point], rect: &Rect, psi: f64) -> FacilityComponent {
        FacilityComponent {
            stops: parent
                .iter()
                .filter(|s| rect.within_of_point(s, psi))
                .copied()
                .collect(),
        }
    }

    /// Whether the component has no stops (the recursion's `f = ∅` cut).
    pub fn is_empty(&self) -> bool {
        self.stops.is_empty()
    }
}

/// Instrumentation counters for one evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// q-nodes whose lists were evaluated.
    pub nodes_visited: usize,
    /// Items that reached the exact distance tests.
    pub items_tested: usize,
    /// Items skipped by `zReduce` or the MBR quick-reject.
    pub items_pruned: usize,
    /// Exact point-to-stop distance comparisons.
    pub distance_checks: usize,
    /// Facility evaluations dispatched as parallel tasks (0 on the serial
    /// path; see [`crate::parallel`]).
    pub parallel_tasks: usize,
}

impl EvalStats {
    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &EvalStats) {
        self.nodes_visited += other.nodes_visited;
        self.items_tested += other.items_tested;
        self.items_pruned += other.items_pruned;
        self.distance_checks += other.distance_checks;
        self.parallel_tasks += other.parallel_tasks;
    }
}

/// The result of evaluating one facility.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The service value `SO(U, f) = Σ_u S(u, f)`.
    pub value: f64,
    /// Per-user served-point masks (only users with ≥ 1 served point), in
    /// canonical order; `value` is this row's [`MaskRow::value`].
    pub masks: MaskRow,
    /// Instrumentation counters.
    pub stats: EvalStats,
}

impl EvalOutcome {
    /// Number of users with a strictly positive service value.
    pub fn users_served(&self, users: &UserSet, model: &ServiceModel) -> usize {
        self.masks
            .iter()
            .filter(|(id, mask)| model.value(users.get(**id), mask) > 0.0)
            .count()
    }
}

/// Shared, immutable context of one evaluation run.
pub(crate) struct EvalCtx<'a> {
    pub tree: &'a TqTree,
    pub users: &'a UserSet,
    pub model: ServiceModel,
    pub mode: ReduceMode,
}

impl<'a> EvalCtx<'a> {
    /// Builds a context, deriving the `zReduce` pruning mode from the
    /// scenario, the placement, and whether complete masks are required
    /// (see DESIGN.md §5 for the soundness analysis).
    pub fn new(
        tree: &'a TqTree,
        users: &'a UserSet,
        model: ServiceModel,
        exact_masks: bool,
    ) -> Self {
        let mode = match tree.config().placement {
            Placement::TwoPoint => {
                if model.scenario == Scenario::Transit && !exact_masks {
                    // The paper's two-phase reduce: both endpoints required.
                    ReduceMode::Both
                } else {
                    ReduceMode::Either
                }
            }
            Placement::Segmented => ReduceMode::Either,
            Placement::FullTrajectory => {
                if model.scenario == Scenario::Transit {
                    // Only the anchor (source/destination) bits matter.
                    ReduceMode::Either
                } else {
                    // Interior points are invisible to anchor z-ids.
                    ReduceMode::Scan
                }
            }
        };
        EvalCtx {
            tree,
            users,
            model,
            mode,
        }
    }
}

/// Mutable state threaded through one evaluation run (reused across nodes to
/// avoid allocation).
#[derive(Default)]
pub(crate) struct EvalState {
    pub masks: FxHashMap<TrajectoryId, PointMask>,
    pub scratch: ReduceScratch,
    pub stats: EvalStats,
    /// Running Σ of value deltas; equals Σ_u value(mask_u) at all times.
    pub value: f64,
}

impl EvalState {
    /// Tests one item against the component stops, setting served bits and
    /// updating the running value. `comp_embr` is the component's ψ-expanded
    /// bounding rectangle: any servable point lies inside it, so points
    /// outside skip the stop loop entirely (this is what keeps
    /// full-trajectory items with many out-of-reach points cheap).
    fn test_item(
        &mut self,
        ctx: &EvalCtx<'_>,
        item: &StoredItem,
        stops: &[Point],
        comp_embr: &Rect,
    ) {
        self.stats.items_tested += 1;
        let psi_sq = ctx.model.psi * ctx.model.psi;
        let placement = ctx.tree.config().placement;
        // Collect served point indices first; most items serve nothing, so
        // avoid touching the mask map until we know otherwise.
        let mut served: [usize; 8] = [0; 8];
        let mut served_len = 0usize;
        let mut overflow: Vec<usize> = Vec::new();
        let mut checks = 0usize;
        item.visit_points(ctx.users, placement, |idx, p| {
            if !comp_embr.contains(&p) {
                return;
            }
            for s in stops {
                checks += 1;
                if s.dist_sq(&p) <= psi_sq {
                    if served_len < served.len() {
                        served[served_len] = idx;
                        served_len += 1;
                    } else {
                        overflow.push(idx);
                    }
                    break;
                }
            }
        });
        self.stats.distance_checks += checks;
        if served_len == 0 {
            return;
        }
        let t = ctx.users.get(item.traj);
        let mask = self
            .masks
            .entry(item.traj)
            .or_insert_with(|| PointMask::empty(t.len()));
        // A user's first touch starts from the empty mask, whose value is
        // exactly +0.0 in every scenario — skip evaluating it. (Map entries
        // only exist once at least one bit is set, so `is_empty` here means
        // "freshly inserted".) `after - 0.0` is bitwise `after`, keeping the
        // running value identical to the always-evaluate path.
        let fresh = mask.is_empty();
        let before = if fresh { 0.0 } else { ctx.model.value(t, mask) };
        let mut changed = false;
        for &idx in served[..served_len].iter().chain(overflow.iter()) {
            changed |= mask.set(idx);
        }
        if changed {
            let after = ctx.model.value(t, mask);
            self.value += after - before;
        }
    }

    /// Evaluates the own list of node `id` against the component — the
    /// paper's `evaluateNodeTrajectories` (Algorithm 2).
    pub fn eval_node_list(&mut self, ctx: &EvalCtx<'_>, id: NodeId, stops: &[Point]) {
        let node = ctx.tree.node(id);
        if node.list.is_empty() || stops.is_empty() {
            return;
        }
        self.stats.nodes_visited += 1;
        let psi = ctx.model.psi;
        let comp_embr = Rect::bounding(stops.iter())
            .expect("non-empty stops")
            .expand(psi);
        match &node.list {
            NodeList::Basic(items) => self.scan_list(ctx, items, stops, &comp_embr),
            NodeList::Z(z) => {
                // Scan mode (full-trajectory items under partial service)
                // carries no z-pruning at all — take the identical linear
                // path as TQ(B), whose per-stop disc reject is stronger than
                // the z-list's rectangle-only filter. Independently, the
                // z-machinery has a fixed per-node cost (two partition
                // traversals); below ~2β items a plain scan is cheaper, so
                // small lists — the common case in segmented trees — take
                // the linear path too. All paths are exact.
                if ctx.mode == ReduceMode::Scan || z.len() <= 2 * ctx.tree.config().beta {
                    for items in z.slices() {
                        self.scan_list(ctx, items, stops, &comp_embr);
                    }
                } else {
                    // `z_reduce` visits surviving items directly; the
                    // scratch buffers are detached for the duration so the
                    // closure can borrow `self` for the exact tests.
                    let mut scratch = std::mem::take(&mut self.scratch);
                    let pruned = z.z_reduce(stops, psi, ctx.mode, &mut scratch, |it| {
                        self.test_item(ctx, it, stops, &comp_embr)
                    });
                    self.scratch = scratch;
                    self.stats.items_pruned += pruned;
                }
            }
        }
    }

    /// Linear evaluation of a list: O(1) component-EMBR rectangle reject,
    /// per-stop disc reject, then the exact test.
    fn scan_list(
        &mut self,
        ctx: &EvalCtx<'_>,
        items: &[StoredItem],
        stops: &[Point],
        comp_embr: &Rect,
    ) {
        let psi = ctx.model.psi;
        for it in items {
            if !comp_embr.intersects(&it.mbr)
                || !stops.iter().any(|s| it.mbr.within_of_point(s, psi))
            {
                self.stats.items_pruned += 1;
                continue;
            }
            self.test_item(ctx, it, stops, comp_embr);
        }
    }

    /// Full recursion over the subtree of `id` — the paper's
    /// `evaluateService` (Algorithm 1).
    pub fn eval_subtree(&mut self, ctx: &EvalCtx<'_>, id: NodeId, stops: &[Point]) {
        if stops.is_empty() {
            return;
        }
        self.eval_node_list(ctx, id, stops);
        let node = ctx.tree.node(id);
        for child in node.children.iter().flatten() {
            let crect = ctx.tree.node(*child).rect;
            let comp = FacilityComponent::restrict(stops, &crect, ctx.model.psi);
            if !comp.is_empty() {
                self.eval_subtree(ctx, *child, &comp.stops);
            }
        }
    }

    /// Finalizes into an [`EvalOutcome`], recomputing the value from the
    /// masks in the canonical ascending-id order ([`canonical_value`]) —
    /// immune both to floating-point drift of the running deltas and to
    /// summation-order differences between evaluation histories.
    pub fn finish(self, ctx: &EvalCtx<'_>) -> EvalOutcome {
        let masks = MaskRow::from_map(ctx.users, &ctx.model, self.masks);
        EvalOutcome {
            value: masks.value(),
            masks,
            stats: self.stats,
        }
    }
}

/// Canonical service-value summation: `Σ_u S(u, ·)` over a mask map,
/// accumulated in **ascending trajectory id** order.
///
/// Floating-point addition is not associative, so the same set of per-user
/// values summed in different orders can differ in the last bits. Every
/// finalized value this crate reports (evaluation outcomes, kMaxRRST exact
/// values, [`crate::maxcov::ServedTable`] values, the incremental
/// [`crate::dynamic::DynamicEngine`] caches) goes through this one function,
/// which fixes the order by content — so *any* two states with identical
/// mask contents report bit-identical values, no matter what history
/// (bulk build, incremental updates, different tree shapes) produced them.
pub fn canonical_value(
    users: &UserSet,
    model: &ServiceModel,
    masks: &FxHashMap<TrajectoryId, PointMask>,
) -> f64 {
    let mut ids: Vec<TrajectoryId> = masks.keys().copied().collect();
    ids.sort_unstable();
    let sum: f64 = ids
        .iter()
        .map(|id| model.value(users.get(*id), &masks[id]))
        .sum();
    // `f64::sum` folds from the identity -0.0, so an empty map sums to -0.0
    // while a map of only zero-value entries sums to +0.0. Two evaluation
    // histories can legitimately differ in which zero-value masks they
    // materialize (pruning may skip unservable users entirely); normalize
    // so both report bit-identical +0.0. `x + 0.0` is bitwise identity for
    // every other x.
    sum + 0.0
}

fn run(tree: &TqTree, users: &UserSet, model: &ServiceModel, f: &Facility, exact: bool) -> EvalOutcome {
    let ctx = EvalCtx::new(tree, users, *model, exact);
    let mut state = EvalState::default();
    let root_comp = FacilityComponent::restrict(f.stops(), &tree.bounds(), model.psi);
    if !root_comp.is_empty() {
        state.eval_subtree(&ctx, ROOT, &root_comp.stops);
    }
    state.finish(&ctx)
}

/// Computes the service value `SO(U, f)` of a single facility using the
/// TQ-tree divide-and-conquer (paper Algorithm 1).
pub fn evaluate_service(
    tree: &TqTree,
    users: &UserSet,
    model: &ServiceModel,
    facility: &Facility,
) -> EvalOutcome {
    run(tree, users, model, facility, false)
}

/// Like [`evaluate_service`] but guarantees complete served-point masks, as
/// required for the multi-facility `AGG` union of MaxkCovRST.
pub fn evaluate_masks(
    tree: &TqTree,
    users: &UserSet,
    model: &ServiceModel,
    facility: &Facility,
) -> EvalOutcome {
    run(tree, users, model, facility, true)
}

/// Reference implementation: brute-force service evaluation without any
/// index. Used by the test-suite as the ground-truth oracle and exercised by
/// integration tests; exported so downstream crates (baseline, benches) can
/// validate themselves too.
pub fn brute_force_masks(
    users: &UserSet,
    model: &ServiceModel,
    facility: &Facility,
) -> FxHashMap<TrajectoryId, PointMask> {
    let mut masks = FxHashMap::default();
    let psi = model.psi;
    for (id, t) in users.iter() {
        let mut mask = PointMask::empty(t.len());
        let mut any = false;
        for (i, p) in t.points().iter().enumerate() {
            if facility.serves_point(p, psi) {
                mask.set(i);
                any = true;
            }
        }
        if any {
            masks.insert(id, mask);
        }
    }
    masks
}

/// Reference `SO(U, f)` from [`brute_force_masks`].
pub fn brute_force_value(users: &UserSet, model: &ServiceModel, facility: &Facility) -> f64 {
    brute_force_masks(users, model, facility)
        .iter()
        .map(|(id, m)| model.value(users.get(*id), m))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tqtree::{Storage, TqTreeConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use tq_trajectory::Trajectory;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn random_two_point(n: usize, seed: u64) -> UserSet {
        let mut rng = StdRng::seed_from_u64(seed);
        UserSet::from_vec(
            (0..n)
                .map(|_| {
                    Trajectory::two_point(
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                        p(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    )
                })
                .collect(),
        )
    }

    fn random_multipoint(n: usize, seed: u64) -> UserSet {
        let mut rng = StdRng::seed_from_u64(seed);
        UserSet::from_vec(
            (0..n)
                .map(|_| {
                    let len = rng.gen_range(2..8);
                    let mut x = rng.gen_range(0.0..100.0);
                    let mut y = rng.gen_range(0.0..100.0);
                    let pts = (0..len)
                        .map(|_| {
                            x = (x + rng.gen_range(-8.0..8.0f64)).clamp(0.0, 100.0);
                            y = (y + rng.gen_range(-8.0..8.0f64)).clamp(0.0, 100.0);
                            p(x, y)
                        })
                        .collect();
                    Trajectory::new(pts)
                })
                .collect(),
        )
    }

    fn random_facility(stops: usize, seed: u64) -> Facility {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = rng.gen_range(10.0..90.0);
        let mut y = rng.gen_range(10.0..90.0);
        Facility::new(
            (0..stops)
                .map(|_| {
                    x = (x + rng.gen_range(-5.0..5.0f64)).clamp(0.0, 100.0);
                    y = (y + rng.gen_range(-5.0..5.0f64)).clamp(0.0, 100.0);
                    p(x, y)
                })
                .collect(),
        )
    }

    /// Every (placement, storage, scenario) combination must agree exactly
    /// with the brute-force oracle on the facility's service value.
    #[test]
    fn matches_brute_force_all_configs() {
        let two_point = random_two_point(400, 1);
        let multi = random_multipoint(300, 2);
        for placement in [
            Placement::TwoPoint,
            Placement::Segmented,
            Placement::FullTrajectory,
        ] {
            for storage in [Storage::Basic, Storage::ZOrder] {
                for scenario in Scenario::ALL {
                    for (users, name) in [(&two_point, "2pt"), (&multi, "multi")] {
                        // Two-point placement on multipoint data only sees
                        // endpoints — skip the oracle comparison for the
                        // partial scenarios there (different semantics).
                        let endpoint_only =
                            placement == Placement::TwoPoint && name == "multi";
                        if endpoint_only && scenario != Scenario::Transit {
                            continue;
                        }
                        let cfg = TqTreeConfig {
                            beta: 8,
                            storage,
                            placement,
                            max_depth: 10,
                        };
                        let tree = TqTree::build(users, cfg);
                        let model = ServiceModel::new(scenario, 4.0);
                        for fseed in 0..5 {
                            let f = random_facility(12, 100 + fseed);
                            let got = evaluate_service(&tree, users, &model, &f);
                            let want = brute_force_value(users, &model, &f);
                            assert!(
                                (got.value - want).abs() < 1e-9,
                                "{placement:?}/{storage:?}/{scenario:?}/{name}: got {} want {want}",
                                got.value
                            );
                        }
                    }
                }
            }
        }
    }

    /// `evaluate_masks` must reproduce the oracle masks bit-for-bit (the
    /// MaxkCovRST union depends on it).
    #[test]
    fn masks_are_complete_for_coverage() {
        let users = random_two_point(300, 3);
        for placement in [Placement::TwoPoint, Placement::Segmented] {
            let cfg = TqTreeConfig {
                beta: 8,
                storage: Storage::ZOrder,
                placement,
                max_depth: 10,
            };
            let tree = TqTree::build(&users, cfg);
            let model = ServiceModel::new(Scenario::Transit, 5.0);
            for fseed in 0..5 {
                let f = random_facility(10, 200 + fseed);
                let got = evaluate_masks(&tree, &users, &model, &f);
                let want = brute_force_masks(&users, &model, &f);
                assert_eq!(got.masks.len(), want.len(), "{placement:?} mask count");
                for (id, m) in &want {
                    assert_eq!(
                        got.masks.get(id),
                        Some(m),
                        "{placement:?} mask for user {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_trajectory_masks_complete_on_multipoint() {
        let users = random_multipoint(200, 4);
        let cfg = TqTreeConfig {
            beta: 8,
            storage: Storage::ZOrder,
            placement: Placement::FullTrajectory,
            max_depth: 10,
        };
        let tree = TqTree::build(&users, cfg);
        for scenario in Scenario::ALL {
            let model = ServiceModel::new(scenario, 4.0);
            let f = random_facility(10, 300);
            let got = evaluate_masks(&tree, &users, &model, &f);
            let want = brute_force_masks(&users, &model, &f);
            assert_eq!(got.masks.len(), want.len(), "{scenario:?}");
            for (id, m) in &want {
                assert_eq!(got.masks.get(id), Some(m), "{scenario:?} user {id}");
            }
        }
    }

    #[test]
    fn pruning_happens_on_zorder() {
        let users = random_two_point(2000, 5);
        let tree = TqTree::build(
            &users,
            TqTreeConfig {
                beta: 16,
                storage: Storage::ZOrder,
                placement: Placement::TwoPoint,
                max_depth: 12,
            },
        );
        let model = ServiceModel::new(Scenario::Transit, 2.0);
        let f = Facility::new(vec![p(20.0, 20.0), p(25.0, 22.0)]);
        let out = evaluate_service(&tree, &users, &model, &f);
        assert!(
            out.stats.items_tested < 400,
            "tight facility should prune most of 2000 items, tested {}",
            out.stats.items_tested
        );
    }

    #[test]
    fn empty_component_visits_nothing() {
        let users = random_two_point(100, 6);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        // Facility far outside the data bounds.
        let f = Facility::new(vec![p(-500.0, -500.0)]);
        let out = evaluate_service(&tree, &users, &model, &f);
        assert_eq!(out.value, 0.0);
        assert_eq!(out.stats.nodes_visited, 0);
        assert_eq!(out.stats.items_tested, 0);
    }

    #[test]
    fn users_served_counts_positive_values() {
        let users = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
            Trajectory::two_point(p(50.0, 50.0), p(60.0, 50.0)),
        ]);
        let tree = TqTree::build(&users, TqTreeConfig::default());
        let model = ServiceModel::new(Scenario::Transit, 1.0);
        let f = Facility::new(vec![p(0.0, 0.5), p(10.0, 0.5)]);
        let out = evaluate_service(&tree, &users, &model, &f);
        assert_eq!(out.value, 1.0);
        assert_eq!(out.users_served(&users, &model), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = EvalStats {
            nodes_visited: 1,
            items_tested: 2,
            items_pruned: 3,
            distance_checks: 4,
            parallel_tasks: 0,
        };
        let b = a;
        a.add(&b);
        assert_eq!(a.nodes_visited, 2);
        assert_eq!(a.distance_checks, 8);
    }
}
