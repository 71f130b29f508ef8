//! The Trajectory Quadtree (TQ-tree).
//!
//! A TQ-tree organizes user trajectories in two levels (paper §III):
//!
//! 1. **Hierarchical organization** — a quadtree over the data's bounding
//!    rectangle. Unlike traditional spatial indexes, *every* node can store
//!    data: an internal node holds the trajectories that straddle its
//!    children (*inter-node* trajectories), a leaf holds the trajectories
//!    fully inside it (*intra-node*). Long trajectories therefore live near
//!    the root and short ones near the leaves, which is what lets the
//!    divide-and-conquer evaluation prune by locality at every scale.
//! 2. **Ordered bucketing** — inside each node the trajectory list is sorted
//!    along a Z-curve into β-sized buckets ([`ZList`]), enabling the
//!    `zReduce` pruning. [`Storage::Basic`] keeps a flat list instead — the
//!    paper's TQ(B) ablation.
//!
//! Three [`Placement`] policies generalize the index beyond two-point
//! trajectories (paper §III-A): `TwoPoint` (sources/destinations),
//! `Segmented` (every consecutive point pair indexed separately, the S-TQ),
//! and `FullTrajectory` (whole multipoint trajectories stored at the lowest
//! node that contains them, the F-TQ).

pub mod arena;
mod build;
mod insert;
pub mod item;
pub(crate) mod persist;
mod remove;
mod stats;
pub mod zlist;
pub mod zpartition;

pub use arena::{NodeArena, NODE_CHUNK};
pub use insert::InsertError;
pub use item::{StoredItem, WHOLE};
pub use remove::RemoveError;
pub use stats::TreeStats;
pub use zlist::{ReduceMode, ReduceScratch, ZList};
pub use zpartition::ZPartition;

use crate::service::ServiceBounds;
use tq_geometry::Rect;
use std::sync::Arc;
use tq_trajectory::UserSet;

/// Index into the TQ-tree's node arena.
pub type NodeId = u32;

/// The id of the root node.
pub const ROOT: NodeId = 0;

/// How trajectories are mapped to stored items (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Index only `(source, destination)` — Scenario-1 workloads
    /// (taxi trips). One item per trajectory.
    TwoPoint,
    /// Index every consecutive point pair as its own item — the segmented
    /// TQ-tree (S-TQ). `|u| - 1` items per trajectory.
    Segmented,
    /// Index each whole trajectory at the lowest node containing all its
    /// points — the full-trajectory TQ-tree (F-TQ). One item per trajectory.
    FullTrajectory,
}

/// How each q-node stores its trajectory list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Storage {
    /// Flat list, scanned linearly — the paper's TQ(B) baseline variant.
    Basic,
    /// Z-ordered buckets with `zReduce` pruning — the full TQ(Z) index.
    ZOrder,
}

/// TQ-tree construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TqTreeConfig {
    /// Bucket/block size β: maximum intra-node trajectories per leaf and
    /// maximum points per z-cell.
    pub beta: usize,
    /// List storage flavour (TQ(B) vs TQ(Z)).
    pub storage: Storage,
    /// Trajectory-to-item placement policy.
    pub placement: Placement,
    /// Maximum quadtree depth.
    pub max_depth: u8,
}

impl Default for TqTreeConfig {
    fn default() -> Self {
        TqTreeConfig {
            beta: 64,
            storage: Storage::ZOrder,
            placement: Placement::TwoPoint,
            max_depth: 20,
        }
    }
}

impl TqTreeConfig {
    /// Config for the paper's TQ(Z) with a given placement.
    pub fn z_order(placement: Placement) -> Self {
        TqTreeConfig {
            placement,
            ..Default::default()
        }
    }

    /// Config for the paper's TQ(B) with a given placement.
    pub fn basic(placement: Placement) -> Self {
        TqTreeConfig {
            storage: Storage::Basic,
            placement,
            ..Default::default()
        }
    }

    /// Sets β, keeping everything else.
    pub fn with_beta(mut self, beta: usize) -> Self {
        assert!(beta > 0, "β must be positive");
        self.beta = beta;
        self
    }
}

/// A q-node's trajectory list in either storage flavour.
#[derive(Debug, Clone)]
pub enum NodeList {
    /// Flat list (TQ(B)).
    Basic(Vec<StoredItem>),
    /// Z-ordered buckets (TQ(Z)).
    Z(ZList),
}

impl NodeList {
    /// The stored items as consecutive slices, in list order (sorted for
    /// [`NodeList::Z`], whose storage is chunked).
    pub fn slices(&self) -> Box<dyn Iterator<Item = &[StoredItem]> + '_> {
        match self {
            NodeList::Basic(v) => Box::new(std::iter::once(v.as_slice())),
            NodeList::Z(z) => Box::new(z.slices()),
        }
    }

    /// The stored items, in list order.
    pub fn items(&self) -> impl Iterator<Item = &StoredItem> + '_ {
        self.slices().flatten()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        match self {
            NodeList::Basic(v) => v.len(),
            NodeList::Z(z) => z.len(),
        }
    }

    /// Returns `true` when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A node of the TQ-tree (the paper's *q-node*).
#[derive(Debug, Clone)]
pub struct QNode {
    /// The node's rectangle.
    pub rect: Rect,
    /// Depth below the root.
    pub depth: u8,
    /// Children in Z order; `None` entries are empty quadrants.
    pub children: [Option<NodeId>; 4],
    /// The trajectories stored *at* this node (inter-node for internal
    /// nodes, intra-node for leaves). A z-list's chunks are shared across
    /// tree versions until a version edits them (see [`zlist`]).
    pub list: NodeList,
    /// Service upper bounds over this node's own list (the list part of
    /// `sub`).
    pub own: ServiceBounds,
    /// Service upper bounds over the whole subtree rooted here — the
    /// paper's `sub`, used as the best-first heuristic `hserve`.
    pub sub: ServiceBounds,
    /// Tombstone: the arena slot was reclaimed (by an empty-leaf prune or a
    /// subtree collapse in `remove.rs`) and sits on the free list awaiting
    /// reuse by the next insert. Dead nodes are unreachable from the root
    /// and are skipped by every iteration/statistic.
    pub(crate) dead: bool,
}

impl QNode {
    /// Returns `true` when the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.iter().all(Option::is_none)
    }
}

/// The Trajectory Quadtree.
///
/// Built over a [`UserSet`] with [`TqTree::build`]; supports dynamic
/// insertion via [`TqTree::insert`] (see `insert.rs`). A clone shares
/// every node chunk and list with the original, and later edits copy only
/// what they touch ([`arena`]). Queries live in
/// [`crate::eval`] (service evaluation), [`crate::topk`] (kMaxRRST) and
/// [`crate::maxcov`] (MaxkCovRST).
#[derive(Debug, Clone)]
pub struct TqTree {
    pub(crate) nodes: NodeArena,
    /// Arena slots reclaimed by removals, reused by later inserts so the
    /// arena does not grow without bound under insert/remove churn.
    pub(crate) free: Vec<NodeId>,
    config: TqTreeConfig,
    bounds: Rect,
    item_count: usize,
}

impl TqTree {
    /// The construction parameters.
    #[inline]
    pub fn config(&self) -> &TqTreeConfig {
        &self.config
    }

    /// The root rectangle.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The node arena.
    #[inline]
    pub fn node(&self, id: NodeId) -> &QNode {
        &self.nodes[id as usize]
    }

    /// Number of live nodes (arena slots minus reclaimed tombstones).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// The node arena's chunks — for checking which chunks two tree
    /// versions share (`Arc::ptr_eq`).
    pub fn node_chunks(&self) -> &[Arc<Vec<QNode>>] {
        self.nodes.chunks()
    }

    /// Allocates an arena slot for `node`, reusing a reclaimed slot when one
    /// is available.
    pub(crate) fn alloc_node(&mut self, node: QNode) -> NodeId {
        match self.free.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                let id = self.nodes.len() as NodeId;
                self.nodes.push(node);
                id
            }
        }
    }

    /// Reclaims one node's arena slot: marks it dead, clears its payload and
    /// pushes it onto the free list. The caller must already have unlinked
    /// it from its parent.
    pub(crate) fn release_node(&mut self, id: NodeId) {
        let node = &mut self.nodes[id as usize];
        debug_assert!(!node.dead, "double release of node {id}");
        node.children = [None; 4];
        node.list = NodeList::Basic(Vec::new());
        node.own = ServiceBounds::ZERO;
        node.sub = ServiceBounds::ZERO;
        node.dead = true;
        self.free.push(id);
    }

    /// Total stored items (= trajectories for two-point/full placement,
    /// segments for segmented placement).
    #[inline]
    pub fn item_count(&self) -> usize {
        self.item_count
    }

    /// Height of the tree (max live depth + 1).
    pub fn height(&self) -> usize {
        self.iter_nodes()
            .map(|(_, n)| n.depth as usize)
            .max()
            .unwrap_or(0)
            + 1
    }

    /// Iterates all live nodes with their ids (reclaimed slots are skipped).
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &QNode)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead)
            .map(|(i, n)| (i as NodeId, n))
    }

    /// Exhaustively checks the structural invariants; used by tests.
    ///
    /// Verifies that (1) every item appears exactly once, (2) items are
    /// geometrically consistent with the node that stores them, (3) `sub`
    /// bounds aggregate own + children, (4) z-lists are sorted, (5) dead
    /// arena slots are empty and unreferenced, and (6) the canonical shape
    /// invariant holds: a node has children iff its subtree holds more than
    /// β items (below the depth limit), so incrementally maintained trees
    /// keep the same structure a bulk build over the same items produces.
    ///
    /// Expects every trajectory of `users` to be indexed; for trees that
    /// have had removals (the [`UserSet`] keeps removed trajectories as
    /// id-stable tombstones) use [`TqTree::validate_with_count`].
    pub fn validate(&self, users: &UserSet) -> Result<(), String> {
        let expected: usize = match self.config.placement {
            Placement::TwoPoint | Placement::FullTrajectory => users.len(),
            Placement::Segmented => users.total_segments(),
        };
        self.validate_with_count(users, expected)
    }

    /// [`TqTree::validate`] with an explicit expected item count — for trees
    /// where some of `users`' trajectories have been removed from the index.
    pub fn validate_with_count(&self, users: &UserSet, expected: usize) -> Result<(), String> {
        // Dead slots must be fully cleared, on the free list exactly once,
        // and never referenced by a live child pointer.
        let dead_slots = self.nodes.iter().filter(|n| n.dead).count();
        if dead_slots != self.free.len() {
            return Err(format!(
                "{dead_slots} dead slots but free list has {}",
                self.free.len()
            ));
        }
        for &f in &self.free {
            let n = &self.nodes[f as usize];
            if !n.dead || !n.list.is_empty() || n.children.iter().any(Option::is_some) {
                return Err(format!("free-list node {f} is not a cleared tombstone"));
            }
        }
        for (id, node) in self.iter_nodes() {
            for c in node.children.iter().flatten() {
                if self.nodes[*c as usize].dead {
                    return Err(format!("live node {id} links dead child {c}"));
                }
            }
            // Canonical shape: children exist iff the subtree exceeds β.
            if !node.is_leaf() && self.subtree_items_capped(id, self.config.beta).is_some() {
                return Err(format!(
                    "internal node {id} holds ≤ β items; it should have been collapsed"
                ));
            }
        }
        // Fx hashing: validate runs on every snapshot load (`tq-store`),
        // so the per-item set insert is on the cold-start path.
        let mut seen = crate::fasthash::FxHashSet::default();
        for (id, node) in self.iter_nodes() {
            for it in node.list.items() {
                if !seen.insert((it.traj, it.seg)) {
                    return Err(format!("item ({}, {}) stored twice", it.traj, it.seg));
                }
                if !node.rect.contains(&it.start) || !node.rect.contains(&it.end) {
                    return Err(format!(
                        "item ({}, {}) outside its node {} rect",
                        it.traj, it.seg, id
                    ));
                }
            }
            if let NodeList::Z(z) = &node.list {
                if !z
                    .items()
                    .zip(z.items().skip(1))
                    .all(|(a, b)| (a.start_z, a.end_z) <= (b.start_z, b.end_z))
                {
                    return Err(format!("z-list of node {id} not sorted"));
                }
            }
            // own = Σ item bounds (within FP tolerance of incremental
            // add/subtract drift).
            let mut own = ServiceBounds::ZERO;
            for it in node.list.items() {
                own.add(&it.bounds(users));
            }
            for (a, b, name) in [
                (own.s1, node.own.s1, "s1"),
                (own.s2, node.own.s2, "s2"),
                (own.s3, node.own.s3, "s3"),
            ] {
                if (a - b).abs() > 1e-6 * (1.0 + b.abs()) {
                    return Err(format!("node {id} own.{name} mismatch: {a} vs {b}"));
                }
            }
            // sub = own + Σ children.sub (within FP tolerance).
            let mut agg = node.own;
            for c in node.children.iter().flatten() {
                agg.add(&self.node(*c).sub);
            }
            for (a, b, name) in [
                (agg.s1, node.sub.s1, "s1"),
                (agg.s2, node.sub.s2, "s2"),
                (agg.s3, node.sub.s3, "s3"),
            ] {
                if (a - b).abs() > 1e-6 * (1.0 + b.abs()) {
                    return Err(format!("node {id} sub.{name} mismatch: {a} vs {b}"));
                }
            }
        }
        if seen.len() != expected {
            return Err(format!(
                "stored {} items, expected {expected}",
                seen.len()
            ));
        }
        Ok(())
    }

    /// Rough memory footprint in bytes (arena + lists), for the storage-cost
    /// discussion of paper §III-B.
    pub fn memory_bytes(&self) -> usize {
        let mut total = self.nodes.chunks().len() * NODE_CHUNK * std::mem::size_of::<QNode>();
        for (_, node) in self.iter_nodes() {
            total += node.list.len() * std::mem::size_of::<StoredItem>();
        }
        total
    }

    /// Counts the items stored in the subtree of `id`, giving up (returning
    /// `None`) as soon as the running total exceeds `cap`. Used by the
    /// removal path to decide whether a subtree has shrunk enough to be
    /// collapsed back into a leaf, in `O(min(subtree, cap))`.
    pub(crate) fn subtree_items_capped(&self, id: NodeId, cap: usize) -> Option<usize> {
        let mut total = 0usize;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            total += node.list.len();
            if total > cap {
                return None;
            }
            stack.extend(node.children.iter().flatten().copied());
        }
        Some(total)
    }
}
