//! The unified query engine, split into a shared read plane and a
//! single-writer control plane for concurrent serving.
//!
//! The paper frames kMaxRRST and MaxkCovRST as two queries over one index
//! family (the TQ-tree versus the BL baseline); this module gives that
//! frame a session-style API built for many readers and one writer:
//!
//! * **[`Snapshot`]** — the read plane: an immutable, epoch-numbered
//!   version of the entire queryable state (users + facilities +
//!   [`ServiceModel`] + backend index + frozen [`ServedTable`] memo, all
//!   behind `Arc`). [`Snapshot::run`] answers typed [`Query`]s through
//!   `&self` with **zero locks** — any number of threads serve queries
//!   concurrently, each answer bit-identical to serial execution.
//! * **[`Engine`]** — the single-writer control plane: owns the
//!   publication slot, answers queries itself ([`Engine::run`], which
//!   additionally memoizes the tables queries build), and applies
//!   streaming [`Update`] batches ([`Engine::apply`]) by structural
//!   sharing: the user set, the index and every table row are chunked
//!   behind `Arc`s, a batch copies only the chunks it touches, everything
//!   else is shared with the previous epoch, and the new snapshot is
//!   published atomically.
//!   Readers never wait out a batch — they keep answering on the epoch
//!   they hold, and old epochs drain via `Arc` refcounts.
//! * **[`Reader`]** — the cloneable, `Send + Sync` handle serving threads
//!   hold; [`Reader::snapshot`] yields the latest published epoch. The
//!   [`serve`](crate::serve) module drives a whole worker pool off this.
//!
//! # Request flow
//!
//! ```text
//!                     writer (one thread)             readers (N threads)
//!                 ┌───────────────────────┐        ┌──────────────────────┐
//! Engine::apply ─►│ validate → path-copy  │        │ reader.snapshot()    │
//!                 │ touched chunks only   │        │   └► Arc<Snapshot>   │
//!                 │ → publish epoch e+1 ──┼──swap──┼──►                   │
//! Engine::run ───►│ execute on epoch e;   │ (slot) │ snapshot.run(query)  │
//!                 │ absorb built tables   │        │   &self, zero locks  │
//!                 └───────────────────────┘        └──────────────────────┘
//!        Query::top_k(k) / Query::max_cov(k).algorithm(..) → Answer + Explain
//!        (epoch e stays valid for readers still on it; freed by refcount)
//! ```
//!
//! # Memoization
//!
//! The expensive artifact every MaxkCovRST solver consumes — the
//! [`ServedTable`] of complete served-point masks — is memoized **per
//! candidate set** in the published snapshot. A top-k query that follows a
//! coverage query over the same candidates is answered straight from the
//! frozen table (reported as [`CacheStatus::Hit`] in [`Explain`]). The
//! full-facility table is pinned; subset tables are LRU-bounded by the
//! [`EngineBuilder::subset_tables`] capacity (default
//! [`DEFAULT_SUBSET_TABLES`], `0` disables subset caching) so the memo
//! cannot grow without bound under shifting candidate sets. Memoization is
//! a *control-plane* action: [`Engine::run`] absorbs the tables its
//! queries build by publishing a successor snapshot, while
//! [`Snapshot::run`] on the read plane builds missing tables locally and
//! discards them — readers never mutate shared state.
//!
//! [`Engine::apply`] keeps every memoized table in sync incrementally (the
//! [`dynamic`](crate::dynamic)-engine invalidation rule: facilities whose
//! ψ-expanded EMBR misses every delta MBR are untouched — their tables
//! stay `Arc`-shared with the previous epoch at zero cost — touched rows
//! copy only the chunks their deltas land in, heavy ones are re-evaluated
//! through the tree).
//!
//! # Bit-identity
//!
//! Answers are **bit-identical across backends, histories, and planes**:
//! both backends sum service values in the canonical
//! ascending-trajectory-id order ([`crate::eval::canonical_value`]), so
//! `Engine` over [`Backend::TqTree`] and over [`Backend::Baseline`] return
//! identical floats; an engine that has applied update batches answers
//! exactly like a freshly built one; and a query run on any reader's
//! snapshot equals the same query run serially on the engine at that epoch
//! (`tests/engine_api.rs`, `tests/dynamic_equivalence.rs` and
//! `tests/concurrent_serving.rs` enforce all three).
//!
//! One caveat scopes the cross-backend half: the two backends must
//! *expose the same trajectory points*. The BL baseline indexes every
//! point of every trajectory, while a TQ-tree under
//! [`Placement::TwoPoint`](crate::tqtree::Placement::TwoPoint) anchors
//! only each trajectory's source and destination — an intentional
//! endpoint approximation for multipoint data (see `eval.rs`). So over
//! two-point trajectories (taxi-like trips) the backends agree under
//! every placement, and over multipoint data they agree when the tree
//! uses [`Placement::Segmented`](crate::tqtree::Placement::Segmented) or
//! [`Placement::FullTrajectory`](crate::tqtree::Placement::FullTrajectory);
//! two-point placement over multipoint data answers a *different*
//! (endpoint-only) question than the baseline under the partial
//! scenarios.
//!
//! # Example
//!
//! ```
//! use tq_core::engine::{Algorithm, Engine, Query};
//! use tq_core::service::{Scenario, ServiceModel};
//! use tq_geometry::Point;
//! use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};
//!
//! let p = |x: f64, y: f64| Point::new(x, y);
//! let users = UserSet::from_vec(vec![
//!     Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
//!     Trajectory::two_point(p(50.0, 50.0), p(60.0, 50.0)),
//! ]);
//! let routes = FacilitySet::from_vec(vec![
//!     Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
//!     Facility::new(vec![p(50.0, 51.0), p(60.0, 51.0)]),
//! ]);
//! let mut engine = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
//!     .users(users)
//!     .facilities(routes)
//!     .build()
//!     .unwrap();
//!
//! // kMaxRRST: the best facility.
//! let top = engine.run(Query::top_k(1)).unwrap();
//! assert_eq!(top.ranked()[0].1, 1.0);
//!
//! // MaxkCovRST: the best pair, greedily.
//! let cover = engine
//!     .run(Query::max_cov(2).algorithm(Algorithm::Greedy))
//!     .unwrap();
//! assert_eq!(cover.cover().value, 2.0);
//!
//! // The greedy query built a ServedTable for all candidates; a top-k
//! // query over the same candidates now hits that cache — on the engine
//! // and on every snapshot published since.
//! let again = engine.run(Query::top_k(2)).unwrap();
//! assert!(again.explain.cache.is_hit());
//! assert_eq!(again.ranked()[0].1, top.ranked()[0].1);
//!
//! // The read plane: a Reader is Send + Sync + Clone, and snapshots
//! // answer through &self — hand them to as many threads as you like.
//! let reader = engine.reader();
//! let snap = reader.snapshot();
//! let served = snap.run(Query::top_k(2)).unwrap();
//! assert_eq!(served.ranked(), again.ranked());
//! assert_eq!(served.explain.snapshot_epoch, snap.epoch());
//! ```

#![deny(missing_docs)]

mod memo;
pub(crate) mod session;
mod snapshot;

pub use memo::DEFAULT_SUBSET_TABLES;
pub use session::{Algorithm, Answer, CacheStatus, Explain, Query, QueryResult};
pub use snapshot::{Reader, Snapshot};

pub(crate) use memo::TableMemo;
use snapshot::SnapshotSlot;

use crate::baseline::BaselineIndex;
use crate::dynamic::{BatchOutcome, Update, UpdateError, UpdateStats};
use crate::eval::{EvalOutcome, EvalStats};
use crate::fasthash::{FxHashMap, FxHashSet};
use crate::maxcov::{RowEdit, ServedTable};
use crate::parallel;
use crate::persist::{Durable, StoreConfig};
use crate::service::ServiceModel;
use crate::topk::{top_k_facilities, TopKOutcome};
use crate::tqtree::{TqTree, TqTreeConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tq_geometry::Rect;
use tq_trajectory::{Facility, FacilityId, FacilitySet, TrajectoryId, UserSet};

/// Default patch-vs-rebuild threshold for [`Engine::apply`] (see
/// [`crate::dynamic::DynamicConfig::rebuild_fraction`]).
pub const DEFAULT_REBUILD_FRACTION: f64 = 0.25;

// ---------------------------------------------------------------------------
// The Index trait and the Backend enum
// ---------------------------------------------------------------------------

/// What a query backend must provide: per-facility evaluation with complete
/// served-point masks, an accelerated (or exhaustive) top-k, and
/// [`ServedTable`] construction for a candidate subset.
///
/// Implemented by [`TqTree`] (the paper's contribution) and
/// [`BaselineIndex`] (the paper's BL reference); [`Backend`] dispatches
/// between them. All implementations must report values summed in the
/// canonical ascending-trajectory-id order
/// ([`crate::eval::canonical_value`]) so answers are bit-identical across
/// backends whenever the backends expose the same trajectory points (see
/// the [module docs](self) for the one placement caveat).
pub trait Index {
    /// Which backend this is, for [`Explain`] reports.
    fn backend_kind(&self) -> BackendKind;

    /// Evaluates one facility with **complete** served-point masks (the
    /// flavour MaxkCovRST's `AGG` union requires).
    fn evaluate(&self, users: &UserSet, model: &ServiceModel, facility: &Facility)
        -> EvalOutcome;

    /// The `k` facilities with the highest service value, best first, ties
    /// broken by ascending facility id.
    fn top_k(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> TopKOutcome;

    /// Builds the complete [`ServedTable`] for the given candidate ids.
    fn served_table(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        candidates: &[FacilityId],
    ) -> ServedTable;
}

impl Index for TqTree {
    fn backend_kind(&self) -> BackendKind {
        BackendKind::TqTree
    }

    fn evaluate(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facility: &Facility,
    ) -> EvalOutcome {
        crate::eval::evaluate_masks(self, users, model, facility)
    }

    fn top_k(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> TopKOutcome {
        top_k_facilities(self, users, model, facilities, k)
    }

    fn served_table(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        candidates: &[FacilityId],
    ) -> ServedTable {
        ServedTable::build_for(self, users, model, facilities, candidates)
    }
}

impl Index for BaselineIndex {
    fn backend_kind(&self) -> BackendKind {
        BackendKind::Baseline
    }

    fn evaluate(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facility: &Facility,
    ) -> EvalOutcome {
        BaselineIndex::evaluate(self, users, model, facility)
    }

    fn top_k(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        k: usize,
    ) -> TopKOutcome {
        BaselineIndex::top_k(self, users, model, facilities, k)
    }

    fn served_table(
        &self,
        users: &UserSet,
        model: &ServiceModel,
        facilities: &FacilitySet,
        candidates: &[FacilityId],
    ) -> ServedTable {
        // Same fan-out shape as the TQ-tree table build: independent
        // per-candidate evaluations, ordered reduction, canonical values.
        let outcomes = parallel::par_map(candidates, |&fid| {
            BaselineIndex::evaluate(self, users, model, facilities.get(fid))
        });
        let mut stats = EvalStats::default();
        let mut masks = Vec::with_capacity(candidates.len());
        for out in outcomes {
            stats.add(&out.stats);
            masks.push(out.masks);
        }
        ServedTable::from_rows(candidates.to_vec(), masks, stats)
    }
}

/// The index behind an [`Engine`].
#[derive(Debug, Clone)]
pub enum Backend {
    /// The paper's TQ-tree — TQ(B) or TQ(Z) depending on its
    /// [`TqTreeConfig`]. The only backend that supports
    /// [`Engine::apply`] updates.
    TqTree(TqTree),
    /// The paper's BL point-quadtree baseline (exhaustive top-k, range
    /// query + verification per facility).
    Baseline(BaselineIndex),
}

impl Backend {
    pub(crate) fn as_index(&self) -> &dyn Index {
        match self {
            Backend::TqTree(t) => t,
            Backend::Baseline(b) => b,
        }
    }

    /// Which backend this is.
    pub fn kind(&self) -> BackendKind {
        self.as_index().backend_kind()
    }
}

/// Discriminant of [`Backend`], carried by [`Explain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// [`Backend::TqTree`].
    TqTree,
    /// [`Backend::Baseline`].
    Baseline,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::TqTree => write!(f, "tq-tree"),
            BackendKind::Baseline => write!(f, "baseline"),
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed errors of the [`Engine`] API — every condition the older free
/// functions answered with a panic or silent truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query's candidate set is empty (no facilities registered, or an
    /// explicit empty [`Query::candidates`] list).
    EmptyCandidates,
    /// `k == 0` — the query asks for nothing.
    ZeroK,
    /// `k` exceeds the number of candidate facilities.
    KExceedsCandidates {
        /// The requested `k`.
        k: usize,
        /// The number of candidates actually available.
        candidates: usize,
    },
    /// A [`Query::candidates`] id does not name a registered facility.
    UnknownCandidate {
        /// The offending id.
        id: FacilityId,
    },
    /// An update batch was rejected (out-of-bounds insert, or a removal
    /// naming a trajectory id that is not live). The batch was applied not
    /// at all.
    Update(UpdateError),
    /// [`Engine::apply`] was called on a backend without update support
    /// (the BL baseline is a static index).
    UpdatesUnsupported,
    /// An initial trajectory lies outside the explicit engine bounds passed
    /// to [`EngineBuilder::bounds`].
    TrajectoryOutOfBounds {
        /// The offending trajectory id.
        id: TrajectoryId,
    },
    /// The exact branch-and-bound solver exhausted its node budget before
    /// proving optimality (raise [`Query::node_budget`], lower `k`, or use
    /// [`Algorithm::Greedy`]).
    ExactBudgetExhausted,
    /// A persistence operation failed — I/O, a corrupt store, a refused
    /// WAL append. Carries the rendered [`tq_store::StoreError`]. A WAL
    /// failure inside [`Engine::apply`] rejects the batch with the
    /// in-memory engine untouched.
    Persist(String),
    /// The *post-publish* threshold checkpoint inside [`Engine::apply`]
    /// failed. Unlike [`EngineError::Persist`], the batch itself **was
    /// applied, published and durably WAL-logged** — do not retry it;
    /// only the log compaction failed (it will be retried by the next
    /// apply over threshold, or an explicit [`Engine::checkpoint`]).
    CheckpointFailed(String),
    /// [`Engine::checkpoint`] was called on an engine without an attached
    /// store (build with
    /// [`EngineBuilder::persist_to`] or load with [`Engine::open`] to get
    /// one).
    NotDurable,
    /// A sharded-engine configuration or consistency problem — a front end
    /// that cannot be built as requested ([`EngineBuilder::build_sharded`])
    /// or a sharded store whose shards and routing log disagree beyond
    /// what recovery can reconcile ([`Engine::open_sharded`]).
    Sharded(String),
    /// The write was sent to a replication follower. Followers apply only
    /// batches shipped from their primary; direct writes must go to the
    /// named primary address instead.
    ReadOnly {
        /// Address of the primary this follower replicates from.
        primary: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::EmptyCandidates => {
                write!(f, "the query's candidate facility set is empty")
            }
            EngineError::ZeroK => write!(f, "k must be at least 1"),
            EngineError::KExceedsCandidates { k, candidates } => write!(
                f,
                "k = {k} exceeds the {candidates} candidate facilities available"
            ),
            EngineError::UnknownCandidate { id } => {
                write!(f, "candidate id {id} does not name a registered facility")
            }
            EngineError::Update(e) => write!(f, "update batch rejected: {e}"),
            EngineError::UpdatesUnsupported => {
                write!(f, "the baseline backend is static and cannot apply updates")
            }
            EngineError::TrajectoryOutOfBounds { id } => {
                write!(f, "initial trajectory {id} lies outside the engine bounds")
            }
            EngineError::ExactBudgetExhausted => write!(
                f,
                "exact search exceeded its node budget before proving optimality"
            ),
            EngineError::Persist(why) => write!(f, "persistence failed: {why}"),
            EngineError::CheckpointFailed(why) => write!(
                f,
                "batch applied and WAL-logged, but the threshold checkpoint failed: {why}"
            ),
            EngineError::NotDurable => {
                write!(f, "no store attached (build with persist_to or Engine::open)")
            }
            EngineError::Sharded(why) => write!(f, "sharded engine: {why}"),
            EngineError::ReadOnly { primary } => write!(
                f,
                "this node is a read-only follower; send writes to the primary at {primary}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<UpdateError> for EngineError {
    fn from(e: UpdateError) -> Self {
        EngineError::Update(e)
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) enum BackendChoice {
    TqTree(TqTreeConfig),
    Baseline { capacity: usize },
}

/// Fluent constructor for [`Engine`] — see [`Engine::builder`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    pub(crate) model: ServiceModel,
    pub(crate) users: UserSet,
    pub(crate) facilities: FacilitySet,
    pub(crate) backend: BackendChoice,
    pub(crate) bounds: Option<Rect>,
    pub(crate) rebuild_fraction: f64,
    pub(crate) subset_tables: usize,
    pub(crate) persist: Option<(PathBuf, StoreConfig)>,
    /// Shard count for [`EngineBuilder::build_sharded`]; ignored by
    /// [`EngineBuilder::build`].
    pub(crate) shards: usize,
    /// `true` = z-range spatial partitioner, `false` = hash partitioner.
    pub(crate) spatial: bool,
}

impl EngineBuilder {
    /// Registers the user trajectories the engine indexes and serves.
    pub fn users(mut self, users: UserSet) -> EngineBuilder {
        self.users = users;
        self
    }

    /// Registers the candidate facilities queries rank and combine.
    pub fn facilities(mut self, facilities: FacilitySet) -> EngineBuilder {
        self.facilities = facilities;
        self
    }

    /// Uses a TQ-tree backend with this configuration (the default backend
    /// uses [`TqTreeConfig::default`]).
    pub fn tree_config(mut self, config: TqTreeConfig) -> EngineBuilder {
        self.backend = BackendChoice::TqTree(config);
        self
    }

    /// Uses the BL point-quadtree baseline backend instead of the TQ-tree.
    pub fn baseline(self) -> EngineBuilder {
        self.baseline_capacity(crate::baseline::DEFAULT_LEAF_CAPACITY)
    }

    /// [`EngineBuilder::baseline`] with an explicit quadtree leaf capacity.
    pub fn baseline_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.backend = BackendChoice::Baseline { capacity };
        self
    }

    /// Fixes the TQ-tree bounds (required when [`Engine::apply`] will
    /// insert trajectories outside the initial data extent, e.g. the full
    /// city rectangle). Initial trajectories outside the bounds fail the
    /// build with [`EngineError::TrajectoryOutOfBounds`]. Ignored by the
    /// baseline backend.
    pub fn bounds(mut self, bounds: Rect) -> EngineBuilder {
        self.bounds = Some(bounds);
        self
    }

    /// Patch-vs-rebuild threshold for [`Engine::apply`] (see
    /// [`crate::dynamic::DynamicConfig::rebuild_fraction`]; defaults to
    /// [`DEFAULT_REBUILD_FRACTION`]).
    pub fn rebuild_fraction(mut self, fraction: f64) -> EngineBuilder {
        self.rebuild_fraction = fraction;
        self
    }

    /// Capacity of the *subset* [`ServedTable`] memo: how many
    /// non-full-candidate-set tables the engine keeps (LRU-evicted beyond
    /// this). `0` disables subset caching entirely — subset coverage
    /// queries then build their table per query, like snapshot readers do.
    /// The pinned full-facility table is unaffected. Defaults to
    /// [`DEFAULT_SUBSET_TABLES`].
    pub fn subset_tables(mut self, capacity: usize) -> EngineBuilder {
        self.subset_tables = capacity;
        self
    }

    /// Makes the engine durable: creates a fresh
    /// [`tq_store`] directory at `dir`, writes the built engine's initial
    /// snapshot into it, and attaches the store so every
    /// [`Engine::apply`] batch is WAL-logged before it publishes and
    /// [`Engine::checkpoint`] (explicit or threshold-triggered) compacts
    /// the log into a new snapshot.
    ///
    /// The build fails with [`EngineError::Persist`] when `dir` already
    /// holds a store — reopen existing state with [`Engine::open`]
    /// instead of silently overwriting its history.
    pub fn persist_to(self, dir: impl AsRef<Path>) -> EngineBuilder {
        self.persist_with(dir, StoreConfig::default())
    }

    /// [`EngineBuilder::persist_to`] with explicit store tunables (fsync
    /// policy, auto-checkpoint threshold, snapshot retention).
    pub fn persist_with(mut self, dir: impl AsRef<Path>, config: StoreConfig) -> EngineBuilder {
        self.persist = Some((dir.as_ref().to_path_buf(), config));
        self
    }

    /// Number of shards for [`EngineBuilder::build_sharded`] (clamped to at
    /// least 1). Users are partitioned across `n` independent engines by
    /// the hash partitioner unless [`EngineBuilder::partition_by_space`]
    /// selects z-range splitting. Ignored by plain [`EngineBuilder::build`].
    pub fn shards(mut self, n: usize) -> EngineBuilder {
        self.shards = n.max(1);
        self
    }

    /// Selects the spatial z-range partitioner for
    /// [`EngineBuilder::build_sharded`]: shard boundaries are quantile
    /// splits of the initial users' source-point Z-curve codes, so
    /// spatially close trajectories land on the same shard. Requires
    /// explicit [`EngineBuilder::bounds`] or a non-empty initial user set
    /// (the split root rectangle).
    pub fn partition_by_space(mut self) -> EngineBuilder {
        self.spatial = true;
        self
    }

    /// Builds a [`crate::sharding::ShardedEngine`] front end over
    /// [`EngineBuilder::shards`] independent shard engines — same model,
    /// facilities, backend and tuning, each indexing its partition of the
    /// users. With [`EngineBuilder::persist_with`], `dir` becomes a
    /// *sharded* store directory: a shard manifest, a routing log and one
    /// plain store per shard (reopen with [`Engine::open_sharded`]).
    pub fn build_sharded(self) -> Result<crate::sharding::ShardedEngine, EngineError> {
        crate::sharding::ShardedEngine::from_builder(self)
    }

    /// Builds the backend index and the engine.
    pub fn build(self) -> Result<Engine, EngineError> {
        let backend = match self.backend {
            BackendChoice::TqTree(config) => match self.bounds {
                Some(bounds) => {
                    for (id, t) in self.users.iter() {
                        if t.points().iter().any(|p| !bounds.contains(p)) {
                            return Err(EngineError::TrajectoryOutOfBounds { id });
                        }
                    }
                    Backend::TqTree(TqTree::build_with_bounds(&self.users, config, bounds))
                }
                None => Backend::TqTree(TqTree::build(&self.users, config)),
            },
            BackendChoice::Baseline { capacity } => {
                Backend::Baseline(BaselineIndex::build_with_capacity(&self.users, capacity))
            }
        };
        let mut engine = Engine::new(self.users, self.facilities, self.model, backend);
        engine.rebuild_fraction = self.rebuild_fraction;
        engine.memo = TableMemo::new(self.subset_tables);
        if let Some((dir, config)) = self.persist {
            crate::persist::attach_new_store(&mut engine, &dir, config)?;
        }
        Ok(engine)
    }
}

// ---------------------------------------------------------------------------
// Engine (the control plane)
// ---------------------------------------------------------------------------

/// The single-writer control plane over one user set, service model and
/// backend: publishes [`Snapshot`]s for the read plane, answers queries
/// itself (with memoization), and applies [`Update`] batches by
/// structural sharing. See the [module docs](self) for the two-plane design,
/// the memoization rules and the bit-identity guarantees.
#[derive(Debug)]
pub struct Engine {
    /// The publication slot shared with every [`Reader`].
    slot: Arc<SnapshotSlot>,
    /// The writer's handle to the currently published snapshot (always the
    /// same `Arc` the slot holds).
    snapshot: Arc<Snapshot>,
    /// Per-facility ψ-expanded stop bounding rectangles (EMBRs) — the
    /// update-invalidation test. Facilities are immutable, so this never
    /// changes after construction.
    embrs: Vec<Rect>,
    /// Liveness per trajectory id (`false` = removed tombstone).
    live: Vec<bool>,
    rebuild_fraction: f64,
    /// Subset-table recency/capacity bookkeeping (the tables themselves
    /// are frozen in the snapshot).
    memo: TableMemo,
    stats: UpdateStats,
    /// The attached store when the engine is durable (see
    /// [`crate::persist`]); `None` for in-memory engines.
    pub(crate) durable: Option<Durable>,
}

impl Clone for Engine {
    /// Clones the control plane into an *independent* engine with its own
    /// publication slot seeded at the current snapshot. Readers of the
    /// original keep following the original; the clone starts a separate
    /// epoch history (continuing from the current epoch number).
    ///
    /// The clone is always **in-memory**: a store has one WAL and one
    /// writer, and that is the engine being cloned. Persist the fork to a
    /// different directory if it needs its own durability.
    fn clone(&self) -> Engine {
        Engine {
            slot: Arc::new(SnapshotSlot::new(self.snapshot.clone())),
            snapshot: self.snapshot.clone(),
            embrs: self.embrs.clone(),
            live: self.live.clone(),
            rebuild_fraction: self.rebuild_fraction,
            memo: self.memo.clone(),
            stats: self.stats,
            durable: None,
        }
    }
}

impl Engine {
    /// Starts a fluent [`EngineBuilder`] (TQ-tree backend with default
    /// configuration unless overridden).
    pub fn builder(model: ServiceModel) -> EngineBuilder {
        EngineBuilder {
            model,
            users: UserSet::new(),
            facilities: FacilitySet::new(),
            backend: BackendChoice::TqTree(TqTreeConfig::default()),
            bounds: None,
            rebuild_fraction: DEFAULT_REBUILD_FRACTION,
            subset_tables: DEFAULT_SUBSET_TABLES,
            persist: None,
            shards: 1,
            spatial: false,
        }
    }

    /// Wraps a pre-built backend. The backend must index exactly `users`
    /// (e.g. `Backend::TqTree(TqTree::build(&users, cfg))`).
    pub fn new(
        users: UserSet,
        facilities: FacilitySet,
        model: ServiceModel,
        backend: Backend,
    ) -> Engine {
        let embrs = facilities.iter().map(|(_, f)| f.embr(model.psi)).collect();
        let live_count = users.len();
        let snapshot = Arc::new(Snapshot {
            epoch: 0,
            users: Arc::new(users),
            facilities: Arc::new(facilities),
            model,
            backend: Arc::new(backend),
            live_count,
            tables: FxHashMap::default(),
        });
        Engine {
            slot: Arc::new(SnapshotSlot::new(snapshot.clone())),
            snapshot,
            embrs,
            live: vec![true; live_count],
            rebuild_fraction: DEFAULT_REBUILD_FRACTION,
            memo: TableMemo::new(DEFAULT_SUBSET_TABLES),
            stats: UpdateStats::default(),
            durable: None,
        }
    }

    /// Reassembles an engine from decoded snapshot state — the
    /// deserialization counterpart of [`Engine::new`] that additionally
    /// restores the live bitmap, the publication epoch and the builder
    /// knobs. Only [`crate::persist`] calls this.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_restored(
        users: UserSet,
        facilities: FacilitySet,
        model: ServiceModel,
        backend: Backend,
        live: Vec<bool>,
        epoch: u64,
        rebuild_fraction: f64,
        subset_tables: usize,
        full_table: Option<ServedTable>,
    ) -> Engine {
        let embrs = facilities.iter().map(|(_, f)| f.embr(model.psi)).collect();
        let live_count = live.iter().filter(|&&l| l).count();
        let mut tables = FxHashMap::default();
        if let Some(table) = full_table {
            tables.insert(table.ids.clone(), Arc::new(table));
        }
        let snapshot = Arc::new(Snapshot {
            epoch,
            users: Arc::new(users),
            facilities: Arc::new(facilities),
            model,
            backend: Arc::new(backend),
            live_count,
            tables,
        });
        Engine {
            slot: Arc::new(SnapshotSlot::new(snapshot.clone())),
            snapshot,
            embrs,
            live,
            rebuild_fraction,
            memo: TableMemo::new(subset_tables),
            stats: UpdateStats::default(),
            durable: None,
        }
    }

    /// Attaches an opened store (see [`crate::persist`]).
    pub(crate) fn attach_store(&mut self, store: tq_store::Store) {
        self.durable = Some(Durable::new(store));
    }

    /// The patch-vs-rebuild threshold, for the snapshot codec.
    pub(crate) fn rebuild_fraction(&self) -> f64 {
        self.rebuild_fraction
    }

    /// The subset-table memo capacity, for the snapshot codec.
    pub(crate) fn subset_table_capacity(&self) -> usize {
        self.memo.capacity()
    }

    // -- the read plane -----------------------------------------------------

    /// A cloneable, `Send + Sync` [`Reader`] handle that always yields the
    /// engine's latest published snapshot — the thing to hand to serving
    /// threads.
    pub fn reader(&self) -> Reader {
        Reader {
            slot: self.slot.clone(),
        }
    }

    /// The currently published snapshot (readers obtained it through
    /// [`Engine::reader`]; the writer gets the same `Arc` here without
    /// touching the slot).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshot.clone()
    }

    /// The current publication epoch. Starts at 0; bumped by every
    /// publication — update batches ([`Engine::apply`]) and table
    /// absorptions ([`Engine::run`] misses, [`Engine::warm`]).
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch
    }

    /// Atomically publishes a successor snapshot and keeps the writer's
    /// handle in sync. The one and only place epochs advance.
    fn publish(&mut self, snapshot: Snapshot) {
        debug_assert!(snapshot.epoch > self.snapshot.epoch, "epochs are monotone");
        let arc = Arc::new(snapshot);
        self.snapshot = arc.clone();
        self.slot.store(arc);
    }

    // -- queries ------------------------------------------------------------

    /// Answers a typed [`Query`], memoizing any [`ServedTable`] the query
    /// had to build (absorbed into a newly published snapshot, so
    /// subsequent queries — on the engine *and* on every reader — hit it).
    ///
    /// Validation errors ([`EngineError::EmptyCandidates`],
    /// [`EngineError::ZeroK`], [`EngineError::KExceedsCandidates`],
    /// [`EngineError::UnknownCandidate`]) are returned before any
    /// evaluation work happens.
    pub fn run(&mut self, query: Query) -> Result<Answer, EngineError> {
        let (answer, outcome) = session::execute(&self.snapshot, &query)?;
        if let Some(outcome) = outcome {
            match outcome.built {
                Some(table) => self.absorb_table(outcome.key, table),
                None => self.memo.touch(&outcome.key),
            }
        }
        Ok(answer)
    }

    /// Absorbs a freshly built table into the memo: admits it against the
    /// capacity bound and publishes a successor snapshot carrying it (and
    /// dropping any evicted ones). No-op for subset tables when subset
    /// caching is disabled.
    pub(crate) fn absorb_table(&mut self, key: Vec<FacilityId>, table: Arc<ServedTable>) {
        let is_full = key.len() == self.snapshot.facilities.len();
        let mut evicted = Vec::new();
        if !is_full {
            if self.memo.capacity() == 0 {
                return;
            }
            evicted = self.memo.admit(key.clone());
        }
        let mut tables = self.snapshot.tables.clone();
        for k in &evicted {
            tables.remove(k);
        }
        tables.insert(key, table);
        self.publish(Snapshot {
            epoch: self.snapshot.epoch + 1,
            users: self.snapshot.users.clone(),
            facilities: self.snapshot.facilities.clone(),
            model: self.snapshot.model,
            backend: self.snapshot.backend.clone(),
            live_count: self.snapshot.live_count,
            tables,
        });
    }

    /// Refreshes a memoized subset table's recency (LRU order) without
    /// running a query — used by the sharded front end to keep per-shard
    /// memo eviction in lockstep with its own.
    pub(crate) fn touch_table(&mut self, key: &[FacilityId]) {
        self.memo.touch(key);
    }

    /// Pre-evaluates (and memoizes) the [`ServedTable`] over **all**
    /// registered facilities, so subsequent queries hit the cache and
    /// [`Engine::apply`] maintains it incrementally from the start.
    /// Publishes the snapshot carrying it and returns the table.
    pub fn warm(&mut self) -> &ServedTable {
        let all: Vec<FacilityId> = self.snapshot.facilities.iter().map(|(id, _)| id).collect();
        if !self.snapshot.tables.contains_key(&all) {
            let table = self.snapshot.backend.as_index().served_table(
                &self.snapshot.users,
                &self.snapshot.model,
                &self.snapshot.facilities,
                &all,
            );
            self.absorb_table(all.clone(), Arc::new(table));
        }
        &self.snapshot.tables[&all]
    }

    /// The memoized table for a candidate set, if one exists (`None` until
    /// a coverage query or [`Engine::warm`] built it).
    pub fn cached_table(&self, candidates: &[FacilityId]) -> Option<&ServedTable> {
        self.snapshot.cached_table(candidates)
    }

    /// The memoized full-facility table (see [`Engine::warm`]).
    pub fn full_table(&self) -> Option<&ServedTable> {
        self.snapshot.full_table()
    }

    pub(crate) fn rank_table(table: &ServedTable, k: usize) -> Vec<(FacilityId, f64)> {
        session::rank_table(table, k)
    }

    // -- updates ------------------------------------------------------------

    /// Applies one batch of updates and publishes the resulting snapshot:
    /// validates the batch, mutates the index and user set, brings
    /// **every memoized table** back in sync incrementally (patched or
    /// re-evaluated per facility, as counted by [`Engine::stats`]), then
    /// swaps the new epoch into the publication slot. Readers keep
    /// answering on the old epoch until they next ask for a snapshot; the
    /// old epoch is freed by its `Arc` refcount.
    ///
    /// The cost is `O(batch)`, not `O(state)`, by **structural sharing**:
    /// the user set, the TQ-tree node arena and every table row are
    /// chunked behind `Arc`s, and the new epoch shares every chunk the
    /// batch does not touch with the old one. An insert copies the user
    /// set's tail chunk, the arena chunks on its root-to-leaf path and the
    /// one item chunk of the z-list it joins; a patched row copies only
    /// the chunks its edits land in and re-folds its value from there (see
    /// [`MaskRow`](crate::maxcov::MaskRow)), bit-identical to a fresh
    /// build.
    ///
    /// All-or-nothing: a batch with an out-of-bounds insert or a dead
    /// removal id is rejected without touching the engine
    /// ([`EngineError::Update`]). The baseline backend rejects all updates
    /// with [`EngineError::UpdatesUnsupported`].
    ///
    /// On a durable engine (built with [`EngineBuilder::persist_to`] or
    /// loaded with [`Engine::open`]) the validated batch is appended to
    /// the write-ahead log — fsynced per the configured
    /// [`crate::persist::SyncPolicy`] — **before** any state mutates, so
    /// an acknowledged batch survives a crash at any later instant (a
    /// WAL failure surfaces as [`EngineError::Persist`] with the batch
    /// rejected and the engine untouched); and once the store's
    /// `checkpoint_every` threshold is reached the apply finishes by
    /// checkpointing (fresh snapshot, truncated WAL). A failure of that
    /// post-publish compaction is the one error after which the batch
    /// *is* applied — it is reported distinctly as
    /// [`EngineError::CheckpointFailed`] so callers never retry an
    /// already-durable batch.
    pub fn apply(&mut self, updates: &[Update]) -> Result<BatchOutcome, EngineError> {
        if !matches!(&*self.snapshot.backend, Backend::TqTree(_)) {
            return Err(EngineError::UpdatesUnsupported);
        }
        self.validate_batch(updates)?;
        self.wal_append(updates)?;
        let outcome = self.apply_validated(updates, self.snapshot.epoch + 1);
        self.maybe_auto_checkpoint()?;
        Ok(outcome)
    }

    /// Re-applies one WAL batch during [`Engine::open`] recovery: same
    /// validation and mutation as [`Engine::apply`], but publishing at
    /// the epoch the original apply stamped into the record (so the
    /// recovered engine resumes exactly where the writer was) and without
    /// re-appending to the WAL.
    pub(crate) fn replay_batch(
        &mut self,
        updates: &[Update],
        stamp: u64,
    ) -> Result<BatchOutcome, EngineError> {
        if !matches!(&*self.snapshot.backend, Backend::TqTree(_)) {
            return Err(EngineError::UpdatesUnsupported);
        }
        self.validate_batch(updates)?;
        Ok(self.apply_validated(updates, stamp))
    }

    /// Applies one batch shipped from a replication primary, publishing at
    /// the epoch the primary stamped it with.
    ///
    /// The stamp makes this **idempotent**: a batch at or below the
    /// engine's current epoch is already reflected in the state (the
    /// follower saw it through catch-up *and* the live feed, or through a
    /// reconnect replaying an overlap) and is skipped with an empty
    /// [`BatchOutcome`]. Stamps above the current epoch may legitimately
    /// skip epochs — WAL stamps are increasing but not dense (see
    /// [`crate::persist`]) — and publish exactly at the primary's stamp,
    /// the same rule the WAL replay of [`Engine::open`] follows.
    ///
    /// On a durable follower the batch lands in the local WAL at the
    /// primary's stamp *before* it publishes — exactly the
    /// WAL-before-publish ordering of [`Engine::apply`] — so a follower
    /// crash replays to the same epoch it acknowledged.
    pub fn apply_replicated(
        &mut self,
        updates: &[Update],
        stamp: u64,
    ) -> Result<BatchOutcome, EngineError> {
        if stamp <= self.snapshot.epoch {
            return Ok(BatchOutcome::default());
        }
        if !matches!(&*self.snapshot.backend, Backend::TqTree(_)) {
            return Err(EngineError::UpdatesUnsupported);
        }
        self.validate_batch(updates)?;
        self.wal_append_at(updates, stamp)?;
        let outcome = self.apply_validated(updates, stamp);
        self.maybe_auto_checkpoint()?;
        Ok(outcome)
    }

    /// The mutation half of [`Engine::apply`]: the batch must already be
    /// validated (and WAL-logged when durable); publishes at `new_epoch`.
    fn apply_validated(&mut self, updates: &[Update], new_epoch: u64) -> BatchOutcome {
        // Readers may still hold the published snapshot, so the index and
        // user set are never mutated in place: the clones share every
        // chunk with it, and the mutations below path-copy only the
        // chunks they touch.
        let mut users = UserSet::clone(&self.snapshot.users);
        let Backend::TqTree(tree_ref) = &*self.snapshot.backend else {
            unreachable!("checked above");
        };
        let mut tree = tree_ref.clone();

        // Phase 1: mutate the index, collecting the delta list
        // (id, inserted?, trajectory MBR) per event, in order.
        let mut outcome = BatchOutcome::default();
        let mut live_count = self.snapshot.live_count;
        let mut deltas: Vec<(TrajectoryId, bool, Rect)> = Vec::with_capacity(updates.len());
        for u in updates {
            match u {
                Update::Insert(t) => {
                    let mbr = t.mbr();
                    let id = tree
                        .insert(&mut users, t.clone())
                        .expect("validated against the bounds");
                    self.live.push(true);
                    live_count += 1;
                    self.stats.inserts += 1;
                    outcome.inserted.push(id);
                    deltas.push((id, true, mbr));
                }
                Update::Remove(id) => {
                    tree.remove(&users, *id).expect("validated as live");
                    self.live[*id as usize] = false;
                    live_count -= 1;
                    self.stats.removes += 1;
                    outcome.removed += 1;
                    deltas.push((*id, false, users.get(*id).mbr()));
                }
            }
        }

        // Phases 2+3 per memoized table: classify its candidates by the
        // EMBR∩delta-MBR rule. A table none of whose facilities intersect
        // any delta keeps its Arc from the previous epoch (zero copies);
        // a touched table's spine is cloned (one pointer per row), then
        // rows are patched (cheap facilities) or rebuilt through the tree
        // (heavy ones, fanned out across threads).
        let rebuild_threshold =
            (self.rebuild_fraction * live_count.max(1) as f64).ceil() as usize;
        let placement = tree.config().placement;
        let mut tables = self.snapshot.tables.clone();
        for shared in tables.values_mut() {
            let relevant: Vec<Vec<&(TrajectoryId, bool, Rect)>> = shared
                .ids
                .iter()
                .map(|&fid| {
                    let embr = &self.embrs[fid as usize];
                    deltas
                        .iter()
                        .filter(|(_, _, mbr)| embr.intersects(mbr))
                        .collect()
                })
                .collect();
            if relevant.iter().all(|r| r.is_empty()) {
                let n = shared.ids.len();
                self.stats.facilities_untouched += n as u64;
                outcome.untouched += n;
                continue;
            }
            // The clone shares every row; patches copy only touched chunks.
            let mut table = ServedTable::clone(shared);
            let mut rebuilds: Vec<usize> = Vec::new();
            let mut edits: Vec<RowEdit> = Vec::new();
            for (ti, relevant) in relevant.iter().enumerate() {
                if relevant.is_empty() {
                    self.stats.facilities_untouched += 1;
                    outcome.untouched += 1;
                    continue;
                }
                if relevant.len() > rebuild_threshold {
                    rebuilds.push(ti);
                    continue;
                }
                let fid = table.ids[ti];
                let facility = self.snapshot.facilities.get(fid);
                edits.clear();
                for &&(id, inserted, _) in relevant {
                    if inserted {
                        self.stats.patch_evaluations += 1;
                        if let Some(mask) = session::delta_mask(
                            &users,
                            &self.snapshot.model,
                            placement,
                            id,
                            facility,
                        ) {
                            edits.push(RowEdit::Insert(id, mask));
                        }
                    } else {
                        edits.push(RowEdit::Remove(id));
                    }
                }
                // The row path-copies only the chunks the edits land in
                // and re-folds its value from there: no re-sort, no
                // re-evaluation of untouched users.
                if table.masks[ti].patch(&users, &self.snapshot.model, edits.drain(..)) {
                    table.values[ti] = table.masks[ti].value();
                }
                self.stats.facilities_patched += 1;
                outcome.patched += 1;
            }
            if !rebuilds.is_empty() {
                let ids: Vec<FacilityId> = rebuilds.iter().map(|&ti| table.ids[ti]).collect();
                let outcomes = parallel::par_evaluate_candidates(
                    &tree,
                    &users,
                    &self.snapshot.model,
                    &self.snapshot.facilities,
                    &ids,
                    true,
                );
                for (&ti, out) in rebuilds.iter().zip(outcomes) {
                    table.masks[ti] = out.masks;
                    table.values[ti] = out.value;
                }
                self.stats.facilities_reevaluated += rebuilds.len() as u64;
                outcome.reevaluated += rebuilds.len();
            }
            *shared = Arc::new(table);
        }
        self.stats.batches += 1;
        self.publish(Snapshot {
            epoch: new_epoch,
            users: Arc::new(users),
            facilities: self.snapshot.facilities.clone(),
            model: self.snapshot.model,
            backend: Arc::new(Backend::TqTree(tree)),
            live_count,
            tables,
        });
        outcome
    }

    /// Validates a batch without mutating anything: bounds for inserts,
    /// liveness (accounting for earlier events of the same batch) for
    /// removals.
    fn validate_batch(&self, updates: &[Update]) -> Result<(), UpdateError> {
        let Backend::TqTree(tree) = &*self.snapshot.backend else {
            return Ok(());
        };
        let bounds = tree.bounds();
        let mut next_id = self.snapshot.users.len() as TrajectoryId;
        let mut batch_removed: FxHashSet<TrajectoryId> = Default::default();
        for (index, u) in updates.iter().enumerate() {
            match u {
                Update::Insert(t) => {
                    if t.points().iter().any(|p| !bounds.contains(p)) {
                        return Err(UpdateError::OutOfBounds { index });
                    }
                    next_id += 1;
                }
                Update::Remove(id) => {
                    let preexisting = (*id as usize) < self.live.len();
                    let live = if preexisting {
                        self.live[*id as usize]
                    } else {
                        // Inserted earlier in this batch?
                        *id < next_id
                    };
                    if !live || !batch_removed.insert(*id) {
                        return Err(UpdateError::NotLive { index, id: *id });
                    }
                }
            }
        }
        Ok(())
    }

    // -- accessors ----------------------------------------------------------

    /// The registered user trajectories (including removed tombstones; see
    /// [`Engine::is_live`]).
    pub fn users(&self) -> &UserSet {
        self.snapshot.users()
    }

    /// The registered candidate facilities.
    pub fn facilities(&self) -> &FacilitySet {
        self.snapshot.facilities()
    }

    /// The registered service model.
    pub fn model(&self) -> &ServiceModel {
        self.snapshot.model()
    }

    /// The backend index.
    pub fn backend(&self) -> &Backend {
        self.snapshot.backend()
    }

    /// The TQ-tree, when that is the backend.
    pub fn tree(&self) -> Option<&TqTree> {
        self.snapshot.tree()
    }

    /// Number of live (inserted and not yet removed) trajectories.
    pub fn live_users(&self) -> usize {
        self.snapshot.live_users()
    }

    /// Whether trajectory `id` is currently live.
    pub fn is_live(&self, id: TrajectoryId) -> bool {
        (id as usize) < self.live.len() && self.live[id as usize]
    }

    /// Ids of the live trajectories, ascending.
    pub fn live_ids(&self) -> impl Iterator<Item = TrajectoryId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, l)| **l)
            .map(|(i, _)| i as TrajectoryId)
    }

    /// A compacted [`UserSet`] of just the live trajectories, in ascending
    /// id order — the set a fresh build should index when cross-checking
    /// the engine against build-from-scratch.
    ///
    /// Compaction renumbers ids but is *monotone*, which is what keeps the
    /// canonical (ascending-id) value summation order — and with it the
    /// bit-identity guarantee — intact across the two id spaces.
    pub fn live_set(&self) -> UserSet {
        UserSet::from_vec(
            self.live_ids()
                .map(|id| self.snapshot.users.get(id).clone())
                .collect(),
        )
    }

    /// Accumulated update-work counters across every applied batch, summed
    /// over all memoized tables.
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Scenario;
    use tq_geometry::Point;
    use tq_trajectory::Trajectory;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn small_instance() -> (UserSet, FacilitySet) {
        let users = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
            Trajectory::two_point(p(50.0, 50.0), p(60.0, 50.0)),
            Trajectory::two_point(p(0.5, 0.0), p(9.5, 0.0)),
        ]);
        let facilities = FacilitySet::from_vec(vec![
            Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
            Facility::new(vec![p(50.0, 51.0), p(60.0, 51.0)]),
            Facility::new(vec![p(90.0, 90.0)]),
        ]);
        (users, facilities)
    }

    fn engine() -> Engine {
        let (users, facilities) = small_instance();
        Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .build()
            .unwrap()
    }

    #[test]
    fn validation_errors_are_typed() {
        let mut e = engine();
        assert_eq!(e.run(Query::top_k(0)).unwrap_err(), EngineError::ZeroK);
        assert_eq!(
            e.run(Query::top_k(4)).unwrap_err(),
            EngineError::KExceedsCandidates { k: 4, candidates: 3 }
        );
        assert_eq!(
            e.run(Query::top_k(1).candidates(&[])).unwrap_err(),
            EngineError::EmptyCandidates
        );
        assert_eq!(
            e.run(Query::top_k(1).candidates(&[7])).unwrap_err(),
            EngineError::UnknownCandidate { id: 7 }
        );
    }

    #[test]
    fn candidate_restriction_maps_ids_back() {
        let mut e = engine();
        let ans = e.run(Query::top_k(1).candidates(&[1, 2])).unwrap();
        assert_eq!(ans.ranked()[0].0, 1);
        assert_eq!(ans.ranked()[0].1, 1.0);
    }

    #[test]
    fn maxcov_then_topk_hits_cache_with_identical_values() {
        let mut e = engine();
        let fresh = e.run(Query::top_k(3)).unwrap();
        assert_eq!(fresh.explain.cache, CacheStatus::Unused);

        let cov = e.run(Query::max_cov(2)).unwrap();
        assert_eq!(cov.explain.cache, CacheStatus::Miss);
        let cached = e.run(Query::top_k(3)).unwrap();
        assert!(cached.explain.cache.is_hit());
        assert_eq!(cached.explain.eval.items_tested, 0, "no work on a hit");
        for (a, b) in fresh.ranked().iter().zip(cached.ranked()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }

        // Second coverage query over the same candidates also hits.
        let cov2 = e.run(Query::max_cov(2)).unwrap();
        assert!(cov2.explain.cache.is_hit());
        assert_eq!(cov2.cover().value.to_bits(), cov.cover().value.to_bits());
    }

    #[test]
    fn snapshot_answers_match_engine_and_never_publish() {
        let mut e = engine();
        e.warm();
        let epoch_before = e.epoch();
        let reader = e.reader();
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), epoch_before);

        // Cache hit from the frozen memo.
        let hit = snap.run(Query::top_k(3)).unwrap();
        assert!(hit.explain.cache.is_hit());
        assert_eq!(hit.explain.snapshot_epoch, epoch_before);

        // Subset miss: the snapshot builds the table locally, answers
        // correctly, and memoizes nothing (no publication).
        let miss = snap.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        assert_eq!(miss.explain.cache, CacheStatus::Miss);
        assert_eq!(reader.epoch(), epoch_before, "snapshot runs never publish");
        let again = snap.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        assert_eq!(again.explain.cache, CacheStatus::Miss);
        assert_eq!(again.cover().value.to_bits(), miss.cover().value.to_bits());

        // The engine's answers at the same epoch are bit-identical.
        let own = e.run(Query::top_k(3)).unwrap();
        for (a, b) in own.ranked().iter().zip(hit.ranked()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn readers_observe_published_epochs_old_snapshots_stay_valid() {
        let (users, facilities) = small_instance();
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .bounds(Rect::new(p(0.0, 0.0), p(100.0, 100.0)))
            .build()
            .unwrap();
        e.warm();
        let reader = e.reader();
        let old = reader.snapshot();
        let old_top = old.run(Query::top_k(3)).unwrap();

        e.apply(&[Update::Insert(Trajectory::two_point(
            p(0.2, 0.0),
            p(9.8, 0.0),
        ))])
        .unwrap();

        // The reader handle sees the new epoch; the held snapshot still
        // answers exactly as before (no torn state).
        let new = reader.snapshot();
        assert!(new.epoch() > old.epoch());
        assert_eq!(new.live_users(), 4);
        assert_eq!(old.live_users(), 3);
        let old_again = old.run(Query::top_k(3)).unwrap();
        for (a, b) in old_top.ranked().iter().zip(old_again.ranked()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        let new_top = new.run(Query::top_k(3)).unwrap();
        assert!(new_top.ranked()[0].1 > old_top.ranked()[0].1);
    }

    #[test]
    fn clone_is_an_independent_writer() {
        let mut e = engine();
        e.warm();
        let reader = e.reader();
        let mut fork = e.clone();
        let fork_reader = fork.reader();
        // A publication on the fork is invisible to the original's readers.
        fork.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        assert!(fork_reader.epoch() > reader.epoch());
        assert_eq!(reader.epoch(), e.epoch());
    }

    #[test]
    fn baseline_backend_rejects_updates() {
        let (users, facilities) = small_instance();
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .baseline()
            .build()
            .unwrap();
        let batch = vec![Update::Insert(Trajectory::two_point(
            p(1.0, 1.0),
            p(2.0, 2.0),
        ))];
        assert_eq!(e.apply(&batch).unwrap_err(), EngineError::UpdatesUnsupported);
    }

    #[test]
    fn builder_bounds_check() {
        let (users, facilities) = small_instance();
        let err = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .bounds(Rect::new(p(0.0, 0.0), p(20.0, 20.0)))
            .build()
            .unwrap_err();
        assert_eq!(err, EngineError::TrajectoryOutOfBounds { id: 1 });
    }

    #[test]
    fn apply_maintains_every_memoized_table() {
        let (users, facilities) = small_instance();
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities.clone())
            .bounds(Rect::new(p(0.0, 0.0), p(100.0, 100.0)))
            .build()
            .unwrap();
        // Memoize two tables: the full set and a subset.
        e.run(Query::max_cov(1)).unwrap();
        e.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();

        // A commuter arrives near facility 0.
        e.apply(&[Update::Insert(Trajectory::two_point(
            p(0.2, 0.0),
            p(9.8, 0.0),
        ))])
        .unwrap();

        // Both memoized tables now answer like a fresh engine.
        let got = e.run(Query::top_k(3)).unwrap();
        assert!(got.explain.cache.is_hit());
        let mut fresh = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(e.live_set())
            .facilities(facilities)
            .build()
            .unwrap();
        let want = fresh.run(Query::top_k(3)).unwrap();
        for (g, w) in got.ranked().iter().zip(want.ranked()) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
        let sub = e.run(Query::top_k(2).candidates(&[0, 1])).unwrap();
        assert!(sub.explain.cache.is_hit());
        assert_eq!(sub.ranked()[0].1, 3.0);
    }

    #[test]
    fn untouched_tables_stay_arc_shared_across_epochs() {
        let (users, facilities) = small_instance();
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .bounds(Rect::new(p(0.0, 0.0), p(100.0, 100.0)))
            .build()
            .unwrap();
        // Subset table for facility 1 only (far corner), full table too.
        e.warm();
        e.run(Query::max_cov(1).candidates(&[1])).unwrap();
        let before = e.snapshot();
        let key = vec![1u32];
        // A batch near facility 0: facility 1's subset table is untouched
        // and must be the *same allocation* in the new epoch; the full
        // table (contains facility 0) must be a fresh copy.
        e.apply(&[Update::Insert(Trajectory::two_point(
            p(0.2, 0.0),
            p(9.8, 0.0),
        ))])
        .unwrap();
        let after = e.snapshot();
        assert!(Arc::ptr_eq(&before.tables[&key], &after.tables[&key]));
        let full: Vec<FacilityId> = (0..3).collect();
        assert!(!Arc::ptr_eq(&before.tables[&full], &after.tables[&full]));
    }

    #[test]
    fn exact_budget_exhaustion_is_typed() {
        // Source-only and destination-only facilities: every per-facility
        // potential is 1 but no single facility serves anyone, so the
        // branch-and-bound must actually explore nodes — which a zero
        // budget forbids.
        let users = UserSet::from_vec(vec![Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0))]);
        let facilities = FacilitySet::from_vec(vec![
            Facility::new(vec![p(0.0, 0.5)]),
            Facility::new(vec![p(10.0, 0.5)]),
        ]);
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 1.0))
            .users(users)
            .facilities(facilities)
            .build()
            .unwrap();
        let err = e
            .run(Query::max_cov(2).algorithm(Algorithm::Exact).node_budget(0))
            .unwrap_err();
        assert_eq!(err, EngineError::ExactBudgetExhausted);
        // With the default budget the same query completes.
        let ok = e.run(Query::max_cov(2).algorithm(Algorithm::Exact)).unwrap();
        assert_eq!(ok.cover().value, 1.0);
    }

    fn grid_instance(extra_facilities: usize) -> (UserSet, FacilitySet) {
        let users = UserSet::from_vec(
            (0..4)
                .map(|i| {
                    let y = i as f64;
                    Trajectory::two_point(p(0.0, y), p(10.0, y))
                })
                .collect(),
        );
        let facilities = FacilitySet::from_vec(
            (0..extra_facilities)
                .map(|i| {
                    let y = (i % 4) as f64;
                    Facility::new(vec![p(0.0, y + 0.5), p(10.0, y + 0.5)])
                })
                .collect(),
        );
        (users, facilities)
    }

    #[test]
    fn subset_table_memo_is_bounded_and_full_table_pinned() {
        let (users, facilities) = grid_instance(DEFAULT_SUBSET_TABLES + 4);
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 1.0))
            .users(users)
            .facilities(facilities)
            .build()
            .unwrap();
        e.warm();
        // Many distinct subset queries: the memo must stay bounded and the
        // pinned full table must survive every eviction.
        for i in 0..(DEFAULT_SUBSET_TABLES as u32 + 3) {
            e.run(Query::max_cov(1).candidates(&[i, i + 1])).unwrap();
            assert!(
                e.snapshot.tables.len() <= DEFAULT_SUBSET_TABLES + 1,
                "memo grew past the cap at query {i}: {}",
                e.snapshot.tables.len()
            );
            assert!(e.full_table().is_some(), "full table evicted at query {i}");
        }
        assert_eq!(e.memo.subset_count(), DEFAULT_SUBSET_TABLES);
        // The oldest subset was evicted, the newest re-queries as a hit.
        let newest = [
            DEFAULT_SUBSET_TABLES as u32 + 2,
            DEFAULT_SUBSET_TABLES as u32 + 3,
        ];
        let hit = e.run(Query::max_cov(1).candidates(&newest)).unwrap();
        assert!(hit.explain.cache.is_hit());
        let oldest = e.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        assert_eq!(oldest.explain.cache, CacheStatus::Miss, "oldest was evicted");
    }

    #[test]
    fn subset_table_capacity_is_configurable() {
        let (users, facilities) = grid_instance(6);
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 1.0))
            .users(users)
            .facilities(facilities)
            .subset_tables(1)
            .build()
            .unwrap();
        e.warm();
        e.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        let hit = e.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        assert!(hit.explain.cache.is_hit());
        // A second subset evicts the first at capacity 1.
        e.run(Query::max_cov(1).candidates(&[2, 3])).unwrap();
        assert_eq!(e.snapshot.tables.len(), 2, "full + one subset");
        let miss = e.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        assert_eq!(miss.explain.cache, CacheStatus::Miss);
        assert!(e.full_table().is_some());
    }

    #[test]
    fn zero_capacity_disables_subset_caching() {
        let (users, facilities) = grid_instance(6);
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 1.0))
            .users(users)
            .facilities(facilities)
            .subset_tables(0)
            .build()
            .unwrap();
        let epoch0 = e.epoch();
        let first = e.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        assert_eq!(first.explain.cache, CacheStatus::Miss);
        assert_eq!(e.epoch(), epoch0, "no publication for an uncached table");
        let second = e.run(Query::max_cov(1).candidates(&[0, 1])).unwrap();
        assert_eq!(second.explain.cache, CacheStatus::Miss, "never cached");
        assert_eq!(
            second.cover().value.to_bits(),
            first.cover().value.to_bits()
        );
        // The pinned full table is unaffected by the knob.
        e.run(Query::max_cov(1)).unwrap();
        assert!(e.full_table().is_some());
        let hit = e.run(Query::max_cov(1)).unwrap();
        assert!(hit.explain.cache.is_hit());
    }

    #[test]
    fn update_errors_are_wrapped() {
        let (users, facilities) = small_instance();
        let mut e = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(users)
            .facilities(facilities)
            .bounds(Rect::new(p(0.0, 0.0), p(100.0, 100.0)))
            .build()
            .unwrap();
        let err = e.apply(&[Update::Remove(99)]).unwrap_err();
        assert_eq!(
            err,
            EngineError::Update(UpdateError::NotLive { index: 0, id: 99 })
        );
        let err = e
            .apply(&[Update::Insert(Trajectory::two_point(
                p(-5.0, 0.0),
                p(1.0, 1.0),
            ))])
            .unwrap_err();
        assert_eq!(err, EngineError::Update(UpdateError::OutOfBounds { index: 0 }));
    }
}
