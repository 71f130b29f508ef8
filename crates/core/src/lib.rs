//! TQ-tree index and trajectory coverage query processing.
//!
//! This crate implements the primary contribution of *"The Maximum Trajectory
//! Coverage Query in Spatial Databases"* (Ali et al., 2018):
//!
//! * the **TQ-tree** ([`tqtree::TqTree`]) — a two-level index that organizes
//!   user trajectories hierarchically in a quadtree (inter-node trajectories
//!   in internal nodes, intra-node trajectories in leaves) and orders each
//!   node's trajectory list along a Z-curve into β-sized buckets (*z-nodes*);
//! * **service evaluation** ([`eval`]) — the divide-and-conquer
//!   `evaluateService` of the paper's Algorithm 1/2 with the two-phase
//!   (q-node, then z-id) pruning, including `zReduce`;
//! * **kMaxRRST** ([`topk`]) — the best-first top-k facility search of
//!   Algorithms 3/4, driven by per-node service upper bounds;
//! * **MaxkCovRST** ([`maxcov`]) — greedy, two-step greedy, exact
//!   (branch-and-bound) and genetic solvers for the NP-hard, non-submodular
//!   maximum-coverage variant;
//! * the **dynamic-workload engine** ([`dynamic`]) — batched trajectory
//!   arrivals/expiries applied through the incremental insert/remove
//!   machinery, with both query families kept bit-identical to a fresh
//!   build+query after every batch.
//!
//! The service semantics of the paper's three motivating scenarios are
//! captured by [`service::Scenario`] and evaluated through per-user
//! served-point masks ([`service::PointMask`]), which double as the
//! overlap-aware `AGG` aggregation MaxkCovRST requires.
//!
//! All of the above is served through one typed entry point — the
//! **[`engine`]** module's [`engine::Engine`] / [`engine::Query`] API,
//! which unifies the TQ-tree and the [`baseline`] BL index behind the
//! [`engine::Index`] trait, memoizes [`maxcov::ServedTable`]s across
//! queries, folds the dynamic-update machinery into
//! [`engine::Engine::apply`], and reports an [`engine::Explain`] with every
//! answer. The free functions ([`top_k_facilities`],
//! [`maxcov::two_step_greedy`], …) remain as the low-level solver layer the
//! engine dispatches to.
//!
//! For concurrent serving the engine is split into two planes: immutable,
//! epoch-numbered [`engine::Snapshot`]s answer queries through `&self`
//! with zero locks (any number of reader threads), while the single-writer
//! [`engine::Engine`] control plane applies update batches by structural
//! sharing (a batch copies only the chunks it touches) and publishes each
//! new epoch atomically to every [`engine::Reader`].
//! The **[`serve`]** module drives a whole sharded worker pool off that
//! split — N client threads of mixed queries against a live update stream.
//!
//! Engines are durable via the **[`persist`]** module (built on the
//! `tq-store` crate): [`engine::EngineBuilder::persist_to`] snapshots the
//! full state — TQ-tree arena and warmed served table included — and
//! WAL-logs every [`engine::Engine::apply`] batch before it publishes;
//! [`engine::Engine::open`] cold-starts in `O(read)` with crash-safe
//! longest-valid-prefix WAL replay and bit-identical answers. Threshold
//! checkpoints can be staged off the write path on a worker thread
//! ([`persist::StoreConfig::background_checkpoints`]).
//!
//! The **[`sharding`]** module scales the whole stack out: a
//! [`sharding::ShardedEngine`] partitions the users across N engines
//! (hash or spatial z-range placement) and scatter–gathers the same
//! [`engine::Query`] API over them — top-k by merging per-shard served
//! tables in canonical order, greedy max-cov through the cross-shard
//! [`sharding::GainCombiner`] rounds — **bit-identical to one engine
//! over the union** at every shard count, with one `tq-store` per shard
//! recovered in parallel by [`engine::Engine::open_sharded`]. Both
//! planes are abstracted by the [`writer`] module's
//! [`writer::ControlPlane`] / [`writer::ReadPlane`] traits, so
//! [`serve`] and the `tq-net` server run either engine through one
//! generic code path.

#![warn(missing_docs)]

pub mod baseline;
pub mod dynamic;
pub mod engine;
pub mod eval;
pub mod fasthash;
pub mod maxcov;
pub mod parallel;
pub mod persist;
pub mod serve;
pub mod service;
pub mod sharding;
pub mod topk;
pub mod tqtree;
pub mod wire;
pub mod writer;

pub use baseline::BaselineIndex;
pub use dynamic::{DynamicConfig, DynamicEngine, Update, UpdateError, UpdateStats};
pub use engine::{
    Algorithm, Answer, Backend, BackendKind, CacheStatus, Engine, EngineBuilder, EngineError,
    Explain, Index, Query, QueryResult, Reader, Snapshot,
};
pub use eval::{
    brute_force_masks, brute_force_value, canonical_value, evaluate_masks, evaluate_service,
    EvalOutcome, EvalStats, FacilityComponent,
};
pub use parallel::{
    current_threads, par_evaluate_candidates, session_thread_budget, set_threads,
};
pub use persist::{PersistStatus, StoreConfig, SyncPolicy};
pub use serve::{ClientStats, ServeConfig, ServeReport, Workload};
pub use maxcov::{CovOutcome, Coverage, GeneticConfig, MaskRow, ServedTable};
pub use service::{MaskSizeMismatch, MaskView, PointMask, Scenario, ServiceBounds, ServiceModel};
pub use sharding::{
    GainCombiner, Partitioner, ShardedEngine, ShardedReader, ShardedSnapshot,
};
pub use topk::{top_k_facilities, TopKOutcome};
pub use tqtree::{Placement, Storage, TqTree, TqTreeConfig};
pub use writer::{
    BatchAck, CheckpointAck, ControlPlane, PlaneInfo, ReadPlane, WriterError, WriterHandle,
    WriterHub,
};
