//! The read plane: immutable, epoch-numbered [`Snapshot`]s and the
//! [`Reader`] handle that always yields the latest published one.
//!
//! A snapshot owns (via `Arc`) everything a query needs — the user
//! trajectories, the candidate facilities, the service model, the backend
//! index, and the frozen [`ServedTable`] memo — and never changes after
//! publication. [`Snapshot::run`] therefore takes `&self` and acquires
//! **zero locks**: any number of threads can answer queries over the same
//! snapshot concurrently, each bit-identical to a serial execution over
//! that snapshot's data. Writers never touch a published snapshot; the
//! control plane ([`Engine`](super::Engine)) builds a *new* snapshot per
//! update batch (copying only the chunks the batch touches, sharing every
//! other chunk by `Arc`) and publishes it atomically. Old epochs stay valid for the
//! readers still holding them and are reclaimed by the `Arc` refcount when
//! the last reader drops — there is no epoch garbage collector and no
//! reader quiescence protocol.

use super::session::{self, Answer, Query};
use super::{Backend, EngineError};
use crate::fasthash::FxHashMap;
use crate::maxcov::ServedTable;
use crate::service::ServiceModel;
use crate::tqtree::TqTree;
use std::sync::{Arc, RwLock};
use tq_trajectory::{FacilityId, FacilitySet, UserSet};

/// One immutable, epoch-numbered version of the engine's entire queryable
/// state. Obtained from [`Engine::snapshot`](super::Engine::snapshot) or a
/// [`Reader`]; shared freely across threads (`Arc<Snapshot>` is the unit
/// of sharing).
///
/// Queries through [`Snapshot::run`] are lock-free and read-only: a
/// max-cov query that misses the frozen memo builds its table locally and
/// discards it afterwards (only the control plane memoizes — see
/// [`Engine::run`](super::Engine::run)).
#[derive(Debug)]
pub struct Snapshot {
    /// Publication sequence number, strictly increasing per engine.
    pub(crate) epoch: u64,
    /// The indexed trajectories (including removed tombstones).
    pub(crate) users: Arc<UserSet>,
    /// The candidate facilities (immutable for the engine's lifetime).
    pub(crate) facilities: Arc<FacilitySet>,
    /// The service semantics.
    pub(crate) model: ServiceModel,
    /// The backend index over exactly `users`.
    pub(crate) backend: Arc<Backend>,
    /// Live (inserted and not yet removed) trajectory count.
    pub(crate) live_count: usize,
    /// The frozen [`ServedTable`] memo, keyed by sorted candidate id list.
    /// Individual tables are `Arc`-shared across epochs: an update batch
    /// clones and patches only the tables whose facilities it touches.
    pub(crate) tables: FxHashMap<Vec<FacilityId>, Arc<ServedTable>>,
}

impl Snapshot {
    /// Answers a typed [`Query`] against this snapshot's frozen state.
    ///
    /// `&self`, no locks, no interior mutability: safe to call from any
    /// number of threads concurrently, and bit-identical to running the
    /// same query on any other thread (or on the engine itself at this
    /// epoch). Validation errors are returned before any evaluation work
    /// happens, exactly as in [`Engine::run`](super::Engine::run).
    pub fn run(&self, query: Query) -> Result<Answer, EngineError> {
        let (answer, _discarded_table) = session::execute(self, &query)?;
        Ok(answer)
    }

    /// This snapshot's publication sequence number. Epochs are strictly
    /// monotone per engine: a larger epoch was published later. Answers
    /// carry it in [`Explain::snapshot_epoch`](super::Explain::snapshot_epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The trajectories this snapshot indexes (including removed
    /// tombstones — see [`Snapshot::live_users`]).
    pub fn users(&self) -> &UserSet {
        &self.users
    }

    /// The registered candidate facilities.
    pub fn facilities(&self) -> &FacilitySet {
        &self.facilities
    }

    /// The registered service model.
    pub fn model(&self) -> &ServiceModel {
        &self.model
    }

    /// The backend index.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The TQ-tree, when that is the backend.
    pub fn tree(&self) -> Option<&TqTree> {
        match &*self.backend {
            Backend::TqTree(t) => Some(t),
            Backend::Baseline(_) => None,
        }
    }

    /// Number of live (inserted and not yet removed) trajectories at this
    /// epoch.
    pub fn live_users(&self) -> usize {
        self.live_count
    }

    /// The frozen memoized table for a candidate set, if this snapshot
    /// carries one.
    pub fn cached_table(&self, candidates: &[FacilityId]) -> Option<&ServedTable> {
        self.tables.get(candidates).map(|t| &**t)
    }

    /// The frozen full-facility table (see
    /// [`Engine::warm`](super::Engine::warm)).
    pub fn full_table(&self) -> Option<&ServedTable> {
        let all: Vec<FacilityId> = self.facilities.iter().map(|(id, _)| id).collect();
        self.cached_table(&all)
    }
}

/// The publication slot: the one place a writer and its readers share.
///
/// Readers take the read half only long enough to clone the `Arc` (an
/// O(1) pointer copy — never held across query execution); the writer
/// takes the write half only for the O(1) pointer swap of
/// [`Engine::publish`](super::Engine). All real work on both sides happens
/// outside the lock, against immutable snapshots.
#[derive(Debug)]
pub(crate) struct SnapshotSlot {
    current: RwLock<Arc<Snapshot>>,
}

impl SnapshotSlot {
    pub(crate) fn new(snapshot: Arc<Snapshot>) -> SnapshotSlot {
        SnapshotSlot {
            current: RwLock::new(snapshot),
        }
    }

    pub(crate) fn load(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    pub(crate) fn store(&self, snapshot: Arc<Snapshot>) {
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snapshot;
    }
}

/// A cloneable, `Send + Sync` handle to an engine's latest published
/// [`Snapshot`] — the address a serving thread holds.
///
/// Obtained from [`Engine::reader`](super::Engine::reader); cheap to clone
/// (one `Arc`). [`Reader::snapshot`] returns the snapshot current at call
/// time; the reader then queries that immutable snapshot for as long as it
/// likes (typically one request) while the writer publishes newer epochs
/// behind it. Successive `snapshot()` calls observe strictly monotone
/// epochs.
#[derive(Debug, Clone)]
pub struct Reader {
    pub(crate) slot: Arc<SnapshotSlot>,
}

impl Reader {
    /// The latest published snapshot. O(1): a pointer clone under a
    /// briefly-held read lock (the lock is never held during query
    /// execution, and the writer holds its write half only for the O(1)
    /// publication swap).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.slot.load()
    }

    /// The latest published epoch (shorthand for
    /// `self.snapshot().epoch()`).
    pub fn epoch(&self) -> u64 {
        self.slot.load().epoch
    }
}
