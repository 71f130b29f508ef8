//! The single-writer funnel: own an [`Engine`] on a dedicated thread and
//! expose a cloneable, thread-safe handle that serializes update batches
//! and checkpoints through a channel.
//!
//! The engine's concurrency model is many lock-free readers (clone a
//! [`Reader`] before spawning them) and **exactly
//! one** writer. In-process drivers like [`crate::serve`] keep the writer
//! on the calling thread; a daemon with many client connections needs the
//! opposite shape — any connection may carry an update batch, but all of
//! them must land on one thread. [`WriterHub::spawn`] is that shape:
//!
//! ```
//! use tq_core::engine::{Engine, Query};
//! use tq_core::dynamic::Update;
//! use tq_core::service::{Scenario, ServiceModel};
//! use tq_core::writer::WriterHub;
//! use tq_geometry::{Point, Rect};
//! use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};
//!
//! let p = |x: f64, y: f64| Point::new(x, y);
//! let engine = Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
//!     .users(UserSet::from_vec(vec![
//!         Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
//!     ]))
//!     .facilities(FacilitySet::from_vec(vec![
//!         Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
//!     ]))
//!     .bounds(Rect::new(p(-50.0, -50.0), p(50.0, 50.0)))
//!     .build()
//!     .unwrap();
//!
//! let reader = engine.reader();          // lock-free read plane, any thread
//! let hub = WriterHub::spawn(engine);    // engine moves to the writer thread
//! let handle = hub.handle();             // Clone one per connection thread
//!
//! let ack = handle
//!     .apply(vec![Update::Insert(Trajectory::two_point(p(1.0, 0.0), p(2.0, 0.0)))])
//!     .unwrap();
//! assert_eq!(ack.outcome.inserted, vec![1]);
//! assert_eq!(reader.snapshot().epoch(), ack.epoch);
//!
//! let mut engine = hub.stop(false).unwrap(); // engine moves back to the caller
//! assert_eq!(engine.live_users(), 2);
//! # let _ = engine.run(Query::top_k(1)).unwrap();
//! ```
//!
//! Readers are unaffected while a batch applies — they keep answering from
//! the snapshot the writer last published. Requests block the *calling*
//! thread until the writer acknowledges; batches from different handles
//! are applied in channel order, and an acknowledged batch has already
//! passed through the engine's WAL-before-publish path when the engine is
//! durable.

use crate::dynamic::{BatchOutcome, Update};
use crate::engine::{session, Answer, BackendKind, Engine, EngineError, Explain, Query, Reader};
use crate::persist::PersistStatus;
use crate::sharding::{ShardedEngine, ShardedReader};
use std::path::PathBuf;
use std::sync::mpsc::{channel, sync_channel, RecvTimeoutError, Sender, SyncSender};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registry handles for the writer funnel. The batch histogram's tail
/// *is* the publish-stall story: a batch builds its epoch on the writer
/// thread and publishes at the end, so its wall time is exactly
/// how long the funnel was busy (readers are never blocked either way).
struct WriterMetrics {
    queue_depth: &'static tq_obs::Gauge,
    queued_ns: &'static tq_obs::Histogram,
    batch_ns: &'static tq_obs::Histogram,
    batches: &'static tq_obs::Counter,
    /// Idle-tick [`ControlPlane::maintain`] failures, which have no
    /// requester to report to.
    maintain_failed: &'static tq_obs::Counter,
}

fn writer_metrics() -> &'static WriterMetrics {
    static M: OnceLock<WriterMetrics> = OnceLock::new();
    M.get_or_init(|| WriterMetrics {
        queue_depth: tq_obs::gauge("tq_writer_queue_depth", ""),
        queued_ns: tq_obs::histogram("tq_writer_queued_ns", ""),
        batch_ns: tq_obs::histogram("tq_writer_batch_ns", ""),
        batches: tq_obs::counter("tq_writer_batches_total", ""),
        maintain_failed: tq_obs::counter("tq_events_total", "kind=\"maintain_failed\""),
    })
}

/// Rolls one funneled batch into the registry and offers it to the
/// slow-query log — the write-side sibling of the read path's
/// [`Explain::queued`] accounting, so write stalls surface in the same
/// place slow queries do.
fn note_apply(updates: usize, queued: Duration, wall: Duration, epoch: Option<u64>) {
    if !tq_obs::enabled() {
        return;
    }
    let m = writer_metrics();
    m.batches.incr();
    m.queued_ns.record(queued);
    m.batch_ns.record(wall);
    let total = tq_obs::duration_ns(queued).saturating_add(tq_obs::duration_ns(wall));
    tq_obs::record_slow(total, || {
        let explain = Explain {
            snapshot_epoch: epoch.unwrap_or(0),
            queued,
            wall,
            ..Explain::default()
        };
        format!("apply ({updates} updates) {explain}")
    });
}

/// A point-in-time description of a read plane — what a daemon's
/// hello/status frames report about the engine behind them.
#[derive(Debug, Clone, Copy)]
pub struct PlaneInfo {
    /// The latest published epoch.
    pub epoch: u64,
    /// The backend kind (homogeneous across shards on a sharded plane).
    pub backend: BackendKind,
    /// Total trajectories, tombstones included.
    pub users: usize,
    /// Live (not removed) trajectories.
    pub live_users: usize,
    /// Registered candidate facilities.
    pub facilities: usize,
}

/// The lock-free read plane paired with a [`ControlPlane`]: a cloneable
/// handle that answers queries off the latest published snapshot from
/// any number of threads, never touching the writer. Implemented by
/// [`Reader`] (single engine) and [`ShardedReader`] (scatter–gather
/// front end) with identical semantics.
pub trait ReadPlane: Clone + Send + Sync + 'static {
    /// The latest published epoch.
    fn latest_epoch(&self) -> u64;
    /// Takes the latest snapshot (an O(1) pointer clone) and answers
    /// `query` on it. The snapshot-grab time is recorded into the
    /// answer's [`Explain::queued`](crate::engine::Explain::queued).
    fn query(&self, query: Query) -> Result<Answer, EngineError>;
    /// Describes the latest snapshot for status reporting.
    fn info(&self) -> PlaneInfo;
}

impl ReadPlane for Reader {
    fn latest_epoch(&self) -> u64 {
        self.epoch()
    }

    fn query(&self, query: Query) -> Result<Answer, EngineError> {
        let arrived = Instant::now();
        let snapshot = self.snapshot();
        let queued = arrived.elapsed();
        let mut answer = snapshot.run(query)?;
        answer.explain.queued = queued;
        session::note_slow_query(&answer.explain);
        Ok(answer)
    }

    fn info(&self) -> PlaneInfo {
        let snap = self.snapshot();
        PlaneInfo {
            epoch: snap.epoch(),
            backend: snap.backend().kind(),
            users: snap.users().len(),
            live_users: snap.live_users(),
            facilities: snap.facilities().len(),
        }
    }
}

impl ReadPlane for ShardedReader {
    fn latest_epoch(&self) -> u64 {
        self.epoch()
    }

    fn query(&self, query: Query) -> Result<Answer, EngineError> {
        let arrived = Instant::now();
        let snapshot = self.snapshot();
        let queued = arrived.elapsed();
        let mut answer = snapshot.run(query)?;
        answer.explain.queued = queued;
        session::note_slow_query(&answer.explain);
        Ok(answer)
    }

    fn info(&self) -> PlaneInfo {
        let snap = self.snapshot();
        PlaneInfo {
            epoch: snap.epoch(),
            backend: snap.backend_kind(),
            users: snap.users().len(),
            live_users: snap.live_users(),
            facilities: snap.facilities().len(),
        }
    }
}

/// A single-writer control plane a [`WriterHub`] can own: the engine-side
/// contract of the funnel — all-or-nothing batch application, epoch
/// publication, and explicit checkpoints. Implemented by [`Engine`] and
/// by the sharded front end ([`ShardedEngine`]), so one daemon codebase
/// serves both (`tqd --shards N` funnels batches through the exact same
/// hub).
pub trait ControlPlane: Send + 'static {
    /// The read-plane handle paired with this control plane.
    type Reader: ReadPlane;
    /// A cloneable read handle following every publication of this
    /// engine. Clone before moving the engine into a [`WriterHub`].
    fn reader(&self) -> Self::Reader;
    /// Applies one update batch, all-or-nothing ([`Engine::apply`]).
    fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchOutcome, EngineError>;
    /// The current published epoch.
    fn current_epoch(&self) -> u64;
    /// The attached store's status, `None` for in-memory.
    fn persist_status(&self) -> Option<PersistStatus>;
    /// Writes an explicit checkpoint, returning the snapshot path (the
    /// store's root directory for a sharded plane).
    fn write_checkpoint(&mut self) -> Result<PathBuf, EngineError>;
    /// Applies a batch shipped from a replication primary, publishing at
    /// the primary's stamp ([`Engine::apply_replicated`]). Control planes
    /// without replication support refuse it typed, never silently.
    fn apply_replicated(
        &mut self,
        _updates: &[Update],
        _stamp: u64,
    ) -> Result<BatchOutcome, EngineError> {
        Err(EngineError::Sharded(
            "this control plane cannot apply replicated batches".into(),
        ))
    }
    /// Idle-time housekeeping ([`Engine::maintain`]): age-based
    /// checkpointing and background-worker harvesting. Defaults to a
    /// no-op.
    fn maintain(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
}

impl ControlPlane for Engine {
    type Reader = Reader;

    fn reader(&self) -> Reader {
        Engine::reader(self)
    }

    fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchOutcome, EngineError> {
        self.apply(updates)
    }

    fn current_epoch(&self) -> u64 {
        self.epoch()
    }

    fn persist_status(&self) -> Option<PersistStatus> {
        self.persistence()
    }

    fn write_checkpoint(&mut self) -> Result<PathBuf, EngineError> {
        self.checkpoint()
    }

    fn apply_replicated(
        &mut self,
        updates: &[Update],
        stamp: u64,
    ) -> Result<BatchOutcome, EngineError> {
        Engine::apply_replicated(self, updates, stamp)
    }

    fn maintain(&mut self) -> Result<(), EngineError> {
        Engine::maintain(self)
    }
}

impl ControlPlane for ShardedEngine {
    type Reader = ShardedReader;

    fn reader(&self) -> ShardedReader {
        ShardedEngine::reader(self)
    }

    fn apply_batch(&mut self, updates: &[Update]) -> Result<BatchOutcome, EngineError> {
        self.apply(updates)
    }

    fn current_epoch(&self) -> u64 {
        self.epoch()
    }

    fn persist_status(&self) -> Option<PersistStatus> {
        self.persistence()
    }

    fn write_checkpoint(&mut self) -> Result<PathBuf, EngineError> {
        self.checkpoint()
    }
}

/// Acknowledgement of one applied batch: what it did and where it left the
/// engine.
#[derive(Debug, Clone)]
pub struct BatchAck {
    /// The epoch the batch published — readers observing this epoch (or a
    /// later one) see the batch.
    pub epoch: u64,
    /// Per-batch work summary from [`Engine::apply`].
    pub outcome: BatchOutcome,
    /// WAL records pending since the last checkpoint (`0` for an in-memory
    /// engine, and right after an auto-checkpoint).
    pub wal_batches: u64,
}

/// Acknowledgement of an explicit checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointAck {
    /// The epoch the snapshot captured.
    pub epoch: u64,
    /// The snapshot file written.
    pub path: PathBuf,
}

/// Why a [`WriterHandle`] request failed.
#[derive(Debug)]
pub enum WriterError {
    /// The engine rejected the request (the engine itself is fine; for
    /// [`EngineError::CheckpointFailed`] the batch *is* applied and
    /// durable — see [`Engine::apply`]).
    Engine(EngineError),
    /// The writer thread has stopped; no writer holds the engine anymore.
    Stopped,
}

impl std::fmt::Display for WriterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriterError::Engine(e) => write!(f, "{e}"),
            WriterError::Stopped => write!(f, "the writer thread has stopped"),
        }
    }
}

impl std::error::Error for WriterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WriterError::Engine(e) => Some(e),
            WriterError::Stopped => None,
        }
    }
}

enum Msg {
    // Apply-path messages carry their send stamp so the writer thread
    // can account the channel wait as `Explain::queued` — the write-side
    // sibling of the read plane's snapshot-grab delay.
    Apply(Vec<Update>, Instant, SyncSender<Result<BatchAck, EngineError>>),
    Replicate(Vec<Update>, u64, Instant, SyncSender<Result<BatchAck, EngineError>>),
    Checkpoint(SyncSender<Result<CheckpointAck, EngineError>>),
    Promote(SyncSender<Result<u64, EngineError>>),
    Stop { final_checkpoint: bool },
}

/// A post-acknowledgement observer of every batch the writer publishes:
/// called on the writer thread with the published epoch and the batch,
/// *after* the batch is applied, WAL-logged and acknowledged. A
/// replication primary installs one to feed its followers; the tap must
/// never block (the [`tq_repl` hub]'s queues are bounded `try_send` for
/// exactly that reason).
///
/// [`tq_repl` hub]: ../../tq_repl/index.html
pub type BatchTap = Box<dyn Fn(u64, &[Update]) + Send>;

/// Tunables for [`WriterHub::spawn_with`]. The [`Default`] options are
/// exactly [`WriterHub::spawn`]: no tap, writable, half-second tick.
#[derive(Default)]
pub struct WriterOptions {
    /// Observer of every published batch — see [`BatchTap`]. Fires for
    /// direct *and* replicated applies, so a promoted (or chained)
    /// follower feeds its own followers.
    pub tap: Option<BatchTap>,
    /// `Some(primary_addr)` starts the hub read-only: direct
    /// [`WriterHandle::apply`] calls are refused with
    /// [`EngineError::ReadOnly`] naming that address, while replicated
    /// applies (and [`WriterHandle::promote`]) still work.
    pub read_only: Option<String>,
    /// Idle interval between [`ControlPlane::maintain`] calls when no
    /// requests arrive. Defaults to 500 ms.
    pub tick: Option<Duration>,
}

/// A cloneable, sendable handle that funnels requests to the writer
/// thread. Each call blocks until the writer replies.
#[derive(Clone)]
pub struct WriterHandle {
    tx: Sender<Msg>,
}

impl WriterHandle {
    fn roundtrip<T>(
        &self,
        make: impl FnOnce(SyncSender<Result<T, EngineError>>) -> Msg,
    ) -> Result<T, WriterError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.tx.send(make(reply_tx)).map_err(|_| WriterError::Stopped)?;
        reply_rx
            .recv()
            .map_err(|_| WriterError::Stopped)?
            .map_err(WriterError::Engine)
    }

    /// Applies one update batch through the single writer. All-or-nothing,
    /// exactly as [`Engine::apply`]: a rejected batch leaves the engine (and
    /// its WAL) untouched.
    pub fn apply(&self, batch: Vec<Update>) -> Result<BatchAck, WriterError> {
        let depth = writer_metrics().queue_depth;
        depth.inc();
        let out = self.roundtrip(|reply| Msg::Apply(batch, Instant::now(), reply));
        depth.dec();
        out
    }

    /// Takes an explicit checkpoint ([`Engine::checkpoint`]). Errors with
    /// [`EngineError::NotDurable`] through [`WriterError::Engine`] when the
    /// engine has no attached store.
    pub fn checkpoint(&self) -> Result<CheckpointAck, WriterError> {
        self.roundtrip(Msg::Checkpoint)
    }

    /// Applies a batch shipped from a replication primary at the
    /// primary's epoch stamp ([`Engine::apply_replicated`]). Works on a
    /// read-only hub — this *is* the follower's write path.
    pub fn apply_replicated(
        &self,
        batch: Vec<Update>,
        stamp: u64,
    ) -> Result<BatchAck, WriterError> {
        let depth = writer_metrics().queue_depth;
        depth.inc();
        let out = self.roundtrip(|reply| Msg::Replicate(batch, stamp, Instant::now(), reply));
        depth.dec();
        out
    }

    /// Lifts a read-only hub into a writable one (follower promotion) and
    /// returns the epoch it promotes at. Idempotent; a no-op on a hub
    /// that is already writable.
    pub fn promote(&self) -> Result<u64, WriterError> {
        self.roundtrip(Msg::Promote)
    }
}

/// Owns the writer thread. Keep the hub where the engine's lifecycle is
/// managed; pass [`WriterHandle`] clones to everything else.
///
/// Generic over the [`ControlPlane`] it owns — a plain [`Engine`] (the
/// default) or a [`ShardedEngine`] front end; the handles are identical
/// either way.
pub struct WriterHub<C: ControlPlane = Engine> {
    tx: Sender<Msg>,
    thread: JoinHandle<Result<C, EngineError>>,
}

impl<C: ControlPlane> WriterHub<C> {
    /// Moves the control plane to a dedicated writer thread and starts
    /// serving requests. Clone a [`Reader`] (and
    /// warm, if wanted) *before* spawning — the hub gives the engine back
    /// only on [`WriterHub::stop`].
    pub fn spawn(engine: C) -> WriterHub<C> {
        WriterHub::spawn_with(engine, WriterOptions::default())
    }

    /// [`WriterHub::spawn`] with explicit [`WriterOptions`]: a post-ack
    /// batch tap (the replication feed point), an initial read-only state
    /// (a follower hub), and the idle [`ControlPlane::maintain`] tick.
    pub fn spawn_with(engine: C, options: WriterOptions) -> WriterHub<C> {
        let (tx, rx) = channel::<Msg>();
        // Register the writer's instruments up front, so `METRICS` lists
        // the failure counters at zero before anything fails.
        writer_metrics();
        let tick = options.tick.unwrap_or(Duration::from_millis(500));
        let tap = options.tap;
        let mut read_only = options.read_only;
        let thread = std::thread::spawn(move || {
            let mut engine = engine;
            loop {
                let msg = match rx.recv_timeout(tick) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => {
                        // Idle housekeeping. An error here (a failed
                        // age-based checkpoint) has no requester to carry
                        // it, so it is counted in the metrics; the WAL
                        // still holds every acked batch, and the verdict
                        // resurfaces on the next apply's harvest.
                        if engine.maintain().is_err() {
                            writer_metrics().maintain_failed.incr();
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                };
                match msg {
                    Msg::Apply(batch, sent, reply) => {
                        if let Some(primary) = &read_only {
                            let _ = reply.send(Err(EngineError::ReadOnly {
                                primary: primary.clone(),
                            }));
                            continue;
                        }
                        let queued = sent.elapsed();
                        let applying = Instant::now();
                        let ack = engine.apply_batch(&batch).map(|outcome| BatchAck {
                            epoch: engine.current_epoch(),
                            outcome,
                            wal_batches: engine
                                .persist_status()
                                .map_or(0, |s| s.wal_batches as u64),
                        });
                        let ship = ack.as_ref().map(|a| a.epoch).ok();
                        note_apply(batch.len(), queued, applying.elapsed(), ship);
                        // A dropped requester is not a writer problem.
                        let _ = reply.send(ack);
                        // Ship-after-ack: the batch is applied, WAL-logged
                        // and acknowledged before any follower sees it.
                        if let (Some(tap), Some(epoch)) = (&tap, ship) {
                            tap(epoch, &batch);
                        }
                    }
                    Msg::Replicate(batch, stamp, sent, reply) => {
                        let before = engine.current_epoch();
                        let queued = sent.elapsed();
                        let applying = Instant::now();
                        let ack =
                            engine.apply_replicated(&batch, stamp).map(|outcome| BatchAck {
                                epoch: engine.current_epoch(),
                                outcome,
                                wal_batches: engine
                                    .persist_status()
                                    .map_or(0, |s| s.wal_batches as u64),
                            });
                        // A stamp-skipped (already-reflected) batch leaves
                        // the epoch in place and must not re-ship.
                        let ship = ack.as_ref().map(|a| a.epoch).ok().filter(|&e| e > before);
                        note_apply(batch.len(), queued, applying.elapsed(), ship);
                        let _ = reply.send(ack);
                        // Replicated applies feed the tap too, so a chained
                        // or later-promoted follower can serve followers of
                        // its own.
                        if let (Some(tap), Some(epoch)) = (&tap, ship) {
                            tap(epoch, &batch);
                        }
                    }
                    Msg::Checkpoint(reply) => {
                        let ack = engine.write_checkpoint().map(|path| CheckpointAck {
                            epoch: engine.current_epoch(),
                            path,
                        });
                        let _ = reply.send(ack);
                    }
                    Msg::Promote(reply) => {
                        read_only = None;
                        let _ = reply.send(Ok(engine.current_epoch()));
                    }
                    Msg::Stop { final_checkpoint } => {
                        if final_checkpoint && engine.persist_status().is_some() {
                            engine.write_checkpoint()?;
                        }
                        break;
                    }
                }
            }
            // All senders gone without a Stop counts as an abort: no final
            // checkpoint, the WAL already holds every acknowledged batch.
            Ok(engine)
        });
        WriterHub { tx, thread }
    }

    /// A new funnel handle for another thread.
    pub fn handle(&self) -> WriterHandle {
        WriterHandle { tx: self.tx.clone() }
    }

    /// Stops the writer and returns the engine. With `final_checkpoint`
    /// set, a durable engine writes one last snapshot first (a checkpoint
    /// failure surfaces here — the WAL still holds every acknowledged
    /// batch, so nothing is lost). Requests already queued ahead of the
    /// stop are served first; handles that outlive the hub get
    /// [`WriterError::Stopped`].
    pub fn stop(self, final_checkpoint: bool) -> Result<C, EngineError> {
        let _ = self.tx.send(Msg::Stop { final_checkpoint });
        self.thread
            .join()
            .map_err(|_| EngineError::Persist("the writer thread panicked".into()))?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Query;
    use crate::service::{Scenario, ServiceModel};
    use tq_geometry::{Point, Rect};
    use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};

    fn small_engine() -> Engine {
        let p = |x: f64, y: f64| Point::new(x, y);
        Engine::builder(ServiceModel::new(Scenario::Transit, 2.0))
            .users(UserSet::from_vec(vec![
                Trajectory::two_point(p(0.0, 0.0), p(10.0, 0.0)),
                Trajectory::two_point(p(0.0, 5.0), p(10.0, 5.0)),
            ]))
            .facilities(FacilitySet::from_vec(vec![
                Facility::new(vec![p(0.0, 1.0), p(10.0, 1.0)]),
                Facility::new(vec![p(0.0, 4.0), p(10.0, 4.0)]),
            ]))
            .bounds(Rect::new(p(-100.0, -100.0), p(100.0, 100.0)))
            .build()
            .unwrap()
    }

    #[test]
    fn concurrent_handles_serialize_batches() {
        let engine = small_engine();
        let reader = engine.reader();
        let e0 = engine.epoch();
        let hub = WriterHub::spawn(engine);
        let p = |x: f64, y: f64| Point::new(x, y);

        let threads: Vec<_> = (0..4)
            .map(|i| {
                let handle = hub.handle();
                std::thread::spawn(move || {
                    let y = 10.0 + i as f64;
                    handle
                        .apply(vec![Update::Insert(Trajectory::two_point(
                            p(0.0, y),
                            p(10.0, y),
                        ))])
                        .unwrap()
                })
            })
            .collect();
        let mut epochs: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap().epoch).collect();
        epochs.sort_unstable();
        // One publication per batch, strictly ordered: the funnel
        // serialized four concurrent writers.
        assert_eq!(epochs, (e0 + 1..=e0 + 4).collect::<Vec<_>>());
        assert_eq!(reader.snapshot().epoch(), e0 + 4);
        assert_eq!(reader.snapshot().live_users(), 6);

        let engine = hub.stop(false).unwrap();
        assert_eq!(engine.live_users(), 6);
    }

    #[test]
    fn rejected_batches_leave_the_engine_untouched() {
        let engine = small_engine();
        let e0 = engine.epoch();
        let hub = WriterHub::spawn(engine);
        let handle = hub.handle();
        let err = handle.apply(vec![Update::Remove(999)]).unwrap_err();
        assert!(matches!(err, WriterError::Engine(EngineError::Update(_))));
        // Checkpoint on an in-memory engine is a typed refusal, not a panic.
        assert!(matches!(
            handle.checkpoint().unwrap_err(),
            WriterError::Engine(EngineError::NotDurable)
        ));
        let mut engine = hub.stop(false).unwrap();
        assert_eq!(engine.epoch(), e0);
        assert_eq!(engine.live_users(), 2);
        assert!(handle.apply(vec![]).is_err(), "handle outlived the hub");
        let _ = engine.run(Query::top_k(1)).unwrap();
    }
}
