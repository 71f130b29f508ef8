//! One run of a workload: set-up, then the tqd start path (open, warm,
//! serve), the workload's traffic over loopback `tq-net`, its writes, a
//! crash, and recovery — with every answer checked against the engine in
//! process.

use crate::data::{self, candidates, sampled, Plan, WindowStream, Workload, K};
use crate::report::{Metric, Tally};
use crate::stats::{self, median, Timing};
use crate::trace::{self, Span, Tracer};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};
use tq_core::engine::{Answer, CacheStatus, Engine, Query, Reader, Snapshot};
use tq_core::maxcov::{greedy, ServedTable};
use tq_core::{top_k_facilities, EvalStats};
use tq_net::proto::{Request, Response};
use tq_net::{Client, Server, ServerConfig};
use tq_trajectory::{FacilityId, FacilitySet};

/// Errors that end a run without a result.
pub type Error = Box<dyn std::error::Error>;

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Phase times of one set-up repetition, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupRep {
    /// Generating trips and routes (`tq-datagen`).
    pub generate: f64,
    /// Building the TQ-tree and writing the store's first snapshot.
    pub build: f64,
    /// Evaluating the full served table (`Engine::warm`).
    pub warm: f64,
    /// Checkpointing the warmed engine.
    pub checkpoint: f64,
}

impl SetupRep {
    /// The whole repetition.
    pub fn total(&self) -> f64 {
        self.generate + self.build + self.warm + self.checkpoint
    }

    /// The line a set-up child prints for this repetition.
    pub fn to_line(&self) -> String {
        format!(
            "setup-rep generate={} build={} warm={} checkpoint={}",
            self.generate, self.build, self.warm, self.checkpoint
        )
    }

    /// Parses [`SetupRep::to_line`] output.
    pub fn parse_line(line: &str) -> Option<SetupRep> {
        let rest = line.strip_prefix("setup-rep ")?;
        let mut rep = SetupRep::default();
        for field in rest.split_whitespace() {
            let (key, value) = field.split_once('=')?;
            let value: f64 = value.parse().ok()?;
            match key {
                "generate" => rep.generate = value,
                "build" => rep.build = value,
                "warm" => rep.warm = value,
                "checkpoint" => rep.checkpoint = value,
                _ => return None,
            }
        }
        Some(rep)
    }
}

/// Builds the store of `plan` in `dir` the way `tq save` does (generate,
/// build with a store attached, warm, checkpoint), `plan.setup_reps`
/// times from scratch; the last repetition's store stays in `dir`.
pub fn setup(plan: &Plan, dir: &Path) -> Result<Vec<SetupRep>, Error> {
    let mut reps = Vec::with_capacity(plan.setup_reps);
    for rep in 0..plan.setup_reps.max(1) {
        let last = rep + 1 == plan.setup_reps.max(1);
        let target = if last {
            dir.to_path_buf()
        } else {
            dir.with_extension(format!("rep{rep}"))
        };
        let _ = std::fs::remove_dir_all(&target);
        let t = Instant::now();
        let data = data::generate(plan);
        let generate = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut engine = data::builder(plan, data)
            .persist_with(&target, plan.store_config())
            .build()?;
        let build = t.elapsed().as_secs_f64();
        let t = Instant::now();
        engine.warm();
        let warm = t.elapsed().as_secs_f64();
        let t = Instant::now();
        engine.checkpoint()?;
        let checkpoint = t.elapsed().as_secs_f64();
        drop(engine);
        if !last {
            std::fs::remove_dir_all(&target)?;
        }
        reps.push(SetupRep {
            generate,
            build,
            warm,
            checkpoint,
        });
    }
    Ok(reps)
}

// ---------------------------------------------------------------------------
// Queries and answers
// ---------------------------------------------------------------------------

/// The two read query families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// kMaxRRST top-8.
    TopK,
    /// Greedy MaxkCovRST-8.
    MaxCov,
}

/// Read `index` of a client alternates top-k and max-cov.
fn kind_of(local: u64) -> Kind {
    if local.is_multiple_of(2) {
        Kind::TopK
    } else {
        Kind::MaxCov
    }
}

/// The query of read `index`: over all routes, or over its seeded subset.
fn query(plan: &Plan, kind: Kind, index: u64) -> Query {
    let q = match kind {
        Kind::TopK => Query::top_k(K),
        Kind::MaxCov => Query::max_cov(K),
    };
    match candidates(plan, index) {
        Some(ids) => q.candidates(&ids),
        None => q,
    }
}

/// An answer reduced to what must be bit-identical: ids and value bits.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Key {
    /// Ranked `(facility, value bits)`.
    TopK(Vec<(FacilityId, u64)>),
    /// Chosen facilities, combined value bits, users served.
    MaxCov(Vec<FacilityId>, u64, usize),
}

/// The comparable part of `answer`.
fn key(answer: &Answer) -> Key {
    match &answer.result {
        tq_core::QueryResult::TopK(r) => {
            Key::TopK(r.iter().map(|(id, v)| (*id, v.to_bits())).collect())
        }
        tq_core::QueryResult::MaxCov(c) => {
            Key::MaxCov(c.chosen.clone(), c.value.to_bits(), c.users_served)
        }
    }
}

/// One networked read.
#[derive(Debug, Clone)]
struct Read {
    kind: Kind,
    index: u64,
    /// Send time, seconds since the run's origin.
    at_s: f64,
    /// From send to response.
    latency_us: f64,
    wall_us: f64,
    queued_us: f64,
    hit: bool,
    threads: usize,
    bytes: usize,
}

/// A read whose answer is checked after the phase.
#[derive(Debug, Clone)]
struct Pending {
    kind: Kind,
    index: u64,
    epoch: u64,
    key: Key,
}

/// One acknowledged durable batch.
#[derive(Debug, Clone, Copy)]
struct Applied {
    /// From due time or send (see [`writes`]) to ack.
    latency_us: f64,
    /// From send to ack.
    rtt_us: f64,
    epoch: u64,
    untouched: usize,
    patched: usize,
    reevaluated: usize,
}

/// How a read thread checks its answers.
#[derive(Clone, Copy)]
enum Check<'a> {
    /// Every answer must equal the in-process answer of its kind at this
    /// epoch (no writes run during the reads).
    Fixed {
        epoch: u64,
        topk: &'a Key,
        maxcov: &'a Key,
    },
    /// Sampled answers are kept and re-run in process after the phase.
    Later,
}

/// Frame bytes of one query round trip (request + response, with
/// headers and CRC trailers).
fn frame_bytes(q: &Query, answer: &Answer) -> usize {
    let overhead = tq_net::frame::HEADER_LEN + tq_net::frame::TRAILER_LEN;
    let (_, req) = Request::Query(q.clone()).to_frame();
    let (_, resp) = Response::Answer(Box::new(answer.clone())).to_frame();
    req.len() + resp.len() + 2 * overhead
}

/// Untraced/traced block pairs of the traced run.
const TRACE_BLOCKS: usize = 4;

/// Reads per client whose frame sizes the traced run measures.
const BYTES_SAMPLE: u64 = 64;

/// What one traffic thread measured.
#[derive(Default)]
struct ThreadOut {
    reads: Vec<Read>,
    pending: Vec<Pending>,
    applied: Vec<Applied>,
    spans: Vec<Span>,
    tally: Tally,
}

/// Reads through one client in a closed loop until `deadline`. Client
/// `slot` of `clients` sends reads `slot, slot + clients, …`.
fn reads(
    ctx: &Ctx,
    slot: u64,
    clients: u64,
    deadline: Instant,
    mut tracer: Tracer,
    check: Check,
) -> ThreadOut {
    let plan = ctx.plan;
    let mut out = ThreadOut::default();
    let mut client = match Client::connect(&ctx.addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.attempted += 1;
            out.tally.fail(format!("reader connect: {e}"));
            return out;
        }
    };
    let mut last_epoch = 0u64;
    for local in 0u64.. {
        if Instant::now() >= deadline {
            break;
        }
        let kind = kind_of(local);
        let index = slot + local * clients;
        let q = query(plan, kind, index);
        out.tally.attempted += 1;
        let send = Instant::now();
        let result = client.query(q.clone());
        let recv = Instant::now();
        let answer = match result {
            Ok(a) => a,
            Err(e) => {
                out.tally.fail(format!("read {index}: {e}"));
                continue;
            }
        };
        let ex = &answer.explain;
        let req = (slot << 32) | local;
        if tracer.on() {
            let net = tracer.span("net.query", 0, req, send, recv);
            let wall = ex.wall.as_nanos() as u64;
            tracer.derived("engine.exec", net, req, recv, 0, wall);
            tracer.derived(
                "engine.queued",
                net,
                req,
                recv,
                wall,
                ex.queued.as_nanos() as u64,
            );
        }
        if ex.snapshot_epoch < last_epoch {
            out.tally.mismatch(format!(
                "read {index}: epoch went back from {last_epoch} to {}",
                ex.snapshot_epoch
            ));
        }
        last_epoch = ex.snapshot_epoch;
        let got = key(&answer);
        match check {
            Check::Fixed {
                epoch,
                topk,
                maxcov,
            } => {
                let want = if kind == Kind::TopK { topk } else { maxcov };
                out.tally.checked += 1;
                if ex.snapshot_epoch != epoch || &got != want {
                    out.tally.mismatch(format!(
                        "read {index} (epoch {}) differs from in-process answer",
                        ex.snapshot_epoch
                    ));
                }
            }
            Check::Later => {
                if sampled(plan, index) {
                    out.pending.push(Pending {
                        kind,
                        index,
                        epoch: ex.snapshot_epoch,
                        key: got,
                    });
                }
            }
        }
        out.reads.push(Read {
            kind,
            index,
            at_s: secs(ctx.origin, send),
            latency_us: (recv - send).as_secs_f64() * 1e6,
            wall_us: ex.wall.as_secs_f64() * 1e6,
            queued_us: ex.queued.as_secs_f64() * 1e6,
            hit: ex.cache == CacheStatus::Hit,
            threads: ex.threads,
            // Frame sizes repeat per query shape; encoding a few is enough.
            bytes: if tracer.on() && local < BYTES_SAMPLE {
                frame_bytes(&q, &answer)
            } else {
                0
            },
        });
    }
    out.spans = tracer.into_spans();
    out
}

/// The client that sends durable batches, the stream they come from, and
/// the last epoch the server acked.
struct Writer {
    client: Client,
    stream: WindowStream,
    last_epoch: u64,
}

/// Sends `count` durable batches through `w`: in a closed loop
/// (`rate == 0`), or one every `1 / rate` seconds, as one upstream feed
/// would. A batch is timed from its due time when the previous one still
/// held the writer then, else from when it was sent. Every ack must
/// advance the epoch by exactly one.
fn writes(w: &mut Writer, count: usize, rate: f64, tracer: &mut Tracer, out: &mut ThreadOut) {
    let start = Instant::now();
    let mut prev_recv = start;
    for n in 0..count {
        let batch = w.stream.next_batch();
        // A closed loop is due as soon as the previous batch is acked.
        let due = if rate > 0.0 {
            start + Duration::from_secs_f64(n as f64 / rate)
        } else {
            Instant::now()
        };
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.tally.attempted += 1;
        let send = Instant::now();
        let result = w.client.apply(batch);
        let recv = Instant::now();
        let begin = if prev_recv > due { due } else { send };
        prev_recv = recv;
        let ack = match result {
            Ok(ack) => ack,
            Err(e) => {
                // A refused batch leaves the stream ahead of the engine;
                // every later batch would be judged against the wrong
                // state, so the loop stops here.
                out.tally
                    .fail(format!("apply after epoch {}: {e}", w.last_epoch));
                return;
            }
        };
        let req = (1 << 31) | n as u64;
        if tracer.on() {
            tracer.span("net.apply", 0, req, send, recv);
        }
        if ack.epoch != w.last_epoch + 1 {
            out.tally.mismatch(format!(
                "apply acked epoch {} after {}",
                ack.epoch, w.last_epoch
            ));
        }
        w.last_epoch = ack.epoch;
        let o = ack.outcome.unwrap_or_default();
        out.applied.push(Applied {
            latency_us: (recv - begin).as_secs_f64() * 1e6,
            rtt_us: (recv - send).as_secs_f64() * 1e6,
            epoch: ack.epoch,
            untouched: o.untouched,
            patched: o.patched,
            reevaluated: o.reevaluated,
        });
    }
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// What one traffic phase measured.
#[derive(Default)]
struct Phase {
    /// Whether the phase was traced.
    traced: bool,
    secs: f64,
    reads: Vec<Read>,
    pending: Vec<Pending>,
    spans: Vec<Span>,
}

impl Phase {
    fn absorb(&mut self, out: ThreadOut, tally: &mut Tally) {
        self.reads.extend(out.reads);
        self.pending.extend(out.pending);
        self.spans.extend(out.spans);
        tally.merge(out.tally);
    }
}

/// The context every phase shares.
struct Ctx<'a> {
    plan: &'a Plan,
    addr: String,
    origin: Instant,
    reader: Reader,
}

/// Closed-loop reads from `plan.clients` clients for `secs`.
fn read_phase(
    ctx: &Ctx,
    secs: f64,
    traced: bool,
    check: Check,
    base: u64,
    tally: &mut Tally,
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    let deadline = start + Duration::from_secs_f64(secs);
    let clients = ctx.plan.clients as u64;
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|slot| {
                let tracer = Tracer::new(traced, ctx.origin, base + slot);
                s.spawn(move || reads(ctx, base * 1000 + slot, clients, deadline, tracer, check))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read thread panicked"))
            .collect()
    });
    phase.secs = start.elapsed().as_secs_f64();
    for out in outs {
        phase.absorb(out, tally);
    }
    phase
}

// ---------------------------------------------------------------------------
// Serving run
// ---------------------------------------------------------------------------

/// Everything a run reports.
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Whether every answer, epoch and recovery check held.
    pub correct: bool,
    /// Run metadata as `(key, JSON value)`.
    pub meta: Vec<(String, String)>,
    /// Reconciliation checks of the traced run: what, and whether it held.
    pub reconciliation: Vec<(String, bool)>,
}

fn secs(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64()
}

fn dir_mb(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    bytes as f64 / (1u64 << 20) as f64
}

/// Copies the files of the store `from` into a new directory `to`.
fn copy_files(from: &Path, to: &Path) -> Result<(), Error> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Opens the store the way tqd does — `Engine::open_with`, then `warm` —
/// and returns the engine, the epoch it recovered, and the seconds of the
/// whole open and of `open_with` alone.
fn open(
    plan: &Plan,
    dir: &Path,
    tracer: &mut Tracer,
    root: &'static str,
) -> Result<(Engine, u64, f64, f64), Error> {
    let start = Instant::now();
    let mut engine = Engine::open_with(dir, plan.store_config())?;
    let opened = Instant::now();
    let epoch = engine.epoch();
    engine.warm();
    let end = Instant::now();
    let id = tracer.span(root, 0, 0, start, end);
    tracer.span("engine.open_with", id, 0, start, opened);
    tracer.span("engine.warm", id, 0, opened, end);
    Ok((engine, epoch, secs(start, end), secs(start, opened)))
}

/// Re-runs a kept read in process on `snap` and compares the answers.
fn verify(snap: &Snapshot, plan: &Plan, p: &Pending, tally: &mut Tally) {
    tally.attempted += 1;
    tally.checked += 1;
    if snap.epoch() != p.epoch {
        tally.mismatch(format!(
            "read {} answered at epoch {}, checked at {}",
            p.index,
            p.epoch,
            snap.epoch()
        ));
        return;
    }
    // Answers are the same at every thread count; one thread is the
    // cheaper check for memoized full-set answers.
    let q = query(plan, p.kind, p.index);
    let q = if plan.subset.is_none() {
        q.threads(1)
    } else {
        q
    };
    match snap.run(q) {
        Ok(a) if key(&a) == p.key => {}
        Ok(_) => tally.mismatch(format!(
            "read {} differs from in-process answer at epoch {}",
            p.index, p.epoch
        )),
        Err(e) => tally.fail(format!("in-process read {}: {e}", p.index)),
    }
}

/// Runs the serving half of `plan` against the store [`setup`] left in
/// `dir`, writing the traced run's spans to `trace_out`.
pub fn serve(
    plan: &Plan,
    dir: &Path,
    setup: &[SetupRep],
    trace_out: Option<&Path>,
) -> Result<Outcome, Error> {
    let origin = Instant::now();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(plan.trace, origin, 1);

    // -- open: the tqd start path -------------------------------------------
    let store_open_s = if plan.trace {
        let (store, s) = tracer.time("store.open", 0, || {
            tq_store::Store::open(dir, plan.store_config())
        });
        drop(store?);
        s
    } else {
        f64::NAN
    };
    // A copy of the set-up store, opened again after the crash: the speed
    // of a shared box drifts, and opens at both ends of the run hold a
    // steadier median than opens at one moment.
    let copy = dir.with_extension("copy");
    copy_files(dir, &copy)?;
    let mut open_s = Vec::new();
    let mut open_with_s = Vec::new();
    let mut engine = None;
    for _ in 0..plan.open_reps.max(1) {
        tally.attempted += 1;
        drop(engine.take());
        let (e, _, total, open_with) = open(plan, dir, &mut tracer, "open")?;
        open_s.push(total);
        open_with_s.push(open_with);
        engine = Some(e);
    }
    let engine = engine.expect("opened at least once");
    let e0 = engine.epoch();
    let reader = engine.reader();
    // An in-memory fork at the serving epoch: the traced run times the
    // same batches through `Engine::apply` on it.
    let mut fork = plan.trace.then(|| engine.clone());
    let handle = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            repl_dir: Some(dir.to_path_buf()),
            ..ServerConfig::default()
        },
    )?;
    let ctx = Ctx {
        plan,
        addr: handle.addr().to_string(),
        origin,
        reader,
    };
    let mut w = Writer {
        client: Client::connect(&ctx.addr)?,
        stream: WindowStream::new(plan),
        last_epoch: e0,
    };

    // -- traffic ------------------------------------------------------------
    // The untraced run measures for the whole budget. The traced run
    // alternates untraced and traced blocks: their difference is the
    // tracing overhead, and alternating keeps drift in the machine's speed
    // out of it. A short warm-up first lets lazy set-up finish.
    let blocks: Vec<(f64, bool)> = if plan.trace {
        let each = plan.seconds / (2 * TRACE_BLOCKS) as f64;
        (0..2 * TRACE_BLOCKS).map(|i| (each, i % 2 == 1)).collect()
    } else {
        vec![(plan.seconds, false)]
    };
    let snap = ctx.reader.snapshot();
    let reference = if plan.workload == Workload::Nyt1 {
        None
    } else {
        tally.attempted += 2;
        Some((
            key(&snap.run(query(plan, Kind::TopK, 0))?),
            key(&snap.run(query(plan, Kind::MaxCov, 0))?),
        ))
    };
    let fixed = match &reference {
        Some((topk, maxcov)) => Check::Fixed {
            epoch: e0,
            topk,
            maxcov,
        },
        None => Check::Later,
    };
    let warm = read_phase(&ctx, plan.warmup_s, false, fixed, 1, &mut tally);
    for p in &warm.pending {
        verify(&snap, plan, p, &mut tally);
    }
    let mut phases = Vec::new();
    for (i, &(secs, traced)) in blocks.iter().enumerate() {
        let base = 10 * (i as u64 + 1);
        let mut phase = read_phase(&ctx, secs, traced, fixed, base, &mut tally);
        // Kept answers are re-run in process while no write has moved the
        // epoch.
        for p in std::mem::take(&mut phase.pending) {
            verify(&snap, plan, &p, &mut tally);
        }
        phase.traced = traced;
        phases.push(phase);
    }

    // -- traced replays of each layer, while the server idles ---------------
    let traced = merge(phases.iter().filter(|p| p.traced));
    let replays = if plan.trace {
        Some(replay_layers(
            plan,
            &snap,
            &traced,
            &mut tracer,
            &mut tally,
        )?)
    } else {
        None
    };
    drop(snap);

    // -- durable writes -----------------------------------------------------
    // The write phase, then — after an explicit checkpoint — the batches
    // recovery will replay, so the WAL tail has a fixed length.
    let mut epilogue = ThreadOut::default();
    let mut epilogue_tracer = Tracer::new(plan.trace, origin, 90);
    let checkpoint = |client: &mut Client, tally: &mut Tally| {
        tally.attempted += 1;
        if let Err(e) = client.checkpoint() {
            tally.fail(format!("checkpoint: {e}"));
        }
    };
    if plan.tail_batches == 0 {
        checkpoint(&mut w.client, &mut tally);
    }
    writes(
        &mut w,
        plan.write_batches,
        plan.write_rate,
        &mut epilogue_tracer,
        &mut epilogue,
    );
    let written = epilogue.applied.len();
    if plan.tail_batches > 0 {
        checkpoint(&mut w.client, &mut tally);
        writes(
            &mut w,
            plan.tail_batches,
            0.0,
            &mut epilogue_tracer,
            &mut epilogue,
        );
    }
    epilogue.spans = epilogue_tracer.into_spans();
    tally.merge(std::mem::take(&mut epilogue.tally));

    // -- answers just before the crash ---------------------------------------
    let probes = [
        query(plan, Kind::TopK, u64::MAX),
        query(plan, Kind::MaxCov, u64::MAX),
    ];
    let mut before = Vec::new();
    for q in &probes {
        tally.attempted += 1;
        match w.client.query(q.clone()) {
            Ok(a) if a.explain.snapshot_epoch == w.last_epoch => before.push(Some(key(&a))),
            Ok(a) => {
                tally.mismatch(format!(
                    "probe answered at epoch {} after ack {}",
                    a.explain.snapshot_epoch, w.last_epoch
                ));
                before.push(None);
            }
            Err(e) => {
                tally.fail(format!("probe: {e}"));
                before.push(None);
            }
        }
    }
    let scrape = if plan.trace {
        tally.attempted += 1;
        parse_metrics(&w.client.metrics()?)
    } else {
        HashMap::new()
    };
    let last_epoch = w.last_epoch;
    drop(w);
    let panics = handle.panics();
    if panics > 0 {
        tally.fail(format!("server caught {panics} handler panics"));
    }
    // The serving peak: read before recovery, which would otherwise count
    // a reopened engine beside the aborted server's last snapshot.
    let peak_rss = peak_rss_mb();
    drop(ctx);

    // -- crash and recovery -------------------------------------------------
    drop(handle.abort()?);
    let store_mb = dir_mb(dir);
    let snapshot_path = tq_store::snapshot_files(dir)?
        .into_iter()
        .map(|(_, p)| p)
        .next()
        .ok_or("the store has no snapshot")?;
    let snapshot_mb = std::fs::metadata(&snapshot_path)?.len() as f64 / (1u64 << 20) as f64;
    let (crc_s, wal_records) = if plan.trace {
        let bytes = std::fs::read(&snapshot_path)?;
        let (crc, crc_s) = tracer.time("store.crc32", 0, || {
            tq_store::crc::crc32(std::hint::black_box(&bytes))
        });
        std::hint::black_box(crc);
        let (opened, _) = tracer.time("store.open", 0, || {
            tq_store::Store::open(dir, plan.store_config())
        });
        let (_, recovered) = opened?;
        let base = recovered.snapshot.meta.epoch;
        (
            crc_s,
            recovered
                .wal_records
                .iter()
                .filter(|r| r.epoch > base)
                .count(),
        )
    } else {
        (f64::NAN, 0)
    };
    let mut recover_s = Vec::new();
    let recover_reps = plan.recover_reps.max(1);
    for rep in 0..recover_reps {
        tally.attempted += 1;
        let (engine, epoch, total, _) = open(plan, dir, &mut tracer, "recover")?;
        recover_s.push(total);
        if epoch != last_epoch {
            tally.mismatch(format!("recovered epoch {epoch}, last acked {last_epoch}"));
        }
        if rep == 0 {
            let snap = engine.snapshot();
            for (q, want) in probes.iter().zip(&before) {
                tally.attempted += 1;
                tally.checked += 1;
                match snap.run(q.clone()) {
                    Ok(a) if Some(key(&a)) == *want => {}
                    Ok(_) => {
                        tally.mismatch("recovered answer differs from the pre-crash answer".into())
                    }
                    Err(e) => tally.fail(format!("recovered query: {e}")),
                }
            }
        }
        drop(engine);
        // The late opens, spread evenly between the recoveries.
        let late = |r: usize| plan.late_open_reps * r / recover_reps;
        for _ in late(rep)..late(rep + 1) {
            tally.attempted += 1;
            let (_, _, total, open_with) = open(plan, &copy, &mut tracer, "open")?;
            open_s.push(total);
            open_with_s.push(open_with);
        }
    }
    std::fs::remove_dir_all(&copy)?;

    // -- the fork: the same batches through Engine::apply, in memory --------
    let fork_apply_us = match fork.as_mut() {
        Some(fork) => fork_replay(
            plan,
            fork,
            &epilogue.applied,
            written,
            &mut tracer,
            &mut tally,
        ),
        None => Vec::new(),
    };
    drop(fork);

    // -- results ------------------------------------------------------------
    let mut spans = tracer.into_spans();
    for p in &phases {
        spans.extend(p.spans.iter().cloned());
    }
    spans.extend(epilogue.spans.iter().cloned());
    if let Some(path) = trace_out.filter(|_| plan.trace) {
        trace::write_jsonl(path, &spans)?;
    }

    let traffic = merge(phases.iter());
    let applied = &epilogue.applied[..written];
    let mut timings = Vec::new();
    let e2e = end_to_end(
        plan,
        &E2eInputs {
            traffic: &traffic,
            applied,
            setup,
            open_s: &open_s,
            recover_s: &recover_s,
            peak_rss,
            store_mb,
        },
        &mut timings,
        &mut tally,
    );
    let mut meta = run_meta(plan, &e2e, &timings, &tally);
    let mut reconciliation = Vec::new();
    let metrics = if plan.trace {
        let traced = &traced;
        let layer = LayerInputs {
            plan,
            traced,
            spans: &spans,
            replays: replays.as_ref().expect("the traced run replays"),
            scrape: &scrape,
            applied,
            all_applied: &epilogue.applied,
            fork_apply_us: &fork_apply_us,
            setup,
            store_open_s,
            open_with_s: median(&open_with_s),
            open_s: median(&open_s),
            crc_s,
            wal_records,
            snapshot_mb,
        };
        reconciliation = reconcile(&layer);
        let untraced = merge(phases.iter().filter(|p| !p.traced));
        meta.push((
            "trace_overhead_pct".into(),
            trace_overhead(&untraced, traced),
        ));
        per_layer(&layer)
    } else {
        let note = "measured by the traced run (--trace 1)";
        meta.push(("trace_overhead_pct".into(), crate::report::string(note)));
        e2e
    };
    Ok(Outcome {
        metrics,
        correct: tally.mismatched == 0,
        tally,
        meta,
        reconciliation,
    })
}

/// Phases of a run as one.
fn merge<'a>(phases: impl Iterator<Item = &'a Phase>) -> Phase {
    let mut all = Phase::default();
    for p in phases {
        all.secs += p.secs;
        all.reads.extend(p.reads.iter().cloned());
    }
    all.reads.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    all
}

// ---------------------------------------------------------------------------
// Traced replays
// ---------------------------------------------------------------------------

/// Layer timings measured by calling each layer's public functions on the
/// serving snapshot.
#[derive(Default)]
struct Replays {
    /// `(µs, engine µs)` of each timed `top_k_facilities`, with the wall
    /// time the engine reported for the same query run in process just
    /// before (subset plans only; 0 otherwise).
    topk: Vec<(f64, f64)>,
    topk_stats: Vec<(EvalStats, usize)>,
    /// `(build µs, greedy µs, engine µs)` of each replayed max-cov.
    maxcov: Vec<(f64, f64, f64)>,
    table_stats: Vec<EvalStats>,
    /// `Snapshot::run` of the hot max-cov: default threads minus one
    /// thread, µs.
    fanout_us: f64,
}

/// Replays reads of the traced phase through the layers below the
/// engine: `top_k_facilities` for top-k, `ServedTable::build_for` then
/// `greedy` for max-cov. Full-set plans replay the one hot query several
/// times. Subset plans replay the first traced reads of each kind, each
/// right after running it through `Snapshot::run`, so the engine's wall
/// time and its parts are measured back to back.
fn replay_layers(
    plan: &Plan,
    snap: &Snapshot,
    traced: &Phase,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<Replays, Error> {
    let tree = snap
        .tree()
        .ok_or("the benchmark serves a TQ-tree backend")?;
    let (users, model, facilities) = (snap.users(), snap.model(), snap.facilities());
    let reps = if plan.subset.is_some() { 12 } else { 20 };
    let pick = |kind: Kind| -> Vec<u64> {
        if plan.subset.is_some() {
            traced
                .reads
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.index)
                .take(reps)
                .collect()
        } else {
            vec![0; reps]
        }
    };
    let all: Vec<FacilityId> = facilities.iter().map(|(id, _)| id).collect();
    let mut out = Replays::default();
    let mut engine_us = |kind: Kind, index: u64, tracer: &mut Tracer| -> f64 {
        if plan.subset.is_none() {
            return 0.0;
        }
        tally.attempted += 1;
        let (answer, _) = tracer.time("engine.run", 0, || snap.run(query(plan, kind, index)));
        match answer {
            Ok(a) => a.explain.wall.as_secs_f64() * 1e6,
            Err(e) => {
                tally.fail(format!("in-process read {index}: {e}"));
                f64::NAN
            }
        }
    };
    for index in pick(Kind::TopK) {
        let engine = engine_us(Kind::TopK, index, tracer);
        let cand = candidates(plan, index).unwrap_or_else(|| all.clone());
        let sub =
            FacilitySet::from_vec(cand.iter().map(|&id| facilities.get(id).clone()).collect());
        let mark = tracer.mark();
        let start = Instant::now();
        let (res, s) = tracer.time("topk.search", 0, || {
            top_k_facilities(tree, users, model, std::hint::black_box(&sub), K)
        });
        let root = tracer.span("replay.topk", 0, index, start, Instant::now());
        tracer.adopt(mark, root);
        out.topk.push((s * 1e6, engine));
        out.topk_stats.push((res.stats, res.relaxations));
    }
    for index in pick(Kind::MaxCov) {
        let engine = engine_us(Kind::MaxCov, index, tracer);
        let cand = candidates(plan, index).unwrap_or_else(|| all.clone());
        let mark = tracer.mark();
        let start = Instant::now();
        let (table, build_s) = tracer.time("maxcov.build_for", 0, || {
            ServedTable::build_for(tree, users, model, facilities, &cand)
        });
        let (cover, greedy_s) = tracer.time("maxcov.greedy", 0, || greedy(&table, users, model, K));
        std::hint::black_box(cover);
        let root = tracer.span("replay.maxcov", 0, index, start, Instant::now());
        tracer.adopt(mark, root);
        out.maxcov.push((build_s * 1e6, greedy_s * 1e6, engine));
        out.table_stats.push(table.stats);
    }
    // Fan-out: the hot (memoized) max-cov over all routes at the default
    // thread count against one thread.
    let fan_reps = if plan.subset.is_some() { 1 } else { 30 };
    let (mut par, mut serial) = (Vec::new(), Vec::new());
    for _ in 0..fan_reps {
        let (a, s) = tracer.time("parallel.default", 0, || snap.run(Query::max_cov(K)));
        par.push(s * 1e6);
        let (b, s) = tracer.time("parallel.serial", 0, || {
            snap.run(Query::max_cov(K).threads(1))
        });
        serial.push(s * 1e6);
        if key(&a?) != key(&b?) {
            return Err("max-cov answers differ between thread counts".into());
        }
    }
    out.fanout_us = median(&par) - median(&serial);
    Ok(out)
}

/// Applies the run's batches, regenerated from the seed, to the in-memory
/// fork taken at the serving epoch, timing each `Engine::apply` and
/// checking that the fork reaches the epochs the server acked. Returns the
/// apply times (µs) of the first `written` batches, the write phase's.
fn fork_replay(
    plan: &Plan,
    fork: &mut Engine,
    acked: &[Applied],
    written: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut stream = WindowStream::new(plan);
    let mut times = Vec::new();
    for (b, ack) in acked.iter().enumerate() {
        let batch = stream.next_batch();
        tally.attempted += 1;
        let (res, s) = tracer.time("engine.apply", 0, || fork.apply(&batch));
        if let Err(e) = res {
            tally.fail(format!("fork apply {b}: {e}"));
            break;
        }
        if fork.epoch() != ack.epoch {
            tally.mismatch(format!(
                "fork reached epoch {} where the server acked {}",
                fork.epoch(),
                ack.epoch
            ));
        }
        if b < written {
            times.push(s * 1e6);
        }
    }
    times
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

struct E2eInputs<'a> {
    traffic: &'a Phase,
    applied: &'a [Applied],
    setup: &'a [SetupRep],
    open_s: &'a [f64],
    recover_s: &'a [f64],
    peak_rss: f64,
    store_mb: f64,
}

fn latencies(reads: &[Read], kind: Kind) -> Vec<f64> {
    reads
        .iter()
        .filter(|r| r.kind == kind)
        .map(|r| r.latency_us)
        .collect()
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(
    plan: &Plan,
    x: &E2eInputs,
    timings: &mut Vec<(&'static str, Timing)>,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let setup: Vec<f64> = x.setup.iter().map(SetupRep::total).collect();
    out.push(metric("setup_s", median(&setup), "s", setup.len()));
    let reads = &x.traffic.reads;
    let qps = reads.len() as f64 / x.traffic.secs;
    out.push(metric("qps", qps, "1/s", reads.len()));
    let apply: Vec<f64> = x.applied.iter().map(|a| a.latency_us).collect();
    // The write tail is in the metadata only: it swings by half between
    // identical runs on a shared box.
    for (name, p50, tail, values) in [
        (
            "topk",
            "topk_p50_us",
            Some("topk_tail_us"),
            latencies(reads, Kind::TopK),
        ),
        (
            "maxcov",
            "maxcov_p50_us",
            Some("maxcov_tail_us"),
            latencies(reads, Kind::MaxCov),
        ),
        ("apply", "apply_p50_us", None, apply),
    ] {
        let t = Timing::of(&values, plan.tail_pct);
        if t.is_none() {
            tally.fail(format!("no {name} samples"));
        }
        out.push(metric(
            p50,
            t.map_or(f64::NAN, |t| t.p50),
            "us",
            values.len(),
        ));
        if let Some(tail) = tail {
            out.push(metric(
                tail,
                t.map_or(f64::NAN, |t| t.tail),
                "us",
                values.len(),
            ));
        }
        timings.extend(t.map(|t| (name, t)));
    }
    out.push(metric("open_s", median(x.open_s), "s", x.open_s.len()));
    out.push(metric(
        "recover_s",
        median(x.recover_s),
        "s",
        x.recover_s.len(),
    ));
    out.push(metric("peak_rss_mb", x.peak_rss, "MB", 1));
    out.push(metric("store_mb", x.store_mb, "MB", 1));
    out
}

struct LayerInputs<'a> {
    plan: &'a Plan,
    traced: &'a Phase,
    spans: &'a [Span],
    replays: &'a Replays,
    scrape: &'a HashMap<String, f64>,
    /// The batches the per-batch apply metrics cover.
    applied: &'a [Applied],
    /// Every acked batch of the run (the writer metrics cover them all).
    all_applied: &'a [Applied],
    fork_apply_us: &'a [f64],
    setup: &'a [SetupRep],
    store_open_s: f64,
    open_with_s: f64,
    open_s: f64,
    crc_s: f64,
    wal_records: usize,
    snapshot_mb: f64,
}

impl LayerInputs<'_> {
    fn get(&self, name: &str) -> f64 {
        self.scrape.get(name).copied().unwrap_or(0.0)
    }

    /// Mean of a scraped histogram, ns.
    fn hist_mean(&self, name: &str) -> f64 {
        let count = self.get(&format!("{name}_count"));
        if count == 0.0 {
            0.0
        } else {
            self.get(&format!("{name}_sum")) / count
        }
    }

    fn quantile(&self, name: &str, q: &str) -> f64 {
        self.get(&format!("{name}{{quantile=\"{q}\"}}"))
    }

    fn rtt_self_us(&self) -> Vec<f64> {
        let selfs = trace::self_times(self.spans);
        trace::self_us(self.spans, &selfs, "net.query")
    }

    /// Mean apply round trip minus the writer funnel's mean queueing and
    /// batch time: what `tq-net` and the hand-off to the writer add.
    fn apply_self_us(&self) -> f64 {
        let funnel =
            (self.hist_mean("tq_writer_queued_ns") + self.hist_mean("tq_writer_batch_ns")) / 1e3;
        mean_of(self.all_applied, |a| a.rtt_us) - funnel
    }

    fn walls(&self, kind: Kind) -> Vec<f64> {
        self.traced
            .reads
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.wall_us)
            .collect()
    }
}

fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    let v: Vec<f64> = items.iter().map(f).collect();
    stats::mean(&v)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn per_layer(x: &LayerInputs) -> Vec<Metric> {
    let reads = &x.traced.reads;
    let r = x.replays;
    let n_reads = reads.len();
    let topk_stats = |f: fn(&EvalStats) -> usize| mean_of(&r.topk_stats, |(s, _)| f(s) as f64);
    let table_stats = |f: fn(&EvalStats) -> usize| mean_of(&r.table_stats, |s| f(s) as f64);
    let prune = |stats: &[EvalStats]| {
        let pruned: usize = stats.iter().map(|s| s.items_pruned).sum();
        let tested: usize = stats.iter().map(|s| s.items_tested).sum();
        ratio(pruned as f64, (pruned + tested) as f64)
    };
    let topk_eval: Vec<EvalStats> = r.topk_stats.iter().map(|(s, _)| *s).collect();
    let setup = |f: fn(&SetupRep) -> f64| median(&x.setup.iter().map(f).collect::<Vec<_>>());
    let n_apply = x.applied.len();
    let sized: Vec<f64> = reads
        .iter()
        .filter(|r| r.bytes > 0)
        .map(|r| r.bytes as f64)
        .collect();
    vec![
        metric("net.rtt_self_us", median(&x.rtt_self_us()), "us", n_reads),
        metric(
            "net.bytes_per_query",
            stats::mean(&sized),
            "bytes",
            sized.len(),
        ),
        metric(
            "net.apply_self_us",
            x.apply_self_us(),
            "us",
            x.all_applied.len(),
        ),
        metric(
            "engine.topk_wall_us",
            median(&x.walls(Kind::TopK)),
            "us",
            x.walls(Kind::TopK).len(),
        ),
        metric(
            "engine.maxcov_wall_us",
            median(&x.walls(Kind::MaxCov)),
            "us",
            x.walls(Kind::MaxCov).len(),
        ),
        metric(
            "engine.queued_us",
            median(&reads.iter().map(|r| r.queued_us).collect::<Vec<_>>()),
            "us",
            n_reads,
        ),
        metric(
            "engine.cache_hit_ratio",
            ratio(
                reads.iter().filter(|r| r.hit).count() as f64,
                n_reads as f64,
            ),
            "ratio",
            n_reads,
        ),
        metric(
            "engine.threads",
            mean_of(reads, |r| r.threads as f64),
            "count",
            n_reads,
        ),
        metric(
            "topk.search_us",
            median(&r.topk.iter().map(|t| t.0).collect::<Vec<_>>()),
            "us",
            r.topk.len(),
        ),
        metric(
            "topk.nodes_visited",
            topk_stats(|s| s.nodes_visited),
            "count",
            r.topk.len(),
        ),
        metric(
            "topk.items_tested",
            topk_stats(|s| s.items_tested),
            "count",
            r.topk.len(),
        ),
        metric(
            "topk.items_pruned",
            topk_stats(|s| s.items_pruned),
            "count",
            r.topk.len(),
        ),
        metric(
            "topk.distance_checks",
            topk_stats(|s| s.distance_checks),
            "count",
            r.topk.len(),
        ),
        metric(
            "topk.relaxations",
            mean_of(&r.topk_stats, |(_, n)| *n as f64),
            "count",
            r.topk.len(),
        ),
        metric("topk.prune_ratio", prune(&topk_eval), "ratio", r.topk.len()),
        metric(
            "maxcov.table_build_us",
            median(&r.maxcov.iter().map(|m| m.0).collect::<Vec<_>>()),
            "us",
            r.maxcov.len(),
        ),
        metric(
            "maxcov.greedy_us",
            median(&r.maxcov.iter().map(|m| m.1).collect::<Vec<_>>()),
            "us",
            r.maxcov.len(),
        ),
        metric(
            "maxcov.items_tested",
            table_stats(|s| s.items_tested),
            "count",
            r.maxcov.len(),
        ),
        metric(
            "maxcov.distance_checks",
            table_stats(|s| s.distance_checks),
            "count",
            r.maxcov.len(),
        ),
        metric(
            "maxcov.prune_ratio",
            prune(&r.table_stats),
            "ratio",
            r.maxcov.len(),
        ),
        metric(
            "maxcov.parallel_tasks",
            table_stats(|s| s.parallel_tasks),
            "count",
            r.maxcov.len(),
        ),
        metric("parallel.fanout_overhead_us", r.fanout_us, "us", 1),
        metric(
            "writer.queued_us",
            x.hist_mean("tq_writer_queued_ns") / 1e3,
            "us",
            x.all_applied.len(),
        ),
        metric(
            "writer.batch_p50_us",
            x.quantile("tq_writer_batch_ns", "0.5") / 1e3,
            "us",
            x.all_applied.len(),
        ),
        metric(
            "writer.batch_p99_us",
            x.quantile("tq_writer_batch_ns", "0.99") / 1e3,
            "us",
            x.all_applied.len(),
        ),
        metric(
            "apply.engine_us",
            median(x.fork_apply_us),
            "us",
            x.fork_apply_us.len(),
        ),
        metric(
            "apply.facilities_untouched",
            mean_of(x.applied, |a| a.untouched as f64),
            "count",
            n_apply,
        ),
        metric(
            "apply.facilities_patched",
            mean_of(x.applied, |a| a.patched as f64),
            "count",
            n_apply,
        ),
        metric(
            "apply.facilities_reevaluated",
            mean_of(x.applied, |a| a.reevaluated as f64),
            "count",
            n_apply,
        ),
        metric(
            "store.wal_append_p50_us",
            x.quantile("tq_wal_append_ns", "0.5") / 1e3,
            "us",
            x.all_applied.len(),
        ),
        metric(
            "store.wal_append_p99_us",
            x.quantile("tq_wal_append_ns", "0.99") / 1e3,
            "us",
            x.all_applied.len(),
        ),
        metric(
            "store.wal_bytes_per_batch",
            ratio(x.get("tq_wal_bytes_total"), x.get("tq_wal_appends_total")),
            "bytes",
            x.all_applied.len(),
        ),
        metric(
            "store.checkpoints",
            x.get("tq_checkpoints_total"),
            "count",
            1,
        ),
        metric(
            "store.checkpoint_stage_ms",
            x.quantile("tq_checkpoint_stage_ns", "0.5") / 1e6,
            "ms",
            x.get("tq_checkpoint_stage_ns_count") as usize,
        ),
        metric(
            "store.checkpoint_commit_ms",
            x.quantile("tq_checkpoint_commit_ns", "0.5") / 1e6,
            "ms",
            x.get("tq_checkpoint_commit_ns_count") as usize,
        ),
        metric("store.snapshot_mb", x.snapshot_mb, "MB", 1),
        metric("store.open_ms", x.store_open_s * 1e3, "ms", 1),
        metric("store.crc_ms", x.crc_s * 1e3, "ms", 1),
        metric(
            "persist.decode_replay_ms",
            (x.open_with_s - x.store_open_s) * 1e3,
            "ms",
            1,
        ),
        metric("persist.wal_records", x.wal_records as f64, "count", 1),
        metric(
            "setup.generate_s",
            setup(|r| r.generate),
            "s",
            x.setup.len(),
        ),
        metric("setup.build_s", setup(|r| r.build), "s", x.setup.len()),
        metric("setup.warm_s", setup(|r| r.warm), "s", x.setup.len()),
        metric(
            "setup.checkpoint_s",
            setup(|r| r.checkpoint),
            "s",
            x.setup.len(),
        ),
    ]
}

/// Whether `parts` is within 10% of `total`.
fn within(parts: f64, total: f64) -> bool {
    total > 0.0 && ((parts - total) / total).abs() <= 0.10
}

/// Checks that the traced run's per-layer parts add back up to the
/// end-to-end means.
fn reconcile(x: &LayerInputs) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let mut check = |what: String, parts: f64, total: f64| {
        let ok = within(parts, total);
        out.push((
            format!(
                "{what}: parts {parts:.3} vs total {total:.3} ({:+.1}%)",
                100.0 * (parts - total) / total
            ),
            ok,
        ));
    };
    let reads = &x.traced.reads;
    let rtt = mean_of(reads, |r| r.latency_us);
    let parts = stats::mean(&x.rtt_self_us())
        + mean_of(reads, |r| r.queued_us)
        + mean_of(reads, |r| r.wall_us);
    check(
        "read round trip us = net self + engine queued + engine wall".into(),
        parts,
        rtt,
    );

    if x.plan.subset.is_some() {
        // Against the engine's wall time for the same queries run in
        // process back to back with the replay; the networked walls of
        // the traced reads are shown beside it.
        let r = x.replays;
        check(
            format!(
                "top-k us: replayed topk.search = engine wall (networked p50 {:.0})",
                median(&x.walls(Kind::TopK))
            ),
            mean_of(&r.topk, |t| t.0),
            mean_of(&r.topk, |t| t.1),
        );
        check(
            format!(
                "max-cov us: replayed maxcov.table_build + maxcov.greedy = engine wall (networked p50 {:.0})",
                median(&x.walls(Kind::MaxCov))
            ),
            mean_of(&r.maxcov, |m| m.0 + m.1),
            mean_of(&r.maxcov, |m| m.2),
        );
    }
    check(
        "open ms: store.open + persist.decode_replay = open_s".into(),
        x.open_with_s * 1e3,
        x.open_s * 1e3,
    );
    out
}

/// The traced half's end-to-end numbers against the untraced half's, in
/// per cent, as a JSON object.
fn trace_overhead(untraced: &Phase, traced: &Phase) -> String {
    let med = |p: &Phase, kind: Kind| median(&latencies(&p.reads, kind));
    let mut o = crate::report::Obj::new();
    let pct = |a: f64, b: f64| 100.0 * (b - a) / a;
    o = o.num(
        "qps",
        pct(
            untraced.reads.len() as f64 / untraced.secs,
            traced.reads.len() as f64 / traced.secs,
        ),
    );
    o = o.num(
        "topk_p50_us",
        pct(med(untraced, Kind::TopK), med(traced, Kind::TopK)),
    );
    o = o.num(
        "maxcov_p50_us",
        pct(med(untraced, Kind::MaxCov), med(traced, Kind::MaxCov)),
    );
    o.render()
}

/// Parses the `name{labels} value` lines of a metrics scrape.
fn parse_metrics(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Run metadata: scale, seed, load shape, flush policy, sample counts.
fn run_meta(
    plan: &Plan,
    e2e: &[Metric],
    timings: &[(&str, Timing)],
    tally: &Tally,
) -> Vec<(String, String)> {
    use crate::report::{num, string, Obj};
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let loop_type = match plan.workload {
        Workload::HotRead => "closed loop, 2 readers; then 1 periodic writer",
        Workload::Nyt1 => "closed loop, 1 client",
    };
    let mut samples = Obj::new();
    for m in e2e {
        samples = samples.raw(m.name, m.n.to_string());
    }
    let mut tails = Obj::new();
    for (name, t) in timings {
        let about = Obj::new()
            .num("p50_us", t.p50)
            .num("tail_us", t.tail)
            .num("percentile", t.tail_pct)
            .raw("samples", t.n.to_string())
            .raw("ten_beyond_tail", t.supported.to_string())
            .raw("windows", t.windows.to_string())
            .num("window_median_p50_us", t.window_p50)
            .num("window_median_tail_us", t.window_tail)
            .raw(
                "highest_supported_percentile",
                stats::highest_supported(t.n, 99.9).map_or("null".into(), num),
            );
        tails = tails.raw(name, about.render());
    }
    let problems: Vec<String> = tally.problems.iter().map(|p| string(p)).collect();
    let config = plan.store_config();
    vec![
        ("workload".into(), string(plan.workload.name())),
        ("seed".into(), plan.seed.to_string()),
        ("seconds".into(), num(plan.seconds)),
        ("trace".into(), plan.trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("users".into(), plan.users.to_string()),
        ("routes".into(), plan.routes.to_string()),
        ("stops".into(), plan.stops.to_string()),
        (
            "candidates_per_query".into(),
            plan.subset.unwrap_or(plan.routes).to_string(),
        ),
        ("clients".into(), plan.clients.to_string()),
        ("loop".into(), string(loop_type)),
        ("write_batches".into(), plan.write_batches.to_string()),
        ("write_rate_per_s".into(), num(plan.write_rate)),
        (
            "wal_tail_batches".into(),
            if plan.tail_batches > 0 {
                plan.tail_batches
            } else {
                plan.write_batches
            }
            .to_string(),
        ),
        ("tails".into(), tails.render()),
        ("samples".into(), samples.render()),
        ("sync_policy".into(), string(&format!("{:?}", config.sync))),
        (
            "checkpoint_every".into(),
            config.checkpoint_every.to_string(),
        ),
        (
            "error_rate".into(),
            num(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        ("answers_checked".into(), tally.checked.to_string()),
        ("problems".into(), format!("[{}]", problems.join(", "))),
    ]
}
