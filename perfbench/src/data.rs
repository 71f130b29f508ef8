//! Workload plans and the seeded inputs they run on.
//!
//! Everything a run sends — the initial trips, the update stream and the
//! candidate subsets — is a pure function of the seed, so the same seed
//! gives the same inputs on every commit; the route network is fixed.

use tq_core::dynamic::Update;
use tq_core::engine::Engine;
use tq_core::service::{Scenario, ServiceModel};
use tq_core::tqtree::{Placement, TqTreeConfig};
use tq_core::StoreConfig;
use tq_datagen::{presets, stream_scenario, taxi_trips, CityModel, StreamKind};
use tq_trajectory::{FacilityId, FacilitySet, TrajectoryId, UserSet};

/// k of every top-k and max-cov query (the paper's default).
pub const K: usize = 8;
/// Service radius ψ in metres (the paper's default).
pub const PSI: f64 = presets::DEFAULT_PSI;
/// z-node bucket size β of the TQ-tree.
pub const BETA: usize = 64;
/// Events per update batch.
pub const BATCH: usize = 50;
/// Share of stream events that expire a live trip (a sliding window).
pub const EXPIRE_RATIO: f64 = 0.5;

const SUBSET_SALT: u64 = 0x005A_B5E7;
const STREAM_SALT: u64 = 0x57_4EA3;
const SAMPLE_SALT: u64 = 0x0C4E_C4ED;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CI scale, two closed-loop readers whose every answer is a memo
    /// hit, then a periodic write phase and a crash recovery.
    HotRead,
    /// Paper scale (NYT-1), memo-missing subset queries, then writes and
    /// a crash recovery.
    Nyt1,
}

impl Workload {
    /// Every workload the benchmark runs, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::HotRead, Workload::Nyt1];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot-read",
            Workload::Nyt1 => "nyt1",
        }
    }
}

/// Data scale: the real one, or a tiny one for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The scale the benchmark is defined at.
    Full,
    /// A few thousand trips, for tests.
    Tiny,
}

/// Everything one run does, fixed before it starts.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Seconds of measured traffic.
    pub seconds: f64,
    /// Seconds of unmeasured reads before it.
    pub warmup_s: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Initial trips.
    pub users: usize,
    /// Routes (facilities).
    pub routes: usize,
    /// Stops per route.
    pub stops: usize,
    /// Routes per query's candidate subset (`None` = all routes).
    pub subset: Option<usize>,
    /// Times set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
    /// Times the store is opened before it serves; `open_s` is the
    /// median over these and the late opens.
    pub open_reps: usize,
    /// Times a copy of the set-up store is opened after the crash, spread
    /// between the recoveries, so `open_s` samples the end of the run too.
    pub late_open_reps: usize,
    /// Times the crashed store is reopened; `recover_s` is the median.
    pub recover_reps: usize,
    /// The percentile every `*_tail_us` reports.
    pub tail_pct: f64,
    /// Client threads during the traffic phase.
    pub clients: usize,
    /// Rate of the write phase (batches per second; 0 = closed loop).
    pub write_rate: f64,
    /// Durable batches sent after the reads.
    pub write_batches: usize,
    /// Batches sent after the write phase. An explicit checkpoint precedes
    /// the batches recovery will replay — these, or the write phase when
    /// there are none — so the WAL tail has a fixed length.
    pub tail_batches: usize,
    /// One read in this many is re-checked in process (1 = all).
    pub check_every: u64,
}

impl Plan {
    /// The plan of `workload` at `scale`.
    pub fn new(workload: Workload, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Plan {
        let tiny = scale == Scale::Tiny;
        let base = Plan {
            workload,
            seed,
            seconds,
            warmup_s: if tiny { 0.1 } else { 0.5 },
            trace,
            users: if tiny { 1_500 } else { 4_000 },
            routes: if tiny { 24 } else { 64 },
            stops: if tiny { 8 } else { 12 },
            subset: None,
            // On a shared box the speed of the same single-threaded work
            // shifts by up to a third for seconds at a time, so a median
            // is steady only over reps that span several seconds: about 1 s
            // of set-ups, about 7 s of recoveries (one replays 100 batches
            // in about 0.12 s), and opens at both ends of the run.
            setup_reps: if tiny { 2 } else { 101 },
            open_reps: if tiny { 2 } else { 301 },
            late_open_reps: if tiny { 2 } else { 300 },
            recover_reps: if tiny { 2 } else { 60 },
            // On a shared 2-core box a p99 swings by half between identical
            // runs (one preempted window decides it); the p90 holds.
            tail_pct: 90.0,
            clients: 2,
            write_rate: 0.0,
            write_batches: 0,
            tail_batches: 0,
            check_every: 1,
        };
        match workload {
            Workload::HotRead => Plan {
                // A fixed rate, spread over 10 s: the median of a 2 s phase
                // (a closed loop, or 100/s) hinged on one moment of a shared
                // box and swung by a fifth to two fifths between runs.
                write_rate: 20.0,
                write_batches: if tiny { 60 } else { 200 },
                tail_batches: if tiny { 20 } else { 100 },
                ..base
            },
            Workload::Nyt1 => Plan {
                users: if tiny { 6_000 } else { presets::NYT_SIZES[1] },
                routes: if tiny { 96 } else { presets::NY_ROUTES },
                stops: if tiny { 8 } else { 32 },
                subset: Some(if tiny { 16 } else { 128 }),
                warmup_s: if tiny { 0.1 } else { 1.0 },
                setup_reps: if tiny { 1 } else { 2 },
                open_reps: if tiny { 1 } else { 3 },
                late_open_reps: if tiny { 1 } else { 2 },
                recover_reps: 1,
                // p90 needs 100 queries of each kind, ~37 s of reads.
                tail_pct: 75.0,
                clients: 1,
                write_batches: if tiny { 8 } else { 12 },
                check_every: if trace { 1 } else { 6 },
                ..base
            },
        }
    }

    /// The service model every workload uses: transit, ψ = 200 m.
    pub fn model(&self) -> ServiceModel {
        ServiceModel::new(Scenario::Transit, PSI)
    }

    /// tqd's default store settings (fsync per batch, checkpoint every
    /// 512 batches).
    pub fn store_config(&self) -> StoreConfig {
        StoreConfig::default()
    }
}

/// The generated data set of a run.
pub struct Dataset {
    /// Initial trips.
    pub users: UserSet,
    /// Routes.
    pub facilities: FacilitySet,
    /// Index bounds covering every trip the stream will insert.
    pub bounds: tq_geometry::Rect,
}

/// Generates the initial trips and routes of `plan`.
pub fn generate(plan: &Plan) -> Dataset {
    let scenario = stream_scenario(
        &presets::ny_city(),
        StreamKind::Taxi,
        plan.users,
        0,
        EXPIRE_RATIO,
        plan.seed,
    );
    Dataset {
        users: scenario.initial,
        // The route network is the city's and stays fixed; the seed varies
        // the trips, the update stream and the queries' subsets.
        facilities: presets::ny_bus(plan.routes, plan.stops),
        bounds: scenario.bounds,
    }
}

/// The engine builder of `plan` over `data`: TwoPoint z-order TQ-tree,
/// β = 64.
pub fn builder(plan: &Plan, data: Dataset) -> tq_core::EngineBuilder {
    Engine::builder(plan.model())
        .users(data.users)
        .facilities(data.facilities)
        .tree_config(TqTreeConfig::z_order(Placement::TwoPoint).with_beta(BETA))
        .bounds(data.bounds)
}

/// SplitMix64: a small, fast, seedable generator for the benchmark's own
/// choices (expiries, subsets, samples).
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Mix {
        Mix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The sorted candidate subset of query `index` (`None` = every route).
pub fn candidates(plan: &Plan, index: u64) -> Option<Vec<FacilityId>> {
    let size = plan.subset?;
    let mut rng = Mix::new(plan.seed ^ SUBSET_SALT ^ index.wrapping_mul(0x2545_F491_4F6C_DD1D));
    let mut ids: Vec<FacilityId> = (0..plan.routes as FacilityId).collect();
    for i in 0..size.min(ids.len()) {
        let j = i + rng.below(ids.len() - i);
        ids.swap(i, j);
    }
    ids.truncate(size);
    ids.sort_unstable();
    Some(ids)
}

/// Whether read `index` is in the seeded in-process re-check sample.
pub fn sampled(plan: &Plan, index: u64) -> bool {
    plan.check_every <= 1
        || Mix::new(plan.seed ^ SAMPLE_SALT ^ index)
            .next_u64()
            .is_multiple_of(plan.check_every)
}

/// The update stream: a sliding window over the initial trips in which
/// about half the events expire a live trip and the rest insert a fresh
/// one. Batches are generated on demand, so a long closed-loop run holds
/// no pre-built trace; two streams with the same plan yield the same
/// batches.
pub struct WindowStream {
    city: CityModel,
    seed: u64,
    rng: Mix,
    live: Vec<TrajectoryId>,
    next_id: TrajectoryId,
    min_live: usize,
    pool: UserSet,
    pool_pos: usize,
    chunk: u64,
}

/// Trips generated per arrival chunk.
const POOL_CHUNK: usize = 4_096;

impl WindowStream {
    /// The stream of `plan`, starting after its initial trips.
    pub fn new(plan: &Plan) -> WindowStream {
        let n = plan.users as TrajectoryId;
        WindowStream {
            city: presets::ny_city(),
            seed: plan.seed ^ STREAM_SALT,
            rng: Mix::new(plan.seed ^ STREAM_SALT),
            live: (0..n).collect(),
            next_id: n,
            min_live: plan.users / 2,
            pool: UserSet::new(),
            pool_pos: 0,
            chunk: 0,
        }
    }

    /// The next batch of [`BATCH`] events.
    pub fn next_batch(&mut self) -> Vec<Update> {
        (0..BATCH).map(|_| self.next_event()).collect()
    }

    fn next_event(&mut self) -> Update {
        let expire = self.live.len() > self.min_live
            && (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= EXPIRE_RATIO;
        if expire {
            let idx = self.rng.below(self.live.len());
            return Update::Remove(self.live.swap_remove(idx));
        }
        if self.pool_pos == self.pool.len() {
            self.chunk += 1;
            self.pool = taxi_trips(
                &self.city,
                POOL_CHUNK,
                self.seed ^ self.chunk.wrapping_mul(0x9E37),
            );
            self.pool_pos = 0;
        }
        let trip = self.pool.get(self.pool_pos as TrajectoryId).clone();
        self.pool_pos += 1;
        self.live.push(self.next_id);
        self.next_id += 1;
        Update::Insert(trip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_under_a_seed() {
        let plan = Plan::new(Workload::Nyt1, Scale::Tiny, 7, 1.0, false);
        assert_eq!(candidates(&plan, 3), candidates(&plan, 3));
        assert_ne!(candidates(&plan, 3), candidates(&plan, 4));
        let subset = candidates(&plan, 3).expect("nyt1 queries subsets");
        assert_eq!(subset.len(), 16);
        assert!(subset.windows(2).all(|w| w[0] < w[1]));

        let key = |b: Vec<Update>| format!("{b:?}");
        let (mut a, mut b) = (WindowStream::new(&plan), WindowStream::new(&plan));
        for _ in 0..200 {
            assert_eq!(key(a.next_batch()), key(b.next_batch()));
        }
    }
}
