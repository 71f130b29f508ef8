//! Dynamic-workload bench: incremental `DynamicEngine` batches versus
//! rebuild-from-scratch, at several update rates.
//!
//! Each iteration applies one batch of a pre-generated NYT-like
//! arrival/expiry trace (50% expiries, so the live set stays near its
//! initial size). The *incremental* arm drives a persistent
//! [`DynamicEngine`]; the *rebuild* arm applies the same batch to a plain
//! trajectory store and then rebuilds the TQ-tree and the full
//! [`ServedTable`] — what a static pipeline must do to stay correct.
//!
//! After the timed runs the bench prints the engine's accumulated
//! [`UpdateStats`], showing the fraction of full facility evaluations the
//! incremental path skipped (the acceptance bar is >50% at a 1% update
//! rate; in practice nearly all of them are skipped).
//!
//! Last, an **apply-vs-N readout** times `Engine::apply` on 50-event
//! batches over 64 routes at 4k, 40k and 200k users and prints p50/p99
//! per N. Structural sharing makes a batch cost `O(batch)`, so the gate
//! asserts the 200k-user p50 stays within 4x of the 4k-user p50 (the
//! whole-state copy-on-write it replaced measured 0.85 ms vs 43 ms mean,
//! about 50x).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};
use tq_core::dynamic::{DynamicConfig, DynamicEngine, Update, UpdateStats};
use tq_core::engine::Engine;
use tq_core::maxcov::ServedTable;
use tq_core::service::{Scenario, ServiceModel};
use tq_core::tqtree::{Placement, TqTree, TqTreeConfig};
use tq_datagen::{presets, stream_scenario, StreamKind, StreamScenario};
use tq_trajectory::{FacilitySet, Trajectory, UserSet};

const USERS: usize = 10_000;
const ROUTES: usize = 64;
const STOPS: usize = 12;
/// Update rates as a fraction of the live set per batch.
const RATES: [f64; 3] = [0.001, 0.01, 0.05];
/// Pre-generated batches per rate; iterations beyond this wrap around by
/// resetting the engine (the reset cost lands in one outlier sample).
const BATCHES: usize = 400;

fn tree_config() -> TqTreeConfig {
    TqTreeConfig::z_order(Placement::TwoPoint).with_beta(64)
}

fn scenario_for(rate: f64) -> (StreamScenario, Vec<Vec<Update>>) {
    let batch = ((rate * USERS as f64).round() as usize).max(1);
    let city = presets::ny_city();
    let trace = stream_scenario(
        &city,
        StreamKind::Taxi,
        USERS,
        batch * BATCHES,
        0.5,
        0xD1A,
    );
    let batches = trace.update_batches(batch);
    (trace, batches)
}

/// The rebuild arm's trajectory store: id-indexed, `None` = expired.
struct RebuildState {
    all: Vec<Option<Trajectory>>,
}

impl RebuildState {
    fn new(initial: &UserSet) -> RebuildState {
        RebuildState {
            all: initial.iter().map(|(_, t)| Some(t.clone())).collect(),
        }
    }

    fn apply(&mut self, batch: &[Update]) {
        for u in batch {
            match u {
                Update::Insert(t) => self.all.push(Some(t.clone())),
                Update::Remove(id) => self.all[*id as usize] = None,
            }
        }
    }

    fn live(&self) -> UserSet {
        UserSet::from_vec(self.all.iter().flatten().cloned().collect())
    }
}

fn bench_incremental_vs_rebuild(c: &mut Criterion) {
    let model = ServiceModel::new(Scenario::Transit, presets::DEFAULT_PSI);
    let facilities: FacilitySet = presets::ny_bus(ROUTES, STOPS);
    let config = DynamicConfig {
        tree: tree_config(),
        ..DynamicConfig::default()
    };

    let mut group = c.benchmark_group("dynamic_incremental_vs_rebuild");
    group.sample_size(9);
    let mut stats_per_rate: Vec<(f64, UpdateStats)> = Vec::new();

    for rate in RATES {
        let (trace, batches) = scenario_for(rate);
        let label = format!("{:.1}%", rate * 100.0);

        // Incremental: one persistent engine, one batch per iteration.
        let mk_engine = || {
            DynamicEngine::new(
                trace.initial.clone(),
                facilities.clone(),
                model,
                config,
                trace.bounds,
            )
        };
        let mut engine = mk_engine();
        let mut accumulated = UpdateStats::default();
        let mut idx = 0usize;
        group.bench_with_input(
            BenchmarkId::new("incremental", &label),
            &batches,
            |b, batches| {
                b.iter(|| {
                    if idx == batches.len() {
                        accumulated.add(engine.stats());
                        engine = mk_engine();
                        idx = 0;
                    }
                    let out = engine.apply(&batches[idx]).expect("valid trace");
                    idx += 1;
                    out.patched
                })
            },
        );
        accumulated.add(engine.stats());
        stats_per_rate.push((rate, accumulated));

        // Rebuild: apply the batch, then rebuild index + ServedTable.
        let mut state = RebuildState::new(&trace.initial);
        let mut idx = 0usize;
        group.bench_with_input(
            BenchmarkId::new("rebuild", &label),
            &batches,
            |b, batches| {
                b.iter(|| {
                    if idx == batches.len() {
                        state = RebuildState::new(&trace.initial);
                        idx = 0;
                    }
                    state.apply(&batches[idx]);
                    idx += 1;
                    let live = state.live();
                    let tree = TqTree::build_with_bounds(&live, tree_config(), trace.bounds);
                    let table = ServedTable::build(&tree, &live, &model, &facilities);
                    table.len()
                })
            },
        );
    }
    group.finish();

    println!("\nUpdateStats per rate ({USERS} users, {ROUTES} routes, batches of rate×users events):");
    for (rate, s) in &stats_per_rate {
        println!(
            "  {:>5.1}%: {:>5} batches | full facility evaluations: rebuild strategy {:>7}, \
             engine {:>5} → {:>5.1}% skipped ({:.1}% untouched, {} delta patches)",
            rate * 100.0,
            s.batches,
            s.rebuild_evaluations(),
            s.facilities_reevaluated,
            100.0 * s.skipped_fraction(),
            100.0 * s.untouched_fraction(),
            s.patch_evaluations,
        );
    }
    let one_pct = stats_per_rate
        .iter()
        .find(|(r, _)| (*r - 0.01).abs() < 1e-12)
        .map(|(_, s)| s.skipped_fraction())
        .unwrap_or(0.0);
    assert!(
        one_pct > 0.5,
        "expected >50% of facility evaluations skipped at the 1% update rate, got {:.1}%",
        100.0 * one_pct
    );
}

/// User counts of the apply-vs-N readout.
const APPLY_USERS: [usize; 3] = [4_000, 40_000, 200_000];
/// Events per batch of the readout.
const APPLY_BATCH: usize = 50;
/// Timed batches per user count.
const APPLY_SAMPLES: usize = 200;
/// The gate: 200k-user p50 over 4k-user p50.
const APPLY_GATE: f64 = 4.0;

fn percentile(sorted: &[Duration], pct: usize) -> Duration {
    sorted[(sorted.len() * pct / 100).min(sorted.len() - 1)]
}

fn apply_vs_users(_: &mut Criterion) {
    let model = ServiceModel::new(Scenario::Transit, presets::DEFAULT_PSI);
    let facilities: FacilitySet = presets::ny_bus(ROUTES, STOPS);
    let city = presets::ny_city();
    println!("\nEngine::apply vs N ({ROUTES} routes, {APPLY_BATCH}-event batches, half expiries):");
    let mut p50s = Vec::new();
    for n in APPLY_USERS {
        let trace = stream_scenario(
            &city,
            StreamKind::Taxi,
            n,
            APPLY_BATCH * APPLY_SAMPLES,
            0.5,
            0xA77,
        );
        let mut engine = Engine::builder(model)
            .users(trace.initial.clone())
            .facilities(facilities.clone())
            .tree_config(tree_config())
            .bounds(trace.bounds)
            .build()
            .expect("valid engine");
        engine.warm();
        let mut times: Vec<Duration> = trace
            .update_batches(APPLY_BATCH)
            .iter()
            .map(|batch| {
                let start = Instant::now();
                engine.apply(batch).expect("valid trace");
                start.elapsed()
            })
            .collect();
        times.sort_unstable();
        let (p50, p99) = (percentile(&times, 50), percentile(&times, 99));
        println!(
            "  {n:>7} users: p50 {:>8.3} ms, p99 {:>8.3} ms ({} batches)",
            p50.as_secs_f64() * 1e3,
            p99.as_secs_f64() * 1e3,
            times.len()
        );
        p50s.push(p50);
    }
    let ratio = p50s[2].as_secs_f64() / p50s[0].as_secs_f64();
    println!("  200k/4k p50 ratio: {ratio:.2}x (gate ≤{APPLY_GATE}x)");
    assert!(
        ratio <= APPLY_GATE,
        "Engine::apply p50 at 200k users must be within {APPLY_GATE}x of 4k users, measured {ratio:.2}x"
    );
}

criterion_group!(benches, bench_incremental_vs_rebuild, apply_vs_users);
criterion_main!(benches);
