//! Patched table rows keep canonical values: after any sequence of
//! inserts and removals, a [`MaskRow`]'s value is bit-equal to
//! `canonical_value` over the same entries and to the value of a row (or a
//! whole `ServedTable`) built from scratch — under every scenario,
//! including insert-only batches (the appending fold) and rows emptied by
//! removals (`+0.0`, never `-0.0`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use tq::core::canonical_value;
use tq::core::fasthash::FxHashMap;
use tq::core::maxcov::{MaskRow, RowEdit, ROW_CHUNK};
use tq::prelude::*;

fn users(rng: &mut StdRng, n: usize) -> UserSet {
    (0..n)
        .map(|_| {
            let len = rng.gen_range(2..7usize);
            Trajectory::new(
                (0..len)
                    .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
                    .collect(),
            )
        })
        .collect()
}

/// A random mask for `t`; about one in five sets a single interior or
/// end point only, so Transit rows also hold zero-valued entries.
fn mask(rng: &mut StdRng, t: &Trajectory) -> PointMask {
    let mut m = PointMask::empty(t.len());
    if rng.gen_range(0..5) == 0 {
        m.set(rng.gen_range(0..t.len()));
    } else {
        for i in 0..t.len() {
            if rng.gen_bool(0.6) {
                m.set(i);
            }
        }
    }
    m
}

fn as_map(entries: &BTreeMap<u32, PointMask>) -> FxHashMap<u32, PointMask> {
    entries.iter().map(|(id, m)| (*id, m.clone())).collect()
}

fn check(
    row: &MaskRow,
    want: &BTreeMap<u32, PointMask>,
    users: &UserSet,
    model: &ServiceModel,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(row.len(), want.len());
    prop_assert!(row
        .iter()
        .map(|(id, m)| (*id, m))
        .eq(want.iter().map(|(id, m)| (*id, m))));
    let canonical = canonical_value(users, model, &as_map(want));
    prop_assert_eq!(row.value().to_bits(), canonical.to_bits());
    let fresh = MaskRow::from_map(users, model, as_map(want));
    prop_assert_eq!(row.value().to_bits(), fresh.value().to_bits());
    prop_assert!(*row == fresh);
    if want.is_empty() {
        prop_assert_eq!(row.value().to_bits(), 0.0f64.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random batches against a sorted-map model: insert-only batches of
    /// fresh (largest) ids, mixed batches of appends and removals of
    /// present and absent ids, and removal-heavy batches that empty the
    /// row.
    #[test]
    fn patched_row_values_are_canonical(seed in 0u64..10_000, scenario_i in 0u8..3) {
        let scenario = Scenario::ALL[scenario_i as usize];
        let model = ServiceModel::new(scenario, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3 * ROW_CHUNK + rng.gen_range(0..ROW_CHUNK);
        let users = users(&mut rng, 2 * n);
        // Ids below `n` start out half present; ids from `n` up arrive in
        // order, like new trajectories do.
        let mut want: BTreeMap<u32, PointMask> = BTreeMap::new();
        for id in 0..n as u32 {
            if rng.gen_bool(0.5) {
                want.insert(id, mask(&mut rng, users.get(id)));
            }
        }
        let mut row = MaskRow::from_sorted(&users, &model, want.clone());
        check(&row, &want, &users, &model)?;
        let mut next = n as u32;
        for batch in 0..12 {
            let want_before = want.clone();
            let mut edits = Vec::new();
            match batch % 4 {
                // Insert-only: appends, the `(value + v) + 0.0` fold.
                0 => {
                    for _ in 0..rng.gen_range(1..40) {
                        if next as usize == users.len() {
                            break;
                        }
                        let m = mask(&mut rng, users.get(next));
                        want.insert(next, m.clone());
                        edits.push(RowEdit::Insert(next, m));
                        next += 1;
                    }
                }
                // Removal-heavy; the last one empties the row.
                3 => {
                    let keep = if batch == 11 { 0 } else { want.len() / 4 };
                    let ids: Vec<u32> = want.keys().copied().collect();
                    for id in ids.into_iter().skip(keep) {
                        if rng.gen_bool(0.9) || batch == 11 {
                            want.remove(&id);
                            edits.push(RowEdit::Remove(id));
                        }
                    }
                }
                // Mixed: appends, and removals of present and absent ids
                // (an appended id may be removed in the same batch).
                _ => {
                    for _ in 0..rng.gen_range(1..60) {
                        if rng.gen_bool(0.4) && (next as usize) < users.len() {
                            let m = mask(&mut rng, users.get(next));
                            want.insert(next, m.clone());
                            edits.push(RowEdit::Insert(next, m));
                            next += 1;
                        } else {
                            let id = rng.gen_range(0..next);
                            want.remove(&id);
                            edits.push(RowEdit::Remove(id));
                        }
                    }
                }
            }
            let (before, before_want) = (row.clone(), want_before);
            row.patch(&users, &model, edits);
            check(&row, &want, &users, &model)?;
            // The version the patch copied from is untouched by it.
            check(&before, &before_want, &users, &model)?;
        }
        prop_assert!(row.is_empty());
    }

    /// Engine batches maintain the memoized full table: every row's value
    /// is bit-equal to `canonical_value` of its entries and to a fresh
    /// `ServedTable::build` over the engine's current index — including
    /// insert-only batches and, at the end, rows emptied by removals.
    #[test]
    fn engine_table_rows_match_a_fresh_build(seed in 0u64..10_000, scenario_i in 0u8..3) {
        let scenario = Scenario::ALL[scenario_i as usize];
        let model = ServiceModel::new(scenario, 250.0);
        let city = CityModel::synthetic(3 + seed, 5, 6_000.0);
        let initial = gps_traces(&city, 700, seed);
        let arrivals = gps_traces(&city, 400, seed ^ 0xA11);
        let routes = bus_routes(&city, 12, 8, 2_000.0, seed ^ 0xB05);
        let placement = [Placement::TwoPoint, Placement::Segmented, Placement::FullTrajectory]
            [seed as usize % 3];
        let mut engine = Engine::builder(model)
            .users(initial)
            .facilities(routes.clone())
            .tree_config(TqTreeConfig::z_order(placement).with_beta(16))
            .bounds(city.bounds.expand(10.0))
            .rebuild_fraction(1.0)
            .build()
            .unwrap();
        engine.warm();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: Vec<u32> = (0..700).collect();
        let mut arrived = 0u32;
        let mut batches: Vec<Vec<Update>> = Vec::new();
        for b in 0..8 {
            let mut batch = Vec::new();
            for _ in 0..25 {
                let insert = b % 3 == 0 || rng.gen_bool(0.5);
                if insert && (arrived as usize) < arrivals.len() {
                    batch.push(Update::Insert(arrivals.get(arrived).clone()));
                    arrived += 1;
                } else if !insert && !live.is_empty() {
                    let i = rng.gen_range(0..live.len());
                    batch.push(Update::Remove(live.swap_remove(i)));
                }
            }
            batches.push(batch);
        }
        // Then expire everything: every row ends empty.
        let mut everyone: Vec<u32> = live.clone();
        everyone.extend(700..700 + arrived);
        for chunk in everyone.chunks(150) {
            batches.push(chunk.iter().map(|&id| Update::Remove(id)).collect());
        }
        for batch in &batches {
            engine.apply(batch).unwrap();
            let snap = engine.reader().snapshot();
            let table = snap.full_table().expect("warmed table is maintained");
            let tree = snap.tree().expect("tq-tree backend");
            let fresh = ServedTable::build(tree, snap.users(), &model, &routes);
            for (fi, row) in table.masks.iter().enumerate() {
                let map: FxHashMap<u32, PointMask> =
                    row.iter().map(|(id, m)| (*id, m.clone())).collect();
                let canonical = canonical_value(snap.users(), &model, &map);
                prop_assert_eq!(table.values[fi].to_bits(), canonical.to_bits());
                prop_assert_eq!(row.value().to_bits(), canonical.to_bits());
                prop_assert_eq!(table.values[fi].to_bits(), fresh.values[fi].to_bits());
                // Entries may differ only in zero-valued masks: the tree's
                // z-pruning can skip a user no anchor of which is served,
                // while a patch records every served point.
                let users = snap.users();
                let valued = |r: &MaskRow| -> Vec<(u32, PointMask)> {
                    r.iter()
                        .filter(|(id, m)| model.value(users.get(**id), m) != 0.0)
                        .map(|(id, m)| (*id, m.clone()))
                        .collect()
                };
                prop_assert!(valued(row) == valued(&fresh.masks[fi]), "facility {} entries", fi);
            }
        }
        let table = engine.full_table().unwrap();
        prop_assert!(table.masks.iter().all(MaskRow::is_empty));
        prop_assert!(table.values.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
    }
}
