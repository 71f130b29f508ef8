//! Structural sharing across epochs: one update batch copies only what it
//! touches. After a batch, every row chunk, user chunk and TQ-tree node
//! chunk the batch did not touch is the **same allocation** in the new
//! epoch as in the previous one (`Arc::ptr_eq`), and the previous epoch
//! still answers exactly as before.

use std::collections::HashSet;
use std::sync::Arc;
use tq::core::maxcov::MaskRow;
use tq::prelude::*;

fn chunk_ptrs(row: &MaskRow) -> HashSet<*const ()> {
    row.chunks().map(|c| Arc::as_ptr(c) as *const ()).collect()
}

#[test]
fn one_batch_copies_only_the_chunks_it_touches() {
    let city = CityModel::synthetic(11, 6, 8_000.0);
    let users = taxi_trips(&city, 60_000, 5);
    let arrivals = taxi_trips(&city, 8, 6);
    let routes = bus_routes(&city, 48, 10, 2_500.0, 7);
    let model = ServiceModel::new(Scenario::Transit, 300.0);
    let mut engine = Engine::builder(model)
        .users(users)
        .facilities(routes.clone())
        .tree_config(TqTreeConfig::default().with_beta(4))
        .bounds(city.bounds.expand(10.0))
        .build()
        .unwrap();
    engine.warm();
    let before = engine.reader().snapshot();
    let want_before = before.run(Query::max_cov(4)).unwrap().cover().clone();

    // Four arrivals, four expiries spread over the id range.
    let removed: Vec<u32> = vec![3, 5_001, 12_345, 19_998];
    let mut batch: Vec<Update> = arrivals
        .trajectories()
        .take(4)
        .cloned()
        .map(Update::Insert)
        .collect();
    batch.extend(removed.iter().map(|&id| Update::Remove(id)));
    let outcome = engine.apply(&batch).unwrap();
    let after = engine.reader().snapshot();

    // Users: append-only, so every full chunk is shared.
    let (u0, u1) = (before.users(), after.users());
    assert_eq!(u1.len(), u0.len() + 4);
    for (i, c) in u0.full_chunks().iter().enumerate() {
        assert!(
            Arc::ptr_eq(c, &u1.full_chunks()[i]),
            "user chunk {i} was copied"
        );
    }

    // Tree: a batch of 8 events walks at most 8 root-to-leaf paths and
    // edits one node list per event; every other node chunk and list
    // item chunk is shared.
    let (t0, t1) = (before.tree().unwrap(), after.tree().unwrap());
    let height = t0.height().max(t1.height());
    let (c0, c1) = (t0.node_chunks(), t1.node_chunks());
    let copied = c1
        .iter()
        .enumerate()
        .filter(|(i, c)| c0.get(*i).is_none_or(|old| !Arc::ptr_eq(old, c)))
        .count();
    assert!(
        c1.len() > 20,
        "tree too small to tell ({} chunks)",
        c1.len()
    );
    assert!(
        copied <= 8 * height && 2 * copied < c1.len(),
        "{copied} of {} node chunks copied for 8 paths of height {height}",
        c1.len()
    );
    // Item chunks of the node lists: each event replaces the one chunk
    // it lands in (two when that chunk splits).
    let item_chunks = |t: &TqTree| -> HashSet<*const ()> {
        t.iter_nodes()
            .flat_map(|(_, n)| n.list.slices())
            .map(|s| s.as_ptr() as *const ())
            .collect()
    };
    let (i0, i1) = (item_chunks(t0), item_chunks(t1));
    let replaced = i1.difference(&i0).count();
    // Nodes created by a leaf split come with fresh lists.
    let old_live: HashSet<u32> = t0.iter_nodes().map(|(id, _)| id).collect();
    let fresh_lists: usize = t1
        .iter_nodes()
        .filter(|(id, _)| !old_live.contains(id))
        .map(|(_, n)| n.list.slices().count())
        .sum();
    assert!(
        i1.len() > 100,
        "lists too short to tell ({} item chunks)",
        i1.len()
    );
    assert!(
        replaced <= 16 + fresh_lists,
        "{replaced} of {} item chunks copied for 8 events",
        i1.len()
    );

    // Rows: an edit copies at most the one chunk it lands in; a row no
    // event landed in is shared whole.
    let (tab0, tab1) = (before.full_table().unwrap(), after.full_table().unwrap());
    let inserted: HashSet<u32> = outcome.inserted.iter().copied().collect();
    let mut shared_rows = 0;
    for (fi, (r0, r1)) in tab0.masks.iter().zip(&tab1.masks).enumerate() {
        let edits = inserted.iter().filter(|id| r1.get(id).is_some()).count()
            + removed.iter().filter(|id| r0.get(id).is_some()).count();
        let old = chunk_ptrs(r0);
        let fresh = r1
            .chunks()
            .filter(|c| !old.contains(&(Arc::as_ptr(c) as *const ())))
            .count();
        assert!(
            fresh <= edits,
            "facility {fi}: {fresh} chunks copied for {edits} edits"
        );
        if edits == 0 {
            assert_eq!(chunk_ptrs(r1), old, "facility {fi} untouched but copied");
            shared_rows += 1;
        }
    }
    assert!(
        shared_rows > 0,
        "no row was left untouched; choose sparser events"
    );
    assert!(
        tab0.masks.iter().map(|r| r.chunks().count()).sum::<usize>() > 2 * tab0.len(),
        "rows too short to span several chunks"
    );

    // The previous epoch is intact: it answers exactly as before.
    let again = before.run(Query::max_cov(4)).unwrap().cover().clone();
    assert_eq!(again.chosen, want_before.chosen);
    assert_eq!(again.value.to_bits(), want_before.value.to_bits());
    let fresh_before = ServedTable::build(t0, u0, &model, &routes);
    for (fi, row) in tab0.masks.iter().enumerate() {
        assert!(*row == fresh_before.masks[fi], "old epoch row {fi} changed");
        assert_eq!(tab0.values[fi].to_bits(), fresh_before.values[fi].to_bits());
    }
}
