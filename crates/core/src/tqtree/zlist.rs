//! Z-ordered trajectory lists ("z-nodes") and the `zReduce` pruning step.
//!
//! Inside every q-node the TQ(Z) index keeps its trajectory list sorted by
//! the pair *(start z-id, end z-id)* assigned by two [`ZPartition`]s over the
//! node's rectangle. `zReduce` (paper §IV, Example 4) then prunes the list
//! for a facility component in two phases: first the runs of items whose
//! start z-cell the component can reach, then a per-survivor check of the end
//! z-cell. Both phases are binary searches over the sorted list, never a
//! scan of the whole list.
//!
//! The sorted list is stored in `Arc`'d chunks (and the partitions behind
//! an `Arc`), so a copy of a list shares them all and an incremental
//! insert or removal replaces only the one chunk it lands in: editing the
//! large inter-node lists near the root of a big tree costs `O(chunk)`,
//! not `O(list)`.

use super::item::StoredItem;
use super::zpartition::ZPartition;
use std::sync::Arc;
use tq_geometry::{Point, Rect, ZId};

/// Target items per list chunk; a chunk splits in half past twice this.
const Z_CHUNK: usize = 128;

/// How `zReduce` may prune items, derived from the service scenario and the
/// index placement (see `DESIGN.md` §5 and `eval::EvalCtx::new`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceMode {
    /// Keep an item only when **both** its start and end z-cells are
    /// reachable. Exact for binary (Scenario 1) service of two-point items,
    /// where service requires both endpoints — the paper's two-step reduce.
    Both,
    /// Keep an item when **either** z-cell is reachable. Sound whenever the
    /// item's servable points are exactly its two anchors (two-point or
    /// segment items, any scenario; full items under Scenario 1).
    Either,
    /// Do not z-prune; the caller falls back to a per-item MBR test.
    /// Required for partial service of full-trajectory items, whose interior
    /// points are invisible to the anchor z-ids.
    Scan,
}

/// Reusable scratch buffers for [`ZList::z_reduce`] so the hot path never
/// allocates.
#[derive(Debug, Default)]
pub struct ReduceScratch {
    start_ranges: Vec<(ZId, ZId)>,
    end_ranges: Vec<(ZId, ZId)>,
}

/// A q-node's trajectory list in TQ(Z) form: items sorted along the Z-curve
/// with the two partitions that assigned the ids.
#[derive(Debug, Clone)]
pub struct ZList {
    /// The sorted items, in non-empty chunks of at most `2 * Z_CHUNK`.
    chunks: Vec<Arc<[StoredItem]>>,
    len: usize,
    /// The start- and end-point partitions.
    parts: Arc<(ZPartition, ZPartition)>,
}

/// A position in a [`ZList`]: `(chunk, offset)`, with `(chunks, 0)` the
/// end. Positions order like the items they point at.
type Pos = (usize, usize);

/// Splits sorted items into list chunks.
fn chunked(items: &[StoredItem]) -> Vec<Arc<[StoredItem]>> {
    items.chunks(Z_CHUNK).map(Arc::from).collect()
}

impl ZList {
    /// Builds the z-ordered list for `items` over the q-node rectangle
    /// `rect` with bucket size `beta`.
    pub fn build(rect: Rect, mut items: Vec<StoredItem>, beta: usize) -> ZList {
        let start_pts: Vec<Point> = items.iter().map(|i| i.start).collect();
        let (starts, start_ids) = ZPartition::build(rect, &start_pts, beta, None);
        for (item, z) in items.iter_mut().zip(&start_ids) {
            item.start_z = *z;
        }
        let end_pts: Vec<Point> = items.iter().map(|i| i.end).collect();
        let (ends, end_ids) = ZPartition::build(rect, &end_pts, beta, Some(&start_ids));
        for (item, z) in items.iter_mut().zip(&end_ids) {
            item.end_z = *z;
        }
        items.sort_unstable_by(|a, b| {
            (a.start_z, a.end_z, a.traj, a.seg).cmp(&(b.start_z, b.end_z, b.traj, b.seg))
        });
        Self::from_raw_parts(items, starts, ends)
    }

    /// The sorted items.
    #[inline]
    pub fn items(&self) -> impl Iterator<Item = &StoredItem> + '_ {
        self.slices().flatten()
    }

    /// The sorted items as consecutive slices (one per storage chunk).
    #[inline]
    pub fn slices(&self) -> impl Iterator<Item = &[StoredItem]> + '_ {
        self.chunks.iter().map(|c| &c[..])
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first position whose item fails `pred` (`pred` must hold on a
    /// prefix of the list) — `partition_point` over the chunks.
    fn partition_point(&self, pred: impl Fn(&StoredItem) -> bool) -> Pos {
        let ci = self
            .chunks
            .partition_point(|c| pred(c.last().expect("chunks are non-empty")));
        match self.chunks.get(ci) {
            Some(c) => (ci, c.partition_point(&pred)),
            None => (ci, 0),
        }
    }

    /// The items in `[from, to)`, as slices.
    fn range(&self, from: Pos, to: Pos) -> impl Iterator<Item = &[StoredItem]> + '_ {
        let end = if from < to {
            (to.0 + 1).min(self.chunks.len())
        } else {
            from.0
        };
        self.chunks[from.0.min(end)..end]
            .iter()
            .enumerate()
            .map(move |(i, c)| {
                let ci = from.0 + i;
                let lo = if ci == from.0 { from.1 } else { 0 };
                let hi = if ci == to.0 { to.1 } else { c.len() };
                &c[lo..hi]
            })
    }

    /// Inserts `item` at `pos`: the chunk it lands in is replaced by a
    /// copy with the item spliced in, split in half when over-full.
    fn insert_at(&mut self, pos: Pos, item: StoredItem) {
        self.len += 1;
        if self.chunks.is_empty() {
            self.chunks.push(Arc::from([item]));
            return;
        }
        let (ci, off) = if pos.0 == self.chunks.len() {
            let last = self.chunks.len() - 1;
            (last, self.chunks[last].len())
        } else {
            pos
        };
        let old = &self.chunks[ci];
        let spliced = old[..off].iter().chain([&item]).chain(&old[off..]).copied();
        if old.len() < 2 * Z_CHUNK {
            self.chunks[ci] = spliced.collect();
        } else {
            let all: Vec<StoredItem> = spliced.collect();
            self.chunks[ci] = Arc::from(&all[..Z_CHUNK]);
            self.chunks.insert(ci + 1, Arc::from(&all[Z_CHUNK..]));
        }
    }

    /// Removes the item at `pos`: its chunk is replaced by a copy without
    /// it, or dropped when emptied.
    fn remove_at(&mut self, (ci, off): Pos) {
        self.len -= 1;
        let old = &self.chunks[ci];
        if old.len() == 1 {
            self.chunks.remove(ci);
        } else {
            self.chunks[ci] = old[..off].iter().chain(&old[off + 1..]).copied().collect();
        }
    }

    /// Diagnostics: `(start partition leaves, end partition leaves)` — the
    /// z-node ("bucket") counts of the paper.
    pub fn bucket_counts(&self) -> (usize, usize) {
        (self.starts().leaf_count(), self.ends().leaf_count())
    }

    /// The start-point partition, for persistence.
    pub(crate) fn starts(&self) -> &ZPartition {
        &self.parts.0
    }

    /// The end-point partition, for persistence.
    pub(crate) fn ends(&self) -> &ZPartition {
        &self.parts.1
    }

    /// Reassembles a z-list from persisted parts — the items must already
    /// carry their z-ids and be in the sorted order [`ZList::build`]
    /// produces (the decoder verifies the sort; `TqTree::validate` checks
    /// it again on load).
    pub(crate) fn from_raw_parts(
        items: Vec<StoredItem>,
        starts: ZPartition,
        ends: ZPartition,
    ) -> ZList {
        ZList {
            len: items.len(),
            chunks: chunked(&items),
            parts: Arc::new((starts, ends)),
        }
    }

    /// Incremental insert: assigns z-ids from the *existing* partitions
    /// (the cells containing the item's anchors) and splices the item into
    /// the sorted list — `O(log n)` search plus a shift within one chunk.
    ///
    /// The partitions are not refined, so a cell may temporarily exceed β
    /// points; `zReduce` stays sound (coverage tests are purely geometric)
    /// and only marginally less selective until the node is next rebuilt.
    /// This matches the paper's `O(β)`-reassignment spirit without the
    /// bookkeeping.
    pub fn insert_item(&mut self, mut item: StoredItem) {
        item.start_z = self.starts().locate(&item.start);
        item.end_z = self.ends().locate(&item.end);
        let key = (item.start_z, item.end_z, item.traj, item.seg);
        let pos = self.partition_point(|x| (x.start_z, x.end_z, x.traj, x.seg) < key);
        self.insert_at(pos, item);
    }

    /// Incremental removal of the item with this identity. Returns `true`
    /// when found. `O(log n)` to find the sorted position, then a shift
    /// within one chunk.
    pub fn remove_item(&mut self, traj: u32, seg: u32, start: &Point, end: &Point) -> bool {
        if let Some(pos) = self.position(traj, seg, start, end) {
            self.remove_at(pos);
            return true;
        }
        // The item may have been bulk-built with different (finer) partition
        // state than `locate` reproduces — fall back to a linear search by
        // identity before reporting absence.
        let found = self.chunks.iter().enumerate().find_map(|(ci, c)| {
            let off = c.iter().position(|x| x.traj == traj && x.seg == seg)?;
            Some((ci, off))
        });
        match found {
            Some(pos) => {
                self.remove_at(pos);
                true
            }
            None => false,
        }
    }

    /// Where the item with this identity and these anchors sits, found by
    /// its sort key in `O(log n)`; `None` when the key search misses
    /// (see [`ZList::remove_item`] for the one case it can).
    fn position(&self, traj: u32, seg: u32, start: &Point, end: &Point) -> Option<Pos> {
        let key = (self.starts().locate(start), self.ends().locate(end), traj, seg);
        let pos = self.partition_point(|x| (x.start_z, x.end_z, x.traj, x.seg) < key);
        let x = self.chunks.get(pos.0).map(|c| &c[pos.1])?;
        ((x.start_z, x.end_z, x.traj, x.seg) == key).then_some(pos)
    }

    /// Whether the list holds the item with this identity, by its sort
    /// key (`O(log n)`; may miss where [`ZList::remove_item`] falls back
    /// to a scan).
    pub(crate) fn holds(&self, traj: u32, seg: u32, start: &Point, end: &Point) -> bool {
        self.position(traj, seg, start, end).is_some()
    }

    /// The two-phase `zReduce` of the paper: visits the indices of items
    /// that survive pruning for a facility component (`stops`, threshold
    /// `psi`), in list order.
    ///
    /// Returns the number of items *pruned* (for instrumentation). With
    /// [`ReduceMode::Scan`] the list is filtered only by an O(1) per-item
    /// rectangle test against the component's EMBR (sound for any item: a
    /// servable point lies within ψ of a stop, hence inside the EMBR).
    pub fn z_reduce<F: FnMut(&StoredItem)>(
        &self,
        stops: &[Point],
        psi: f64,
        mode: ReduceMode,
        scratch: &mut ReduceScratch,
        mut visit: F,
    ) -> usize {
        if self.is_empty() || stops.is_empty() {
            return self.len;
        }
        let comp_embr = Rect::bounding(stops.iter())
            .expect("non-empty stops")
            .expand(psi);
        if mode == ReduceMode::Scan {
            let mut visited = 0usize;
            for items in self.slices() {
                for it in items {
                    if comp_embr.intersects(&it.mbr) {
                        visited += 1;
                        visit(it);
                    }
                }
            }
            return self.len - visited;
        }
        self.starts()
            .covered_ranges(stops, psi, &mut scratch.start_ranges);
        self.ends().covered_ranges(stops, psi, &mut scratch.end_ranges);
        let mut visited = 0usize;
        match mode {
            ReduceMode::Both => {
                // Phase 1: contiguous runs of covered start z-ids.
                for &(lo, hi) in &scratch.start_ranges {
                    let from = self.partition_point(|it| it.start_z < lo);
                    let to = self.partition_point(|it| it.start_z <= hi);
                    // Phase 2: per-survivor end z-id check.
                    for items in self.range(from, to) {
                        for it in items {
                            if ZPartition::ranges_cover(&scratch.end_ranges, &it.end_z) {
                                visited += 1;
                                visit(it);
                            }
                        }
                    }
                }
            }
            ReduceMode::Either => {
                // Visit covered-start runs; outside them, rescue items whose
                // end could still be reachable — a cheap O(1) rectangle test
                // first, the end z-id binary search only for survivors. Runs
                // are disjoint and sorted, so we walk the gaps between them.
                let rescue = |it: &StoredItem, visited: &mut usize, visit: &mut F| {
                    if comp_embr.intersects(&it.mbr)
                        && ZPartition::ranges_cover(&scratch.end_ranges, &it.end_z)
                    {
                        *visited += 1;
                        visit(it);
                    }
                };
                let mut cursor: Pos = (0, 0);
                for &(lo, hi) in &scratch.start_ranges {
                    let from = self.partition_point(|it| it.start_z < lo);
                    let to = self.partition_point(|it| it.start_z <= hi);
                    for items in self.range(cursor.min(from), from) {
                        for it in items {
                            rescue(it, &mut visited, &mut visit);
                        }
                    }
                    for items in self.range(from, to) {
                        for it in items {
                            visited += 1;
                            visit(it);
                        }
                    }
                    cursor = cursor.max(to);
                }
                for items in self.range(cursor, (self.chunks.len(), 0)) {
                    for it in items {
                        rescue(it, &mut visited, &mut visit);
                    }
                }
            }
            ReduceMode::Scan => unreachable!(),
        }
        self.len - visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn unit() -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    fn random_items(n: usize, seed: u64) -> Vec<StoredItem> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let s = Point::new(rng.gen(), rng.gen());
                let e = Point::new(rng.gen(), rng.gen());
                StoredItem {
                    traj: i as u32,
                    seg: u32::MAX,
                    start: s,
                    end: e,
                    mbr: Rect::new(s, e),
                    start_z: ZId::root(),
                    end_z: ZId::root(),
                }
            })
            .collect()
    }

    #[test]
    fn chunked_edits_keep_the_list_sorted_and_shared() {
        let all = random_items(1200, 21);
        let mut zl = ZList::build(unit(), all[..300].to_vec(), 8);
        let base = zl.clone();
        let mut want: Vec<(u32, u32)> = all[..300].iter().map(|i| (i.traj, i.seg)).collect();
        // Inserts split chunks; removals drop emptied ones.
        for it in &all[300..] {
            zl.insert_item(*it);
            want.push((it.traj, it.seg));
        }
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..900 {
            let k = rng.gen_range(0..want.len());
            let (traj, seg) = want.swap_remove(k);
            let it = &all[traj as usize];
            assert!(zl.remove_item(traj, seg, &it.start, &it.end));
            assert!(!zl.remove_item(traj, seg, &it.start, &it.end));
        }
        assert_eq!(zl.len(), want.len());
        assert_eq!(zl.items().count(), want.len());
        assert!(zl.slices().all(|s| !s.is_empty() && s.len() <= 2 * Z_CHUNK));
        assert!(zl
            .items()
            .zip(zl.items().skip(1))
            .all(|(a, b)| (a.start_z, a.end_z, a.traj) < (b.start_z, b.end_z, b.traj)));
        let mut got: Vec<(u32, u32)> = zl.items().map(|i| (i.traj, i.seg)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        // The copy taken before the edits is untouched by them.
        assert_eq!(base.len(), 300);
        assert!(base.items().map(|i| i.traj).eq(ZList::build(unit(), all[..300].to_vec(), 8)
            .items()
            .map(|i| i.traj)));
    }

    #[test]
    fn build_sorts_by_zid_pair() {
        let zl = ZList::build(unit(), random_items(200, 1), 8);
        assert!(zl
            .items()
            .zip(zl.items().skip(1))
            .all(|(a, b)| (a.start_z, a.end_z) <= (b.start_z, b.end_z)));
        assert_eq!(zl.len(), 200);
    }

    #[test]
    fn assigned_ids_locate_points() {
        let zl = ZList::build(unit(), random_items(100, 2), 4);
        for it in zl.items() {
            assert!(it.start_z.cell(&unit()).contains(&it.start));
            assert!(it.end_z.cell(&unit()).contains(&it.end));
        }
    }

    /// Brute-force reference: which items would an exhaustive scan keep?
    fn reference_keep(
        items: &[StoredItem],
        stops: &[Point],
        psi: f64,
        both: bool,
    ) -> Vec<u32> {
        let reach = |p: &Point| stops.iter().any(|s| s.within(p, psi));
        items
            .iter()
            .filter(|it| {
                if both {
                    reach(&it.start) && reach(&it.end)
                } else {
                    reach(&it.start) || reach(&it.end)
                }
            })
            .map(|it| it.traj)
            .collect()
    }

    #[test]
    fn both_mode_never_prunes_servable_items() {
        let mut rng = StdRng::seed_from_u64(3);
        let items = random_items(500, 4);
        let zl = ZList::build(unit(), items.clone(), 8);
        let mut scratch = ReduceScratch::default();
        for _ in 0..20 {
            let stops: Vec<Point> = (0..3)
                .map(|_| Point::new(rng.gen(), rng.gen()))
                .collect();
            let psi = rng.gen_range(0.01..0.2);
            let mut kept = Vec::new();
            zl.z_reduce(&stops, psi, ReduceMode::Both, &mut scratch, |it| {
                kept.push(it.traj)
            });
            let must_keep = reference_keep(&items, &stops, psi, true);
            for t in must_keep {
                assert!(kept.contains(&t), "Both-mode pruned servable item {t}");
            }
        }
    }

    #[test]
    fn either_mode_never_prunes_partially_servable_items() {
        let mut rng = StdRng::seed_from_u64(5);
        let items = random_items(500, 6);
        let zl = ZList::build(unit(), items.clone(), 8);
        let mut scratch = ReduceScratch::default();
        for _ in 0..20 {
            let stops: Vec<Point> = (0..3)
                .map(|_| Point::new(rng.gen(), rng.gen()))
                .collect();
            let psi = rng.gen_range(0.01..0.2);
            let mut kept = Vec::new();
            zl.z_reduce(&stops, psi, ReduceMode::Either, &mut scratch, |it| {
                kept.push(it.traj)
            });
            let must_keep = reference_keep(&items, &stops, psi, false);
            for t in must_keep {
                assert!(kept.contains(&t), "Either-mode pruned servable item {t}");
            }
        }
    }

    #[test]
    fn reduce_actually_prunes() {
        // A tight facility in one corner should prune most of a scattered
        // list.
        let items = random_items(1000, 7);
        let zl = ZList::build(unit(), items, 16);
        let mut scratch = ReduceScratch::default();
        let stops = [Point::new(0.1, 0.1)];
        let mut kept = 0usize;
        let pruned = zl.z_reduce(&stops, 0.05, ReduceMode::Both, &mut scratch, |_| kept += 1);
        assert_eq!(kept + pruned, 1000);
        assert!(
            pruned > 900,
            "expected heavy pruning, only pruned {pruned} of 1000"
        );
    }

    #[test]
    fn either_visits_each_item_at_most_once() {
        let items = random_items(300, 8);
        let zl = ZList::build(unit(), items, 8);
        let mut scratch = ReduceScratch::default();
        let stops = [Point::new(0.5, 0.5), Point::new(0.2, 0.8)];
        let mut seen = std::collections::HashSet::new();
        zl.z_reduce(&stops, 0.3, ReduceMode::Either, &mut scratch, |it| {
            assert!(seen.insert(it.traj), "item {} visited twice", it.traj);
        });
    }

    #[test]
    fn scan_mode_visits_everything_in_reach() {
        let items = random_items(50, 9);
        let zl = ZList::build(unit(), items, 8);
        let mut scratch = ReduceScratch::default();
        // A stop whose EMBR covers the whole unit square → nothing pruned.
        let mut count = 0;
        let pruned = zl.z_reduce(
            &[Point::new(0.5, 0.5)],
            2.0,
            ReduceMode::Scan,
            &mut scratch,
            |_| count += 1,
        );
        assert_eq!(count, 50);
        assert_eq!(pruned, 0);
        // No stops → everything pruned.
        let mut count = 0;
        let pruned = zl.z_reduce(&[], 0.1, ReduceMode::Scan, &mut scratch, |_| count += 1);
        assert_eq!(count, 0);
        assert_eq!(pruned, 50);
        // A far-away tight stop prunes by the EMBR rectangle test.
        let mut count = 0;
        let pruned = zl.z_reduce(
            &[Point::new(10.0, 10.0)],
            0.01,
            ReduceMode::Scan,
            &mut scratch,
            |_| count += 1,
        );
        assert_eq!(count, 0);
        assert_eq!(pruned, 50);
    }

    #[test]
    fn empty_list_is_noop() {
        let zl = ZList::build(unit(), vec![], 8);
        let mut scratch = ReduceScratch::default();
        let mut count = 0;
        zl.z_reduce(
            &[Point::new(0.5, 0.5)],
            0.5,
            ReduceMode::Both,
            &mut scratch,
            |_| count += 1,
        );
        assert_eq!(count, 0);
        assert!(zl.is_empty());
    }

    #[test]
    fn no_stops_prunes_everything_in_both_mode() {
        let items = random_items(100, 10);
        let zl = ZList::build(unit(), items, 8);
        let mut scratch = ReduceScratch::default();
        let mut count = 0;
        let pruned = zl.z_reduce(&[], 0.5, ReduceMode::Both, &mut scratch, |_| count += 1);
        assert_eq!(count, 0);
        assert_eq!(pruned, 100);
    }
}
