//! One facility's served-point masks: a canonically ordered, structurally
//! shared row of a [`ServedTable`](super::ServedTable).
//!
//! A [`MaskRow`] holds `(trajectory, mask)` entries in **ascending
//! trajectory id** order — the accumulation order of
//! [`canonical_value`](crate::eval::canonical_value) — in chunks of at
//! most [`ROW_CHUNK`] entries, each one `Arc`'d allocation, under an
//! `Arc`'d spine. Cloning a row (or a whole table) copies one pointer; a
//! [`MaskRow::patch`] copies the spine and replaces only the chunks its
//! edits land in, so a table patched by an update batch shares every
//! untouched chunk with the epoch before it.
//!
//! The row also carries the fold state of its value: every entry's
//! individual service value, and per chunk the running sum after it. The
//! row value is that fold, the exact sequential `+=` over the entries that
//! `canonical_value` performs, so a patch never re-sorts and never
//! re-evaluates a trajectory it did not touch:
//!
//! * appending an entry (new trajectory ids are always the largest) folds
//!   one more value onto the tail — `value' = (value + v) + 0.0`;
//! * removing an entry re-folds the stored values from the touched chunk
//!   onward, starting from the running sum before it.
//!
//! Solvers and the snapshot encoder read rows in place through
//! [`MaskRow::iter`] / [`MaskRow::views`]: they are already canonical.

use crate::fasthash::FxHashMap;
use crate::service::{MaskView, PointMask, ServiceModel};
use std::sync::Arc;
use tq_trajectory::{Trajectory, TrajectoryId, UserSet};

/// Most entries per row chunk.
pub const ROW_CHUNK: usize = 256;

/// One entry of a [`MaskRow`]: a trajectory, its served-point mask and
/// that mask's individual service value (the row fold's summand).
#[derive(Debug, Clone)]
pub struct RowEntry {
    mask: PointMask,
    val: f64,
    id: TrajectoryId,
}

#[derive(Debug, Clone)]
struct ChunkRef {
    /// Between 1 and [`ROW_CHUNK`] entries, ascending by id.
    data: Arc<[RowEntry]>,
    /// The raw running sum after this chunk's last entry.
    fold: f64,
}

#[derive(Debug, Clone, Default)]
struct Spine {
    chunks: Vec<ChunkRef>,
    len: usize,
}

/// One edit of [`MaskRow::patch`].
#[derive(Debug, Clone)]
pub enum RowEdit {
    /// Appends trajectory `id`'s entry; `id` must exceed every id in the
    /// row (new trajectories always have the largest ids).
    Insert(TrajectoryId, PointMask),
    /// Drops trajectory `id`'s entry if present.
    Remove(TrajectoryId),
}

/// A facility's served-point masks in canonical order, with the canonical
/// value folded alongside (see the [module docs](self)). The default row
/// is empty, with value `+0.0`.
#[derive(Clone, Default)]
pub struct MaskRow(Arc<Spine>);

impl MaskRow {
    /// The row of a mask map. Sorts once; the value equals
    /// [`canonical_value`](crate::eval::canonical_value) of the map.
    pub fn from_map(
        users: &UserSet,
        model: &ServiceModel,
        map: FxHashMap<TrajectoryId, PointMask>,
    ) -> MaskRow {
        let mut entries: Vec<(TrajectoryId, PointMask)> = map.into_iter().collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        Self::from_sorted(users, model, entries)
    }

    /// The row of entries already in strictly ascending id order.
    pub fn from_sorted(
        users: &UserSet,
        model: &ServiceModel,
        entries: impl IntoIterator<Item = (TrajectoryId, PointMask)>,
    ) -> MaskRow {
        let mut b = RowBuilder::default();
        for (id, mask) in entries {
            b.push(users, model, id, mask);
        }
        b.finish()
    }

    /// Number of entries (users with at least one served point).
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Returns `true` when the row has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// The row value: `Σ S(u, f)` folded in ascending id order, then
    /// normalized with `+ 0.0` exactly as
    /// [`canonical_value`](crate::eval::canonical_value) does.
    #[inline]
    pub fn value(&self) -> f64 {
        self.raw() + 0.0
    }

    /// The raw fold: `-0.0` (the identity `f64::sum` folds from) when empty.
    fn raw(&self) -> f64 {
        self.0.chunks.last().map_or(-0.0, |c| c.fold)
    }

    /// Trajectory `id`'s mask, if the row has an entry for it.
    pub fn get(&self, id: &TrajectoryId) -> Option<&PointMask> {
        let (ci, pos) = self.find(*id)?;
        let e = self.0.chunks[ci].data.get(pos)?;
        (e.id == *id).then_some(&e.mask)
    }

    /// Iterates `(id, mask)` entries in ascending id order.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            chunks: self.0.chunks.iter(),
            entries: [].iter(),
        }
    }

    /// The entries' ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = TrajectoryId> + '_ {
        self.iter().map(|(id, _)| *id)
    }

    /// The entries as borrowed views, ascending — the form the
    /// [`Coverage`](super::Coverage) kernels stream.
    #[inline]
    pub fn views(&self) -> impl Iterator<Item = (TrajectoryId, MaskView<'_>)> + '_ {
        self.iter().map(|(id, m)| (*id, m.view()))
    }

    /// The row's chunks — for checking which chunks two row versions
    /// share (`Arc::ptr_eq`).
    pub fn chunks(&self) -> impl Iterator<Item = &Arc<[RowEntry]>> + '_ {
        self.0.chunks.iter().map(|c| &c.data)
    }

    /// Applies `edits` in order and re-folds the value; returns whether the
    /// entries changed. Copies the spine and replaces only the chunks an
    /// edit lands in (the batch's appends are written to the tail in one
    /// go); re-folds stored values from the first touched chunk onward.
    pub fn patch(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        edits: impl IntoIterator<Item = RowEdit>,
    ) -> bool {
        // The touched chunk range; indices only over-approximate the last
        // touched chunk after a removal drops an emptied chunk.
        let mut dirty: Option<(usize, usize)> = None;
        let mut touch = |ci: usize| {
            dirty = Some(dirty.map_or((ci, ci), |(lo, hi)| (lo.min(ci), hi.max(ci))));
        };
        let mut appended: Vec<RowEntry> = Vec::new();
        for edit in edits {
            match edit {
                RowEdit::Insert(id, mask) => {
                    let val = model.value(users.get(id), &mask);
                    appended.push(RowEntry { mask, val, id });
                }
                RowEdit::Remove(id) => {
                    if let Some(i) = appended.iter().position(|e| e.id == id) {
                        appended.remove(i);
                    } else if let Some(ci) = self.remove(id) {
                        touch(ci);
                    }
                }
            }
        }
        if !appended.is_empty() {
            touch(self.append(appended));
            touch(self.0.chunks.len() - 1);
        }
        let Some((from, last_touched)) = dirty else {
            return false;
        };
        let spine = Arc::make_mut(&mut self.0);
        let mut acc = if from == 0 {
            -0.0
        } else {
            spine.chunks[from - 1].fold
        };
        for (i, c) in spine.chunks.iter_mut().enumerate().skip(from) {
            for e in c.data.iter() {
                acc += e.val;
            }
            // Past the last touched chunk the summands are the old ones,
            // so once the running sum meets the stored one again (a
            // removed entry was worth zero) every later fold is unchanged.
            if i > last_touched && acc.to_bits() == c.fold.to_bits() {
                break;
            }
            c.fold = acc;
        }
        true
    }

    /// `(chunk, position)` where `id` is or would sort; `None` for an
    /// empty row.
    fn find(&self, id: TrajectoryId) -> Option<(usize, usize)> {
        let chunks = &self.0.chunks;
        if chunks.is_empty() {
            return None;
        }
        // The first chunk whose last id is ≥ id, else the last chunk.
        let ci = chunks
            .partition_point(|c| c.data.last().expect("chunks are non-empty").id < id)
            .min(chunks.len() - 1);
        let pos = chunks[ci].data.partition_point(|e| e.id < id);
        Some((ci, pos))
    }

    /// Appends `entries` (ascending) after the row's last entry, refilling
    /// the tail chunk and adding full ones; returns the first touched
    /// chunk.
    ///
    /// # Panics
    /// Panics unless every appended id exceeds every id in the row: rows
    /// gain only new trajectories, whose ids are always the largest.
    fn append(&mut self, entries: Vec<RowEntry>) -> usize {
        let spine = Arc::make_mut(&mut self.0);
        spine.len += entries.len();
        let mut tail: Vec<RowEntry> = Vec::new();
        let mut first = spine.chunks.len();
        if let Some(last) = spine.chunks.last() {
            let last_id = last.data[last.data.len() - 1].id;
            assert!(
                entries.iter().all(|e| e.id > last_id),
                "row edits insert only ids above every present one"
            );
            if last.data.len() < ROW_CHUNK {
                first -= 1;
                tail.extend(last.data.iter().cloned());
                spine.chunks.pop();
            }
        }
        tail.extend(entries);
        debug_assert!(tail.windows(2).all(|w| w[0].id < w[1].id));
        let mut rest = tail.into_iter();
        loop {
            let data: Arc<[RowEntry]> = rest.by_ref().take(ROW_CHUNK).collect();
            if data.is_empty() {
                break;
            }
            spine.chunks.push(ChunkRef { data, fold: 0.0 });
        }
        first
    }

    /// Removes one entry; returns the touched chunk, `None` when absent.
    fn remove(&mut self, id: TrajectoryId) -> Option<usize> {
        let (ci, pos) = self.find(id)?;
        if self.0.chunks[ci].data.get(pos).is_none_or(|e| e.id != id) {
            return None;
        }
        let spine = Arc::make_mut(&mut self.0);
        spine.len -= 1;
        let old = &spine.chunks[ci].data;
        if old.len() == 1 {
            spine.chunks.remove(ci);
        } else {
            let kept = old[..pos].iter().chain(&old[pos + 1..]).cloned();
            spine.chunks[ci].data = kept.collect();
        }
        Some(ci)
    }
}

/// Builds a [`MaskRow`] from entries pushed in strictly ascending id
/// order, folding the value as it goes.
pub(crate) struct RowBuilder {
    spine: Spine,
    /// The chunk being filled; moved into one `Arc` allocation when full.
    cur: Vec<RowEntry>,
    acc: f64,
}

impl Default for RowBuilder {
    fn default() -> RowBuilder {
        RowBuilder {
            spine: Spine::default(),
            cur: Vec::new(),
            acc: -0.0,
        }
    }
}

impl RowBuilder {
    /// Appends one entry; `id` must exceed every id pushed before.
    #[inline]
    pub(crate) fn push(
        &mut self,
        users: &UserSet,
        model: &ServiceModel,
        id: TrajectoryId,
        mask: PointMask,
    ) {
        self.push_for(users.get(id), model, id, mask);
    }

    /// [`RowBuilder::push`] with trajectory `id` already looked up.
    #[inline]
    pub(crate) fn push_for(
        &mut self,
        t: &Trajectory,
        model: &ServiceModel,
        id: TrajectoryId,
        mask: PointMask,
    ) {
        debug_assert!(self.cur.last().is_none_or(|last| last.id < id));
        let val = model.value(t, &mask);
        self.acc += val;
        if self.cur.capacity() == 0 {
            self.cur.reserve_exact(ROW_CHUNK);
        }
        self.cur.push(RowEntry { mask, val, id });
        if self.cur.len() == ROW_CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        self.spine.len += self.cur.len();
        self.spine.chunks.push(ChunkRef {
            data: self.cur.drain(..).collect(),
            fold: self.acc,
        });
    }

    pub(crate) fn finish(mut self) -> MaskRow {
        if !self.cur.is_empty() {
            self.flush();
        }
        MaskRow(Arc::new(self.spine))
    }
}

/// Iterator over a row's `(id, mask)` entries in ascending id order.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    chunks: std::slice::Iter<'a, ChunkRef>,
    entries: std::slice::Iter<'a, RowEntry>,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = (&'a TrajectoryId, &'a PointMask);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(e) = self.entries.next() {
                return Some((&e.id, &e.mask));
            }
            self.entries = self.chunks.next()?.data.iter();
        }
    }
}

impl<'a> IntoIterator for &'a MaskRow {
    type Item = (&'a TrajectoryId, &'a PointMask);
    type IntoIter = RowIter<'a>;
    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Rows are equal iff they hold the same `(id, mask)` entries; chunking,
/// sharing and the derived fold state do not matter.
impl PartialEq for MaskRow {
    fn eq(&self, other: &MaskRow) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for MaskRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}
