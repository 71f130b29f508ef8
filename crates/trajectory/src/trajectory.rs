use std::sync::Arc;
use tq_geometry::{Point, Rect};

/// Identifier of a user trajectory: its index in the owning [`UserSet`].
pub type TrajectoryId = u32;

/// A reference to one segment (consecutive point pair) of a user trajectory.
///
/// The segmented TQ-tree variant indexes these instead of whole trajectories;
/// `seg` is the index of the segment's first point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentRef {
    /// The owning trajectory.
    pub traj: TrajectoryId,
    /// Index of the segment within the trajectory (`0..points.len()-1`).
    pub seg: u32,
}

/// A user trajectory: an ordered sequence of visited point locations.
///
/// For two-point data (taxi trips) the sequence is `[source, destination]`;
/// multipoint data (check-ins, GPS traces) may have arbitrarily many points.
#[derive(Debug, Clone)]
pub struct Trajectory {
    points: Vec<Point>,
    /// Lazily cached segment lengths + total. Service evaluation touches
    /// these on every mask fold, so they are computed once per trajectory
    /// instead of a sqrt per call — but only on first use: snapshot
    /// recovery decodes millions of trajectories and must not pay a
    /// distance pass on the cold-start path.
    lengths: std::sync::OnceLock<Lengths>,
}

/// The computed length cache: per-segment distances and their sum.
#[derive(Debug, Clone)]
struct Lengths {
    seg: Box<[f64]>,
    /// `Σ seg`, folded in ascending segment order — the exact sum the
    /// on-demand `length()` produced, so cached values stay bit-identical.
    total: f64,
}

/// Trajectories are equal iff their points are: the length cache is a
/// pure function of the points and must not affect equality.
impl PartialEq for Trajectory {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
    }
}

impl Trajectory {
    /// Creates a trajectory from its points.
    ///
    /// # Panics
    /// Panics when fewer than two points are supplied or any coordinate is
    /// non-finite — a trajectory is a movement, not a location.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(points.len() >= 2, "a trajectory needs at least two points");
        assert!(
            points.iter().all(Point::is_finite),
            "trajectory coordinates must be finite"
        );
        Trajectory {
            points,
            lengths: std::sync::OnceLock::new(),
        }
    }

    #[inline]
    fn lengths(&self) -> &Lengths {
        self.lengths.get_or_init(|| {
            let seg: Box<[f64]> = self.points.windows(2).map(|w| w[0].dist(&w[1])).collect();
            let total = seg.iter().sum();
            Lengths { seg, total }
        })
    }

    /// Convenience constructor for two-point (source → destination) trips.
    pub fn two_point(source: Point, destination: Point) -> Self {
        Trajectory::new(vec![source, destination])
    }

    /// The ordered points.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of points, `|u|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always `false` (a trajectory has ≥ 2 points); present to satisfy the
    /// `len`/`is_empty` convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The source (first) point.
    #[inline]
    pub fn source(&self) -> Point {
        self.points[0]
    }

    /// The destination (last) point.
    #[inline]
    pub fn destination(&self) -> Point {
        *self.points.last().expect("non-empty by construction")
    }

    /// Number of segments, `|u| - 1`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.points.len() - 1
    }

    /// The endpoints of segment `seg`.
    #[inline]
    pub fn segment(&self, seg: usize) -> (Point, Point) {
        (self.points[seg], self.points[seg + 1])
    }

    /// Length of segment `seg` (cached on first use).
    #[inline]
    pub fn segment_length(&self, seg: usize) -> f64 {
        self.lengths().seg[seg]
    }

    /// All segment lengths, indexed by segment (cached on first use).
    /// Hot loops should fetch this once and index the slice rather than
    /// calling [`Trajectory::segment_length`] per segment.
    #[inline]
    pub fn segment_lengths(&self) -> &[f64] {
        &self.lengths().seg
    }

    /// Total path length, `length(u)` — the sum of segment lengths
    /// (cached on first use).
    #[inline]
    pub fn length(&self) -> f64 {
        self.lengths().total
    }

    /// Minimum bounding rectangle of all points.
    pub fn mbr(&self) -> Rect {
        Rect::bounding(self.points.iter()).expect("non-empty by construction")
    }
}

/// An indexed collection of user trajectories.
///
/// Trajectory ids are dense indices into this set; every index structure in
/// the workspace refers to trajectories through their [`TrajectoryId`].
///
/// The set is **append-only and structurally shared**: trajectories live in
/// immutable full chunks of [`USER_CHUNK`] behind `Arc`s plus one shared,
/// partially filled tail chunk, so cloning a set copies one pointer per
/// chunk, and a [`UserSet::push`] on a clone copies at most the tail —
/// every full chunk stays the same allocation in both sets. An engine publishing a new epoch per
/// update batch therefore pays `O(batch)` for its user set, not `O(|U|)`.
/// Removal is not a set operation: owners keep removed trajectories as
/// id-stable tombstones.
#[derive(Clone, Default)]
pub struct UserSet {
    /// Full chunks of exactly [`USER_CHUNK`] trajectories. A lookup is one
    /// load of the chunk's fat pointer, then the trajectory itself.
    full: Vec<Arc<[Trajectory]>>,
    /// The last `len % USER_CHUNK` trajectories.
    tail: Arc<Vec<Trajectory>>,
    len: usize,
}

/// Trajectories per [`UserSet`] chunk (a power of two, so a lookup is a
/// shift and a mask).
pub const USER_CHUNK: usize = 1 << USER_CHUNK_BITS;
const USER_CHUNK_BITS: u32 = 10;

impl UserSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from trajectories, assigning ids by position.
    pub fn from_vec(mut trajectories: Vec<Trajectory>) -> Self {
        let len = trajectories.len();
        let tail_len = len % USER_CHUNK;
        let mut tail = Vec::with_capacity(USER_CHUNK);
        tail.extend(trajectories.drain(len - tail_len..));
        let mut full = Vec::with_capacity(len / USER_CHUNK);
        let mut rest = trajectories.into_iter();
        for _ in 0..len / USER_CHUNK {
            full.push(rest.by_ref().take(USER_CHUNK).collect());
        }
        UserSet {
            full,
            tail: Arc::new(tail),
            len,
        }
    }

    /// Adds a trajectory, returning its id.
    pub fn push(&mut self, t: Trajectory) -> TrajectoryId {
        let id = self.len as TrajectoryId;
        // Copy-on-write of the shared tail only: a clone of this set keeps
        // the old tail, every full chunk stays shared.
        if Arc::get_mut(&mut self.tail).is_none() {
            let mut own = Vec::with_capacity(USER_CHUNK);
            own.extend(self.tail.iter().cloned());
            self.tail = Arc::new(own);
        }
        let tail = Arc::get_mut(&mut self.tail).expect("tail made unique");
        tail.push(t);
        if tail.len() == USER_CHUNK {
            let full = std::mem::replace(tail, Vec::with_capacity(USER_CHUNK));
            self.full.push(Arc::from(full));
        }
        self.len += 1;
        id
    }

    /// Number of trajectories, `|U|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the set holds no trajectories.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The trajectory with id `id`.
    #[inline]
    pub fn get(&self, id: TrajectoryId) -> &Trajectory {
        let i = id as usize;
        match self.full.get(i >> USER_CHUNK_BITS) {
            Some(chunk) => &chunk[i & (USER_CHUNK - 1)],
            None => &self.tail[i & (USER_CHUNK - 1)],
        }
    }

    /// Iterates `(id, trajectory)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TrajectoryId, &Trajectory)> {
        self.trajectories()
            .enumerate()
            .map(|(i, t)| (i as TrajectoryId, t))
    }

    /// Iterates the trajectories in id order.
    pub fn trajectories(&self) -> impl Iterator<Item = &Trajectory> {
        self.full.iter().flat_map(|c| c.iter()).chain(self.tail.iter())
    }

    /// The full storage chunks, in id order (chunk `i` holds ids
    /// `i * USER_CHUNK ..`). Two sets sharing history share chunk
    /// allocations; `Arc::ptr_eq` on these tells which.
    pub fn full_chunks(&self) -> &[Arc<[Trajectory]>] {
        &self.full
    }

    /// Minimum bounding rectangle of the whole set, or `None` when empty.
    pub fn mbr(&self) -> Option<Rect> {
        let mut it = self.trajectories();
        let mut r = it.next()?.mbr();
        for t in it {
            r = r.union(&t.mbr());
        }
        Some(r)
    }

    /// Total number of points across all trajectories.
    pub fn total_points(&self) -> usize {
        self.trajectories().map(Trajectory::len).sum()
    }

    /// Total number of segments across all trajectories
    /// (`Σ_u |u| - 1`, the storage bound of the segmented TQ-tree).
    pub fn total_segments(&self) -> usize {
        self.trajectories().map(Trajectory::num_segments).sum()
    }

    /// A truncated copy containing only the first `n` trajectories
    /// (used by the user-count parameter sweeps).
    pub fn truncated(&self, n: usize) -> UserSet {
        let mut out = UserSet::new();
        out.extend(self.trajectories().take(n).cloned());
        out
    }
}

impl Extend<Trajectory> for UserSet {
    fn extend<I: IntoIterator<Item = Trajectory>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

impl FromIterator<Trajectory> for UserSet {
    fn from_iter<I: IntoIterator<Item = Trajectory>>(iter: I) -> Self {
        let mut set = UserSet::new();
        set.extend(iter);
        set
    }
}

/// Sets are equal iff they hold equal trajectories in the same id order;
/// how they are chunked and shared does not matter.
impl PartialEq for UserSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.trajectories().eq(other.trajectories())
    }
}

impl std::fmt::Debug for UserSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.trajectories()).finish()
    }
}

impl std::ops::Index<TrajectoryId> for UserSet {
    type Output = Trajectory;
    #[inline]
    fn index(&self, id: TrajectoryId) -> &Trajectory {
        self.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn two_point_accessors() {
        let t = Trajectory::two_point(p(0.0, 0.0), p(3.0, 4.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.num_segments(), 1);
        assert_eq!(t.source(), p(0.0, 0.0));
        assert_eq!(t.destination(), p(3.0, 4.0));
        assert_eq!(t.length(), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn single_point_rejected() {
        Trajectory::new(vec![p(0.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_rejected() {
        Trajectory::new(vec![p(0.0, 0.0), p(f64::NAN, 1.0)]);
    }

    #[test]
    fn multipoint_segments_and_length() {
        let t = Trajectory::new(vec![p(0.0, 0.0), p(3.0, 4.0), p(3.0, 10.0)]);
        assert_eq!(t.num_segments(), 2);
        assert_eq!(t.segment(0), (p(0.0, 0.0), p(3.0, 4.0)));
        assert_eq!(t.segment(1), (p(3.0, 4.0), p(3.0, 10.0)));
        assert_eq!(t.length(), 11.0);
        assert_eq!(t.segment_length(1), 6.0);
    }

    #[test]
    fn mbr_covers_all_points() {
        let t = Trajectory::new(vec![p(1.0, 5.0), p(-2.0, 0.5), p(4.0, 2.0)]);
        let r = t.mbr();
        for pt in t.points() {
            assert!(r.contains(pt));
        }
        assert_eq!(r.min, p(-2.0, 0.5));
        assert_eq!(r.max, p(4.0, 5.0));
    }

    #[test]
    fn user_set_ids_are_dense() {
        let mut u = UserSet::new();
        assert!(u.is_empty());
        let a = u.push(Trajectory::two_point(p(0.0, 0.0), p(1.0, 1.0)));
        let b = u.push(Trajectory::two_point(p(2.0, 2.0), p(3.0, 3.0)));
        assert_eq!((a, b), (0, 1));
        assert_eq!(u.len(), 2);
        assert_eq!(u[b].source(), p(2.0, 2.0));
        let ids: Vec<_> = u.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn user_set_aggregates() {
        let u = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(1.0, 0.0)),
            Trajectory::new(vec![p(0.0, 1.0), p(1.0, 1.0), p(2.0, 1.0)]),
        ]);
        assert_eq!(u.total_points(), 5);
        assert_eq!(u.total_segments(), 3);
        let r = u.mbr().unwrap();
        assert_eq!(r, Rect::new(p(0.0, 0.0), p(2.0, 1.0)));
    }

    #[test]
    fn truncated_takes_prefix() {
        let u = UserSet::from_vec(vec![
            Trajectory::two_point(p(0.0, 0.0), p(1.0, 0.0)),
            Trajectory::two_point(p(0.0, 1.0), p(1.0, 1.0)),
            Trajectory::two_point(p(0.0, 2.0), p(1.0, 2.0)),
        ]);
        let t = u.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t[1].source(), p(0.0, 1.0));
        assert_eq!(u.truncated(99).len(), 3);
    }

    #[test]
    fn push_on_a_clone_copies_only_the_tail_chunk() {
        let mut a: UserSet = (0..2 * USER_CHUNK - 1)
            .map(|i| Trajectory::two_point(p(i as f64, 0.0), p(i as f64, 1.0)))
            .collect();
        let b = a.clone();
        let id = a.push(Trajectory::two_point(p(-1.0, 0.0), p(-1.0, 1.0)));
        assert_eq!(id as usize, 2 * USER_CHUNK - 1);
        assert_eq!((a.len(), b.len()), (2 * USER_CHUNK, 2 * USER_CHUNK - 1));
        assert_eq!((a.full_chunks().len(), b.full_chunks().len()), (2, 1));
        assert!(Arc::ptr_eq(&a.full_chunks()[0], &b.full_chunks()[0]), "full chunk shared");
        assert_eq!(a.get(id - 1), b.get(id - 1));
        assert_eq!(a.get(id).source(), p(-1.0, 0.0));
        assert_eq!(a.truncated(b.len()), b);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_set_mbr_none() {
        assert!(UserSet::new().mbr().is_none());
    }
}
