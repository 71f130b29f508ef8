//! Seeded synthetic workload generators.
//!
//! The paper evaluates on NYC yellow-taxi trips (NYT), NYC Foursquare
//! check-ins (NYF), Beijing Geolife GPS traces (BJG) and NY/Beijing bus
//! routes. Those datasets are public but unavailable in this offline
//! environment, so this crate synthesizes statistically analogous workloads
//! (see DESIGN.md §4): a [`CityModel`] of Zipf-weighted Gaussian hotspots
//! over a city-sized extent generates
//!
//! * two-point trips ([`taxi_trips`], NYT-like),
//! * short check-in sequences ([`checkins`], NYF-like),
//! * long GPS random-walk traces ([`gps_traces`], BJG-like),
//! * bus routes with evenly spaced stops ([`bus_routes`]),
//! * streaming arrival/expiry event traces over any of the above
//!   ([`stream_scenario`]), for dynamic-workload engines.
//!
//! Everything is deterministic under an explicit seed; [`presets`] wires the
//! paper's exact cardinalities.

#![warn(missing_docs)]

pub mod presets;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tq_geometry::{Point, Rect};
use tq_trajectory::{Facility, FacilitySet, Trajectory, UserSet};

/// One attraction hotspot: trips/check-ins cluster around these.
#[derive(Debug, Clone, Copy)]
pub struct Hotspot {
    /// Hotspot center.
    pub center: Point,
    /// Gaussian spread (standard deviation) around the center.
    pub sigma: f64,
    /// Relative sampling weight (Zipf-distributed across hotspots).
    pub weight: f64,
}

/// A synthetic city: a bounding rectangle plus weighted hotspots.
///
/// The spatial skew (few very popular areas, a long tail, uniform
/// background) is the property the TQ-tree's locality pruning exploits; the
/// generator reproduces it so relative algorithm behaviour matches the
/// paper's real datasets.
#[derive(Debug, Clone)]
pub struct CityModel {
    /// City extent (planar, metres).
    pub bounds: Rect,
    /// Attraction hotspots.
    pub hotspots: Vec<Hotspot>,
    /// Probability that a sample ignores hotspots and is uniform background.
    pub background: f64,
    cumulative: Vec<f64>,
}

impl CityModel {
    /// Creates a city of `extent` × `extent` metres with `n_hotspots`
    /// Zipf-weighted Gaussian hotspots (exponent 0.8) and 20% uniform
    /// background traffic.
    pub fn synthetic(seed: u64, n_hotspots: usize, extent: f64) -> CityModel {
        assert!(n_hotspots > 0, "need at least one hotspot");
        assert!(extent > 0.0, "extent must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(extent, extent));
        let hotspots: Vec<Hotspot> = (0..n_hotspots)
            .map(|i| Hotspot {
                center: Point::new(
                    rng.gen_range(0.05 * extent..0.95 * extent),
                    rng.gen_range(0.05 * extent..0.95 * extent),
                ),
                sigma: rng.gen_range(0.01 * extent..0.04 * extent),
                weight: 1.0 / ((i + 1) as f64).powf(0.8),
            })
            .collect();
        Self::from_hotspots(bounds, hotspots, 0.2)
    }

    /// Builds a city from explicit hotspots.
    pub fn from_hotspots(bounds: Rect, hotspots: Vec<Hotspot>, background: f64) -> CityModel {
        assert!(!hotspots.is_empty(), "need at least one hotspot");
        let mut cumulative = Vec::with_capacity(hotspots.len());
        let mut acc = 0.0;
        for h in &hotspots {
            acc += h.weight;
            cumulative.push(acc);
        }
        CityModel {
            bounds,
            hotspots,
            background,
            cumulative,
        }
    }

    /// Samples a hotspot index by weight.
    fn sample_hotspot(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty hotspots");
        let x = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c < x)
    }

    /// Samples one location: a hotspot-Gaussian point or uniform background.
    pub fn sample_point(&self, rng: &mut StdRng) -> Point {
        if rng.gen_bool(self.background) {
            return Point::new(
                rng.gen_range(self.bounds.min.x..self.bounds.max.x),
                rng.gen_range(self.bounds.min.y..self.bounds.max.y),
            );
        }
        let h = &self.hotspots[self.sample_hotspot(rng)];
        let (gx, gy) = gaussian_pair(rng);
        self.clamp(Point::new(
            h.center.x + gx * h.sigma,
            h.center.y + gy * h.sigma,
        ))
    }

    fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.bounds.min.x, self.bounds.max.x),
            p.y.clamp(self.bounds.min.y, self.bounds.max.y),
        )
    }
}

/// A pair of independent standard normal samples (Box–Muller; `rand` alone
/// offers no normal distribution and `rand_distr` is outside the approved
/// dependency set).
fn gaussian_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Generates `n` two-point trips (NYT-like).
///
/// Sources follow the city's hotspot mixture. Destinations reproduce the
/// real-world trip-length distribution: most taxi trips are short (a few
/// per-cent of the city extent — NYC yellow-cab medians are 2–3 km), with a
/// heavy tail of cross-town trips. We draw 75% "local" destinations as a
/// Gaussian displacement around the source (σ = 6% of the extent ≈ 2.7 km
/// at NYC scale) and 25% independent hotspot destinations. Degenerate
/// sub-0.2%-extent trips are rejected.
pub fn taxi_trips(city: &CityModel, n: usize, seed: u64) -> UserSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let min_trip = (city.bounds.width() * 2e-3).max(1e-6);
    let local_sigma = city.bounds.width() * 0.06;
    let mut trips = Vec::with_capacity(n);
    while trips.len() < n {
        let src = city.sample_point(&mut rng);
        let dst = if rng.gen_bool(0.75) {
            let (gx, gy) = gaussian_pair(&mut rng);
            city.clamp(Point::new(src.x + gx * local_sigma, src.y + gy * local_sigma))
        } else {
            city.sample_point(&mut rng)
        };
        if src.dist(&dst) >= min_trip {
            trips.push(Trajectory::two_point(src, dst));
        }
    }
    UserSet::from_vec(trips)
}

/// Generates `n` short multipoint check-in sequences (NYF-like): each user
/// visits 2–9 POIs in a day; consecutive check-ins are biased to be near
/// each other (a hotspot point blended toward the previous location).
pub fn checkins(city: &CityModel, n: usize, seed: u64) -> UserSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let users = (0..n)
        .map(|_| {
            let len = rng.gen_range(2..=9);
            let mut pts = Vec::with_capacity(len);
            let mut cur = city.sample_point(&mut rng);
            pts.push(cur);
            for _ in 1..len {
                let target = city.sample_point(&mut rng);
                // Blend toward the previous check-in: people move locally.
                let lambda = rng.gen_range(0.3..0.9);
                cur = Point::new(
                    cur.x + lambda * (target.x - cur.x),
                    cur.y + lambda * (target.y - cur.y),
                );
                pts.push(cur);
            }
            Trajectory::new(pts)
        })
        .collect();
    UserSet::from_vec(users)
}

/// Generates `n` long GPS traces (BJG-like): momentum random walks with
/// 10–120 points and step lengths around 0.5% of the extent.
pub fn gps_traces(city: &CityModel, n: usize, seed: u64) -> UserSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let step = city.bounds.width() * 5e-3;
    let users = (0..n)
        .map(|_| {
            let len = rng.gen_range(10..=120);
            let mut pts = Vec::with_capacity(len);
            let mut cur = city.sample_point(&mut rng);
            let mut heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            pts.push(cur);
            for _ in 1..len {
                heading += rng.gen_range(-0.5..0.5);
                let d = step * rng.gen_range(0.3..1.7);
                cur = city.clamp(Point::new(
                    cur.x + d * heading.cos(),
                    cur.y + d * heading.sin(),
                ));
                pts.push(cur);
            }
            Trajectory::new(pts)
        })
        .collect();
    UserSet::from_vec(users)
}

/// Generates `n_routes` bus routes (facility trajectories) of roughly
/// `route_length` metres each: a mostly straight momentum walk through the
/// city (real routes follow arterials through popular areas), with
/// `stops_per_route` stops placed at equal arc-length intervals.
///
/// The backbone polyline depends only on the route's random stream, **not**
/// on the stop count — sweeping `stops_per_route` densifies the *same*
/// geographic routes, exactly like subsampling a real route network. This
/// keeps the paper's stop-count sweeps free of route-extent confounds.
pub fn bus_routes(
    city: &CityModel,
    n_routes: usize,
    stops_per_route: usize,
    route_length: f64,
    seed: u64,
) -> FacilitySet {
    assert!(stops_per_route > 0, "a route needs at least one stop");
    assert!(route_length > 0.0, "route length must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    const BACKBONE_SEGS: usize = 64;
    let step = route_length / BACKBONE_SEGS as f64;
    let routes = (0..n_routes)
        .map(|_| {
            let mut cur = city.sample_point(&mut rng);
            let mut heading: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            let mut backbone = Vec::with_capacity(BACKBONE_SEGS + 1);
            backbone.push(cur);
            for _ in 0..BACKBONE_SEGS {
                // Mostly straight, occasionally turning toward a hotspot.
                heading += rng.gen_range(-0.15..0.15);
                if rng.gen_bool(0.08) {
                    let attract = city.sample_point(&mut rng);
                    heading = (attract.y - cur.y).atan2(attract.x - cur.x);
                }
                let next = Point::new(
                    cur.x + step * heading.cos(),
                    cur.y + step * heading.sin(),
                );
                // Bounce off the city boundary.
                if !city.bounds.contains(&next) {
                    heading += std::f64::consts::PI / 2.0;
                    cur = city.clamp(next);
                } else {
                    cur = next;
                }
                backbone.push(cur);
            }
            Facility::new(resample_polyline(&backbone, stops_per_route))
        })
        .collect();
    FacilitySet::from_vec(routes)
}

/// Which trajectory generator feeds a [`StreamScenario`]'s arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Two-point taxi trips ([`taxi_trips`], NYT-like).
    Taxi,
    /// Short multipoint check-in sequences ([`checkins`], NYF-like).
    Checkins,
    /// Long GPS traces ([`gps_traces`], BJG-like).
    Gps,
}

/// One event of a streaming dynamic workload.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// A new trajectory arrives. Consumers index it under the next dense id
    /// (`initial.len()`, `initial.len() + 1`, … in arrival order).
    Arrive(Trajectory),
    /// The trajectory with this id expires. The generator only ever expires
    /// ids that are live under the deterministic numbering above, so a
    /// trace replays cleanly against any id-stable index.
    Expire(u32),
}

/// A seeded dynamic-workload trace: an initial snapshot plus an ordered
/// event stream of arrivals and expiries, as real trajectory traffic (taxi
/// trips entering and aging out of a sliding window) behaves.
#[derive(Debug, Clone)]
pub struct StreamScenario {
    /// The trajectories live before the first event.
    pub initial: UserSet,
    /// The event stream, to be applied in order (optionally batched).
    pub events: Vec<StreamEvent>,
    /// The generating region — a safe index bounding rectangle covering the
    /// initial set and every future arrival.
    pub bounds: Rect,
}

impl StreamEvent {
    /// The engine update this event maps to: an arrival becomes
    /// [`Update::Insert`](tq_core::dynamic::Update::Insert), an expiry
    /// becomes [`Update::Remove`](tq_core::dynamic::Update::Remove).
    pub fn to_update(&self) -> tq_core::dynamic::Update {
        match self {
            StreamEvent::Arrive(t) => tq_core::dynamic::Update::Insert(t.clone()),
            StreamEvent::Expire(id) => tq_core::dynamic::Update::Remove(*id),
        }
    }
}

impl StreamScenario {
    /// Number of [`StreamEvent::Arrive`] events.
    pub fn arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Arrive(_)))
            .count()
    }

    /// Number of [`StreamEvent::Expire`] events.
    pub fn expiries(&self) -> usize {
        self.events.len() - self.arrivals()
    }

    /// The event trace chunked into ready-to-apply engine update batches
    /// of `batch` events each (the last batch may be shorter) — the shape
    /// [`Engine::apply`](tq_core::engine::Engine::apply) and
    /// [`serve`](tq_core::serve) workloads consume.
    ///
    /// # Panics
    /// Panics when `batch == 0`.
    pub fn update_batches(&self, batch: usize) -> Vec<Vec<tq_core::dynamic::Update>> {
        assert!(batch > 0, "batch size must be positive");
        self.events
            .chunks(batch)
            .map(|chunk| chunk.iter().map(StreamEvent::to_update).collect())
            .collect()
    }
}

/// Generates a deterministic streaming scenario over a city model:
/// `initial_n` trajectories up front, then `n_events` events of which
/// roughly `expire_ratio` are expiries of a uniformly chosen live
/// trajectory and the rest are fresh arrivals from the same generator.
///
/// With `expire_ratio = 0.5` the live count stays near `initial_n` (a
/// sliding window); lower ratios grow the window, higher ones shrink it.
/// Expiries are suppressed while fewer than half the initial trajectories
/// are live, so the stream never drains the index.
///
/// Everything is a pure function of `(city, kind, sizes, seed)`.
pub fn stream_scenario(
    city: &CityModel,
    kind: StreamKind,
    initial_n: usize,
    n_events: usize,
    expire_ratio: f64,
    seed: u64,
) -> StreamScenario {
    assert!(
        (0.0..=1.0).contains(&expire_ratio),
        "expire_ratio must be in [0, 1]"
    );
    let generate = |n: usize, s: u64| match kind {
        StreamKind::Taxi => taxi_trips(city, n, s),
        StreamKind::Checkins => checkins(city, n, s),
        StreamKind::Gps => gps_traces(city, n, s),
    };
    let initial = generate(initial_n, seed);
    // Arrival pool: at most every event is an arrival.
    let pool = generate(n_events, seed ^ 0x05EE_DA11);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x05EE_DE7E);
    let mut live: Vec<u32> = (0..initial_n as u32).collect();
    let mut next_id = initial_n as u32;
    let mut next_arrival = 0usize;
    let min_live = initial_n / 2;
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let expire = live.len() > min_live && rng.gen_bool(expire_ratio);
        if expire {
            let idx = rng.gen_range(0..live.len());
            events.push(StreamEvent::Expire(live.swap_remove(idx)));
        } else {
            events.push(StreamEvent::Arrive(pool.get(next_arrival as u32).clone()));
            next_arrival += 1;
            live.push(next_id);
            next_id += 1;
        }
    }
    StreamScenario {
        initial,
        events,
        bounds: city.bounds,
    }
}

/// Places `n` points at equal arc-length intervals along a polyline
/// (endpoints included).
fn resample_polyline(pts: &[Point], n: usize) -> Vec<Point> {
    debug_assert!(pts.len() >= 2);
    if n == 1 {
        return vec![pts[0]];
    }
    let total: f64 = pts.windows(2).map(|w| w[0].dist(&w[1])).sum();
    if total <= 0.0 {
        return vec![pts[0]; n];
    }
    let mut out = Vec::with_capacity(n);
    let mut seg = 0usize;
    let mut seg_start_dist = 0.0;
    let mut seg_len = pts[0].dist(&pts[1]);
    for i in 0..n {
        let target = total * i as f64 / (n - 1) as f64;
        while seg + 2 < pts.len() && seg_start_dist + seg_len < target {
            seg_start_dist += seg_len;
            seg += 1;
            seg_len = pts[seg].dist(&pts[seg + 1]);
        }
        let t = if seg_len > 0.0 {
            ((target - seg_start_dist) / seg_len).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let (a, b) = (pts[seg], pts[seg + 1]);
        out.push(Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city() -> CityModel {
        CityModel::synthetic(7, 12, 10_000.0)
    }

    #[test]
    fn deterministic_under_seed() {
        let c = city();
        let a = taxi_trips(&c, 100, 42);
        let b = taxi_trips(&c, 100, 42);
        assert_eq!(a, b);
        let d = taxi_trips(&c, 100, 43);
        assert_ne!(a, d);
    }

    #[test]
    fn trips_within_bounds_and_nondegenerate() {
        let c = city();
        let trips = taxi_trips(&c, 500, 1);
        assert_eq!(trips.len(), 500);
        for (_, t) in trips.iter() {
            assert!(c.bounds.contains(&t.source()));
            assert!(c.bounds.contains(&t.destination()));
            assert!(t.length() >= 10.0); // ≥ 0.2% of 10 km minus rounding
        }
    }

    #[test]
    fn trips_are_spatially_skewed() {
        // Hotspot sampling must concentrate mass: the densest 10% of cells
        // should hold far more than 10% of the points.
        let c = city();
        let trips = taxi_trips(&c, 2000, 2);
        let grid = 10usize;
        let mut counts = vec![0usize; grid * grid];
        for (_, t) in trips.iter() {
            for p in [t.source(), t.destination()] {
                let gx = ((p.x / c.bounds.width() * grid as f64) as usize).min(grid - 1);
                let gy = ((p.y / c.bounds.height() * grid as f64) as usize).min(grid - 1);
                counts[gy * grid + gx] += 1;
            }
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts.iter().take(grid * grid / 10).sum();
        let total: usize = counts.iter().sum();
        assert!(
            top10 as f64 > 0.3 * total as f64,
            "hotspot skew too weak: top-10% cells hold {top10}/{total}"
        );
    }

    #[test]
    fn checkins_are_short_multipoint() {
        let c = city();
        let u = checkins(&c, 300, 3);
        assert_eq!(u.len(), 300);
        for (_, t) in u.iter() {
            assert!((2..=9).contains(&t.len()));
            for p in t.points() {
                assert!(c.bounds.contains(p));
            }
        }
        // Multipoint on average.
        assert!(u.total_points() as f64 / u.len() as f64 > 3.0);
    }

    #[test]
    fn gps_traces_are_long_and_local() {
        let c = city();
        let u = gps_traces(&c, 50, 4);
        for (_, t) in u.iter() {
            assert!((10..=120).contains(&t.len()));
            // Steps bounded: consecutive points within ~2% of extent.
            for s in 0..t.num_segments() {
                assert!(t.segment_length(s) <= c.bounds.width() * 0.02);
            }
        }
    }

    #[test]
    fn bus_routes_have_even_spacing_and_fixed_extent() {
        let c = city();
        let route_len = 3_000.0;
        let fs = bus_routes(&c, 40, 12, route_len, 5);
        assert_eq!(fs.len(), 40);
        for (_, f) in fs.iter() {
            assert_eq!(f.len(), 12);
            // Equal arc-length spacing along the backbone: chord distances
            // are at most the arc spacing (turns shorten chords).
            let arc_spacing = route_len / 11.0;
            for w in f.stops().windows(2) {
                assert!(w[0].dist(&w[1]) <= arc_spacing + 1e-6);
            }
            for s in f.stops() {
                assert!(c.bounds.contains(s));
            }
        }
    }

    #[test]
    fn stop_count_sweep_preserves_route_geometry() {
        // The same route index must follow the same backbone regardless of
        // the requested stop count — endpoints coincide.
        let c = city();
        let sparse = bus_routes(&c, 10, 8, 3_000.0, 6);
        let dense = bus_routes(&c, 10, 64, 3_000.0, 6);
        for ((_, a), (_, b)) in sparse.iter().zip(dense.iter()) {
            assert_eq!(a.stops()[0], b.stops()[0]);
            assert_eq!(a.stops()[7], b.stops()[63]);
        }
    }

    #[test]
    fn resample_polyline_endpoints_and_monotone() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ];
        let r = resample_polyline(&pts, 5);
        assert_eq!(r.len(), 5);
        assert_eq!(r[0], pts[0]);
        assert_eq!(*r.last().unwrap(), pts[2]);
        // Midpoint of the 20-length path is the corner.
        assert!(r[2].dist(&Point::new(10.0, 0.0)) < 1e-9);
        let single = resample_polyline(&pts, 1);
        assert_eq!(single, vec![pts[0]]);
    }

    #[test]
    fn gaussian_pair_sane() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 10_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let (a, b) = gaussian_pair(&mut rng);
            sum += a + b;
            sum_sq += a * a + b * b;
        }
        let mean = sum / (2.0 * n as f64);
        let var = sum_sq / (2.0 * n as f64) - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn stream_scenario_is_deterministic_and_replayable() {
        let c = city();
        let a = stream_scenario(&c, StreamKind::Taxi, 200, 400, 0.5, 9);
        let b = stream_scenario(&c, StreamKind::Taxi, 200, 400, 0.5, 9);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.events.len(), 400);
        assert_eq!(a.events.len(), b.events.len());
        // Replay: every expiry names a live id under sequential numbering,
        // and the live count never drops below half the initial set.
        let mut live: std::collections::HashSet<u32> = (0..200u32).collect();
        let mut next_id = 200u32;
        for (ev_a, ev_b) in a.events.iter().zip(&b.events) {
            match (ev_a, ev_b) {
                (StreamEvent::Arrive(ta), StreamEvent::Arrive(tb)) => {
                    assert_eq!(ta, tb);
                    assert!(ta.points().iter().all(|p| a.bounds.contains(p)));
                    live.insert(next_id);
                    next_id += 1;
                }
                (StreamEvent::Expire(ia), StreamEvent::Expire(ib)) => {
                    assert_eq!(ia, ib);
                    assert!(live.remove(ia), "expired id {ia} was not live");
                }
                _ => panic!("event streams diverged"),
            }
            assert!(live.len() >= 100);
        }
        assert_eq!(a.arrivals() + a.expiries(), 400);
        assert!(a.expiries() > 100, "half-ratio stream should expire plenty");
    }

    #[test]
    fn stream_scenario_kinds_shape_arrivals() {
        let c = city();
        let gps = stream_scenario(&c, StreamKind::Gps, 20, 50, 0.3, 4);
        for e in &gps.events {
            if let StreamEvent::Arrive(t) = e {
                assert!(t.len() >= 10, "GPS arrivals are long traces");
            }
        }
        let taxi = stream_scenario(&c, StreamKind::Taxi, 20, 50, 0.3, 4);
        for e in &taxi.events {
            if let StreamEvent::Arrive(t) = e {
                assert_eq!(t.len(), 2);
            }
        }
    }

    #[test]
    fn zero_expire_ratio_only_arrives() {
        let c = city();
        let s = stream_scenario(&c, StreamKind::Checkins, 10, 30, 0.0, 5);
        assert_eq!(s.arrivals(), 30);
        assert_eq!(s.expiries(), 0);
    }

    #[test]
    #[should_panic(expected = "hotspot")]
    fn empty_hotspots_rejected() {
        CityModel::from_hotspots(
            Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
            vec![],
            0.2,
        );
    }
}
