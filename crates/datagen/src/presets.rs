//! Paper-scale dataset presets.
//!
//! Wires the generators to the exact cardinalities of the paper's Tables I
//! and II so the experiment harness can speak the paper's language
//! ("NYT-1 day", "NY bus routes"). Each preset is deterministic: the same
//! call always produces the same dataset.

use crate::{bus_routes, checkins, gps_traces, taxi_trips, CityModel};
use tq_trajectory::{FacilitySet, UserSet};

/// NYT trip counts for 0.5 / 1 / 2 / 3 days (paper §VI-B.1).
pub const NYT_SIZES: [usize; 4] = [203_308, 357_139, 697_796, 1_032_637];

/// Labels matching [`NYT_SIZES`].
pub const NYT_LABELS: [&str; 4] = ["0.5", "1", "2", "3"];

/// NYF check-in trajectory count (paper Table II).
pub const NYF_SIZE: usize = 212_751;

/// BJG Geolife trajectory count (paper Table II).
pub const BJG_SIZE: usize = 30_266;

/// NY bus route count (paper Table I: 2,024 routes, 16,999 stops).
pub const NY_ROUTES: usize = 2_024;

/// Beijing bus route count (paper Table I: 1,842 routes, 21,489 stops).
pub const BJ_ROUTES: usize = 1_842;

/// Default service radius ψ in metres (walkable access distance).
pub const DEFAULT_PSI: f64 = 200.0;

/// Default bus-route length in metres (a typical urban route).
pub const ROUTE_LENGTH: f64 = 14_000.0;

const NY_SEED: u64 = 0x4E59; // "NY"
const BJ_SEED: u64 = 0x424A; // "BJ"

/// The New-York-like city model: ~45 km extent, 40 hotspots.
pub fn ny_city() -> CityModel {
    CityModel::synthetic(NY_SEED, 40, 45_000.0)
}

/// The Beijing-like city model: ~50 km extent, 48 hotspots.
pub fn bj_city() -> CityModel {
    CityModel::synthetic(BJ_SEED, 48, 50_000.0)
}

/// NYT-like taxi trips: `n` two-point trajectories in the NY city model.
/// Use [`NYT_SIZES`] for the paper's day-equivalent sweep.
pub fn nyt_like(n: usize) -> UserSet {
    taxi_trips(&ny_city(), n, NY_SEED ^ 0x7A71)
}

/// NYF-like Foursquare check-ins: `n` short multipoint trajectories.
pub fn nyf_like(n: usize) -> UserSet {
    checkins(&ny_city(), n, NY_SEED ^ 0xF0F0)
}

/// BJG-like Geolife traces: `n` long multipoint trajectories.
pub fn bjg_like(n: usize) -> UserSet {
    gps_traces(&bj_city(), n, BJ_SEED ^ 0x6E0)
}

/// NY-like bus routes with `stops` stops each along ~14 km backbones.
pub fn ny_bus(n_routes: usize, stops: usize) -> FacilitySet {
    bus_routes(&ny_city(), n_routes, stops, ROUTE_LENGTH, NY_SEED ^ 0xB05)
}

/// Beijing-like bus routes with `stops` stops each along ~14 km backbones.
pub fn bj_bus(n_routes: usize, stops: usize) -> FacilitySet {
    bus_routes(&bj_city(), n_routes, stops, ROUTE_LENGTH, BJ_SEED ^ 0xB05)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_deterministic() {
        let a = nyt_like(500);
        let b = nyt_like(500);
        assert_eq!(a, b);
    }

    #[test]
    fn nyt_prefix_property() {
        // Sweeping user counts must reuse the same prefix: nyt_like(100)
        // equals the first 100 of nyt_like(200) so parameter sweeps vary one
        // thing only.
        let small = nyt_like(100);
        let large = nyt_like(200);
        assert_eq!(small, large.truncated(100));
    }

    #[test]
    fn bus_presets_shapes() {
        let ny = ny_bus(50, 8);
        assert_eq!(ny.len(), 50);
        assert!(ny.iter().all(|(_, f)| f.len() == 8));
        let bj = bj_bus(30, 12);
        assert_eq!(bj.len(), 30);
        assert_eq!(bj.total_stops(), 360);
    }

    #[test]
    fn city_models_differ() {
        let a = nyt_like(50);
        let b = bjg_like(50);
        assert_ne!(a, b);
    }

    #[test]
    fn multipoint_presets_have_expected_shape() {
        let nyf = nyf_like(200);
        assert!(nyf.iter().all(|(_, t)| t.len() <= 9));
        let bjg = bjg_like(50);
        assert!(bjg.iter().all(|(_, t)| t.len() >= 10));
    }
}
