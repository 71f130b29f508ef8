//! Dataset construction with in-memory and on-disk caching.
//!
//! Paper-scale generation (a million trips) costs seconds; the harness
//! snapshots generated sets under `target/tq-datasets/` (via the
//! `tq-trajectory` snapshot format) so repeated invocations pay once.
//! Reduced-scale sets are generated on the fly. Everything is deterministic,
//! so the cache is purely an accelerator. Dataset builds for a sweep fan out
//! across `std::thread::scope` threads; the cache map is guarded by a
//! `std::sync::Mutex`.

use crate::Scale;
use std::collections::HashMap;
use std::sync::Mutex;
use std::path::PathBuf;
use std::sync::OnceLock;
use tq_datagen::presets;
use tq_trajectory::{snapshot, FacilitySet, UserSet};

/// The paper's default parameters (Table III, defaults in bold per
/// DESIGN.md §3).
pub mod defaults {
    /// Default number of user trajectories (NYT, 1 day).
    pub const USERS: usize = 357_139;
    /// Default facility count `N`.
    pub const FACILITIES: usize = 128;
    /// Default stops per facility `S`.
    pub const STOPS: usize = 32;
    /// Default result count `k`.
    pub const K: usize = 8;
    /// Default service radius ψ (metres).
    pub const PSI: f64 = super::presets::DEFAULT_PSI;
    /// Default TQ-tree bucket size β.
    pub const BETA: usize = 64;
}

fn cache_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("tq-datasets");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

type UserCache = Mutex<HashMap<String, std::sync::Arc<UserSet>>>;

fn user_cache() -> &'static UserCache {
    static CACHE: OnceLock<UserCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Loads (or generates + snapshots) a user set by key.
fn cached_users(key: String, generate: impl FnOnce() -> UserSet) -> std::sync::Arc<UserSet> {
    if let Some(hit) = user_cache().lock().expect("cache poisoned").get(&key) {
        return hit.clone();
    }
    let path = cache_dir().join(format!("{key}.tqd"));
    let users = match std::fs::read(&path) {
        Ok(bytes) => match snapshot::decode(bytes.into()) {
            Ok((users, _)) => users,
            Err(_) => {
                // Stale/corrupt snapshot: regenerate and overwrite.
                let users = generate();
                let _ = std::fs::write(&path, snapshot::encode(&users, &FacilitySet::new()));
                users
            }
        },
        Err(_) => {
            let users = generate();
            let _ = std::fs::write(&path, snapshot::encode(&users, &FacilitySet::new()));
            users
        }
    };
    let arc = std::sync::Arc::new(users);
    user_cache()
        .lock()
        .expect("cache poisoned")
        .insert(key, arc.clone());
    arc
}

/// NYT-like taxi trips at `n` users (cached).
pub fn nyt(n: usize) -> std::sync::Arc<UserSet> {
    cached_users(format!("nyt-{n}"), move || presets::nyt_like(n))
}

/// NYF-like check-ins at `n` users (cached).
pub fn nyf(n: usize) -> std::sync::Arc<UserSet> {
    cached_users(format!("nyf-{n}"), move || presets::nyf_like(n))
}

/// BJG-like GPS traces at `n` users (cached).
pub fn bjg(n: usize) -> std::sync::Arc<UserSet> {
    cached_users(format!("bjg-{n}"), move || presets::bjg_like(n))
}

/// The user-count sweep of Fig. 6(a)/7(a)/10(a): NYT 0.5/1/2/3 "days",
/// scaled by `scale`.
pub fn nyt_sweep(scale: Scale) -> Vec<(String, std::sync::Arc<UserSet>)> {
    // Fan the generation out: each size is independent.
    let sizes: Vec<usize> = presets::NYT_SIZES.iter().map(|&s| scale.users(s)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = sizes
            .iter()
            .map(|&n| scope.spawn(move || nyt(n)))
            .collect();
        handles
            .into_iter()
            .zip(presets::NYT_LABELS)
            .map(|(h, label)| (label.to_string(), h.join().expect("generation panicked")))
            .collect()
    })
}

/// NY-like bus routes (`n` routes × `stops` stops).
pub fn ny_routes(n: usize, stops: usize) -> FacilitySet {
    presets::ny_bus(n, stops)
}

/// Beijing-like bus routes.
pub fn bj_routes(n: usize, stops: usize) -> FacilitySet {
    presets::bj_bus(n, stops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_same_data() {
        let a = nyt(2_000);
        let b = nyt(2_000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2_000);
    }

    #[test]
    fn sweep_has_four_increasing_sizes() {
        let sweep = nyt_sweep(Scale::Reduced);
        assert_eq!(sweep.len(), 4);
        assert!(sweep.windows(2).all(|w| w[0].1.len() < w[1].1.len()));
    }

    #[test]
    fn defaults_match_design_doc() {
        assert_eq!(defaults::USERS, 357_139);
        assert_eq!(defaults::STOPS, 32);
        assert_eq!(defaults::K, 8);
    }
}
