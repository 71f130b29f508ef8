//! A failed idle-tick checkpoint is not silent: the writer hub counts it
//! as `tq_events_total{kind="maintain_failed"}` in the tq-obs registry,
//! which `METRICS` renders.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use tq::core::writer::WriterOptions;
use tq::prelude::*;

const COUNTER: &str = "tq_events_total";
const LABELS: &str = "kind=\"maintain_failed\"";

fn maintain_failures() -> u64 {
    tq::obs::snapshot().counter(COUNTER, LABELS)
}

#[test]
fn failed_idle_checkpoint_is_counted() {
    let dir: PathBuf = std::env::temp_dir().join(format!("tq-idle-events-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let city = CityModel::synthetic(5, 4, 4_000.0);
    let trips = taxi_trips(&city, 80, 1);
    let arrivals = taxi_trips(&city, 4, 2);
    let config = StoreConfig {
        checkpoint_max_age: Some(Duration::from_millis(30)),
        ..StoreConfig::default()
    };
    let engine = Engine::builder(ServiceModel::new(Scenario::Transit, 200.0))
        .users(trips)
        .facilities(bus_routes(&city, 6, 5, 1_500.0, 3))
        .bounds(city.bounds.expand(1.0))
        .persist_with(&dir, config)
        .build()
        .unwrap();
    let hub = WriterHub::spawn_with(
        engine,
        WriterOptions {
            tick: Some(Duration::from_millis(10)),
            ..WriterOptions::default()
        },
    );
    // Registered at spawn, so METRICS lists the counter before it fires.
    assert!(tq::obs::snapshot().render().contains(COUNTER));
    let before = maintain_failures();

    // With the store directory gone (the open WAL file still takes
    // appends), one acked batch makes the age-based checkpoint due, and
    // every idle attempt to write it fails. Removing the directory first
    // leaves no window for a checkpoint to succeed.
    std::fs::remove_dir_all(&dir).unwrap();
    let batch: Vec<Update> = arrivals
        .trajectories()
        .cloned()
        .map(Update::Insert)
        .collect();
    hub.handle().apply(batch).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while maintain_failures() <= before {
        assert!(
            Instant::now() < deadline,
            "idle checkpoint failures were never counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let rendered = tq::obs::snapshot().render();
    assert!(
        rendered
            .lines()
            .any(|l| l.starts_with(COUNTER) && l.contains("maintain_failed")),
        "METRICS does not show the failure counter:\n{rendered}"
    );
    // The batch itself was acknowledged and stays applied.
    let engine = hub.stop(false).unwrap();
    assert_eq!(engine.users().len(), 84);
    let _ = std::fs::remove_dir_all(&dir);
}
