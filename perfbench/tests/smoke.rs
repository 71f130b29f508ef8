//! Tiny-scale runs of every workload, untraced and traced: every answer
//! checks out, and the metrics printed are exactly the ones
//! `BENCHMARK.json` lists.

use std::path::PathBuf;
use tq_perfbench::data::{Plan, Scale, Workload};
use tq_perfbench::run;

fn manifest(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `"name"` values of the objects in the array `section` of `json`
/// (up to the next section at the same depth, or the end).
fn names(json: &str, section: &str, until: Option<&str>) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section}"));
    let rest = &json[start..];
    let rest = until
        .and_then(|u| rest.find(&format!("\"{u}\"")))
        .map_or(rest, |end| &rest[..end]);
    rest.split("{\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn smoke(workload: Workload) {
    let bench = manifest("../BENCHMARK.json");
    for trace in [false, true] {
        let plan = Plan::new(workload, Scale::Tiny, 3, 0.8, trace);
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}", workload.name()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let store = dir.join("store");
        let reps = run::setup(&plan, &store).expect("set-up");
        let out = run::serve(&plan, &store, &reps, Some(&dir.join("trace.jsonl"))).expect("serve");
        if trace {
            assert!(
                dir.join("trace.jsonl").exists(),
                "the traced run writes its spans"
            );
        }
        std::fs::remove_dir_all(&dir).expect("clean up");

        assert!(out.correct, "{}: {:?}", workload.name(), out.tally.problems);
        assert_eq!(
            out.tally.failed,
            0,
            "{}: {:?}",
            workload.name(),
            out.tally.problems
        );
        assert!(out.tally.checked > 0, "answers were checked");
        let (section, until) = if trace {
            ("per_layer", None)
        } else {
            ("end_to_end", Some("per_layer"))
        };
        let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            got,
            names(&bench, section, until),
            "{} trace={trace}",
            workload.name()
        );
        for m in &out.metrics {
            assert!(
                m.value.is_finite(),
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
            if !trace {
                assert!(
                    m.value > 0.0,
                    "{} {} must never be 0",
                    workload.name(),
                    m.name
                );
            }
        }
        if trace {
            let hit = out
                .metrics
                .iter()
                .find(|m| m.name == "engine.cache_hit_ratio")
                .expect("hit ratio");
            let want = if workload == Workload::Nyt1 { 0.0 } else { 1.0 };
            assert_eq!(hit.value, want, "{}", workload.name());
        }
    }
}

#[test]
fn hot_read_smoke() {
    smoke(Workload::HotRead);
}

#[test]
fn nyt1_smoke() {
    smoke(Workload::Nyt1);
}

#[test]
fn manifests_agree() {
    let bench = manifest("../BENCHMARK.json");
    let layers = manifest("layers.json");
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names(&layers, "workloads", Some("per_layer")), workloads);
    assert_eq!(names(&bench, "workloads", Some("end_to_end")), workloads);
    assert_eq!(
        names(&layers, "per_layer", None),
        names(&bench, "per_layer", None)
    );
}
