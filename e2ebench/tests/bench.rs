//! Checks of the benchmark itself, on small inputs.

use pim_e2e_bench::{measure, run_pass, set_up, Class, GapLedger, Workload, WORKLOADS};
use pimeval::trace::json::Json;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A small, fast copy of `w`: at most its first two apps, at `scale`.
fn small(w: &Workload, scale: f64) -> Workload {
    Workload {
        apps: &w.apps[..w.apps.len().min(2)],
        scale,
        ..*w
    }
}

#[test]
fn every_workload_app_resolves() {
    for w in &WORKLOADS {
        let benches = w.benches().expect("every app name resolves");
        for ((name, _), bench) in w.apps.iter().zip(&benches) {
            assert_eq!(bench.spec().name, *name, "{}", w.name);
        }
    }
}

#[test]
fn same_seed_gives_identical_model_totals() {
    for w in &WORKLOADS {
        let w = small(w, 0.02);
        let benches = w.benches().unwrap();
        let a = run_pass(&w, &benches, w.scale, 7, None);
        let b = run_pass(&w, &benches, w.scale, 7, None);
        assert_eq!(a.failures().count(), 0, "{}", w.name);
        assert_eq!(a.totals(), b.totals(), "{}", w.name);
        assert!(a.totals().total_ops > 0, "{}", w.name);
    }
}

#[test]
fn gate_marks_runs_whose_stats_differ() {
    let w = small(&WORKLOADS[0], 0.02);
    let benches = w.benches().unwrap();
    let reference = run_pass(&w, &benches, w.scale, 3, None);
    let mut pass = run_pass(&w, &benches, w.scale, 3, None);
    assert_eq!(pass.gate_against(&reference), 0);
    if let Ok(run) = &mut pass.runs[1] {
        run.stats.host_time_ms += 1.0;
    }
    assert_eq!(pass.gate_against(&reference), 1);
    assert_eq!(pass.failures().count(), 1);
}

#[test]
fn gap_classes_cover_traced_wall() {
    for w in &WORKLOADS {
        let w = small(w, 0.05);
        let benches = w.benches().unwrap();
        let ledger = Arc::new(Mutex::new(GapLedger::default()));
        let pass = run_pass(&w, &benches, w.scale, 5, Some(&ledger));
        assert_eq!(pass.failures().count(), 0, "{}", w.name);
        let ledger = ledger.lock().unwrap();
        let wall = pass.run_wall().as_secs_f64();
        let covered = ledger.charged(&Class::ALL).as_secs_f64() / wall;
        assert!(
            covered >= 0.95,
            "{}: classes cover {covered} of traced wall",
            w.name
        );
        let cmds = &ledger.gaps[Class::Cmd as usize];
        assert_eq!(cmds.len() as u64, pass.totals().total_ops, "{}", w.name);
    }
}

/// The metrics a process prints are exactly those `BENCHMARK.json`
/// declares, with the same units.
#[test]
fn printed_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let w = small(&WORKLOADS[2], 0.02);
    let setup = set_up(&w, 1).unwrap();
    let m = measure(&w, 1, Duration::ZERO, true, setup).unwrap();
    assert!(m.failures().is_empty());
    let names = |ms: Vec<pim_e2e_bench::Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    };
    assert_eq!(names(m.end_to_end(1.0)), declared("end_to_end"));
    assert_eq!(names(m.per_layer().unwrap()), declared("per_layer"));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
}
