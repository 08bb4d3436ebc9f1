//! Traced-run self-check: every workload, run small and traced, passes
//! its oracles, its top-level layer spans cover at least 95 % of the
//! traced wall time, and every metric it prints is one that
//! `BENCHMARK.json` defines (and vice versa).

use std::collections::BTreeSet;
use std::sync::Mutex;

use wcm::obs::json::{self, Value};
use wcm_perfbench::harness::{RunConfig, Scale};
use wcm_perfbench::{result_json, run, WORKLOADS};

/// The recorder is process-wide: traced runs must not overlap.
static RECORDER: Mutex<()> = Mutex::new(());

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, section: &str) -> BTreeSet<String> {
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs `workload` small and returns the parsed result line.
fn result(workload: &str, trace: bool) -> Value {
    let _guard = RECORDER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let cfg = RunConfig {
        seed: 7,
        seconds: 0.2,
        trace,
    };
    let out = run(workload, Scale::Small, &cfg).expect("run completes");
    let line = result_json(&out, trace);
    json::parse(&line).expect("result line parses")
}

fn check(workload: &str) {
    let doc = benchmark_json();
    let workloads: BTreeSet<String> = names(&doc, "workloads");
    assert!(
        workloads.contains(workload),
        "{workload} missing from BENCHMARK.json"
    );

    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let res = result(workload, trace);
        assert_eq!(
            res.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}: oracle failed"
        );
        assert_eq!(res.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = res
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let printed: BTreeSet<String> = metrics.keys().cloned().collect();
        assert_eq!(
            printed,
            names(&doc, section),
            "{workload}: {section} names differ"
        );
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            assert!(
                value.is_finite() && value.is_sign_positive(),
                "{workload}: {name} = {value}"
            );
        }
        if trace {
            let unaccounted = metrics["unaccounted_frac"]
                .get("value")
                .and_then(Value::as_f64)
                .expect("unaccounted_frac");
            assert!(
                unaccounted <= 0.05,
                "{workload}: {unaccounted} of the traced wall is outside the layer spans"
            );
        } else {
            for name in [
                "wall_s",
                "setup_s",
                "events_per_s",
                "points_per_s",
                "peak_rss_mb",
            ] {
                let value = metrics[name].get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(|v| v > 0.0), "{workload}: {name} is zero");
            }
        }
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let listed = names(&benchmark_json(), "workloads");
    let known: BTreeSet<String> = WORKLOADS.iter().map(ToString::to_string).collect();
    assert_eq!(listed, known);
}

#[test]
fn paper_case_study_self_check() {
    check("paper_case_study");
}

#[test]
fn design_sweep_self_check() {
    check("design_sweep");
}

#[test]
fn serve_fanout_self_check() {
    check("serve_fanout");
}

#[test]
fn serve_deep_self_check() {
    check("serve_deep");
}
