//! End-to-end benchmark of the DATE'04 workload-curve stack: the
//! paper's case study, the design sweep, and `wcm-serve`, each timed
//! from input in to checked result out, with a traced per-layer
//! breakdown. See `README.md` in the package for the workloads and
//! metrics.

pub mod case_study;
pub mod harness;
pub mod rng;
pub mod serve;
pub mod sweep;
pub mod trace;

use harness::{Error, RunConfig, RunResult, Scale};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "paper_case_study",
    "design_sweep",
    "serve_fanout",
    "serve_deep",
];

/// Runs the workload called `name` at `scale`.
///
/// # Errors
///
/// An unknown name, or any layer's error.
pub fn run(name: &str, scale: Scale, cfg: &RunConfig) -> Result<RunResult, Error> {
    match name {
        "paper_case_study" => harness::run(&case_study::CaseStudy::new(scale), cfg),
        "design_sweep" => harness::run(&sweep::DesignSweep::new(scale), cfg),
        "serve_fanout" => harness::run(&serve::ServeWorkload::fanout(scale), cfg),
        "serve_deep" => harness::run(&serve::ServeWorkload::deep(scale), cfg),
        _ => Err(format!("unknown workload {name:?}; expected one of {WORKLOADS:?}").into()),
    }
}

/// The result line: one JSON object with the metrics of the run's kind
/// (end-to-end untraced, per-layer traced), each with its unit.
#[must_use]
pub fn result_json(result: &RunResult, traced: bool) -> String {
    let catalog = if traced {
        trace::PER_LAYER
    } else {
        trace::END_TO_END
    };
    let metrics: Vec<String> = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = result.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}
