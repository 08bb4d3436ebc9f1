//! Golden sweep report, compared byte for byte.
//!
//! `fixtures/golden_sweep.json` and `fixtures/golden_sweep.csv` are the
//! `to_json`/`to_csv` bytes `run_sweep` produced for the spec below when
//! it still walked its own materialized grid, before it became a view of
//! the streaming driver. The spec carries fault seeds (PE₁ jitter and a
//! PE₂ demand spike, so faulted points overflow where clean ones do not)
//! and duplicated frequency and capacity values: the inputs where the
//! driver's verdict tally and Pareto enumeration had their own code.

use wcm_events::window::WindowMode;
use wcm_mpeg::{profile::standard_clips, ClipWorkload, Synthesizer, VideoParams};
use wcm_par::Parallelism;
use wcm_sim::pipeline::OverflowPolicy;
use wcm_sim::{run_sweep, run_sweep_streaming, CsvSink, Injector, ShardRange, SweepSpec};

const JSON: &str = include_str!("fixtures/golden_sweep.json");
const CSV: &str = include_str!("fixtures/golden_sweep.csv");

fn clips() -> Vec<ClipWorkload> {
    let params =
        VideoParams::new(160, 128, 25.0, 1.0e6, wcm_mpeg::GopStructure::broadcast()).unwrap();
    let synth = Synthesizer::new(params);
    standard_clips()[..1]
        .iter()
        .map(|c| synth.generate(c, 1).unwrap())
        .collect()
}

fn spec() -> SweepSpec {
    SweepSpec {
        pe1_hz: 60.0e6,
        frequencies_hz: vec![2.0e6, 6.0e6, 6.0e6, 20.0e6, 60.0e6],
        capacities: vec![4, 80, 80, 4000],
        policies: vec![OverflowPolicy::Backpressure, OverflowPolicy::DropByPriority],
        seeds: vec![None, Some(11), Some(7)],
        injectors: vec![
            Injector::JitterBurst {
                start: 5,
                len: 60,
                max_delay_s: 0.004,
            },
            Injector::DemandSpike {
                start: 40,
                len: 200,
                factor_pct: 400,
            },
        ],
        k_max: 400,
        mode: WindowMode::Strided {
            exact_upto: 96,
            stride: 40,
        },
        cert_depth: 300,
        prune: true,
    }
}

#[test]
fn run_sweep_reproduces_golden_json_and_csv() {
    let clips = clips();
    for par in [Parallelism::Seq, Parallelism::Threads(2)] {
        let report = run_sweep(&clips, &spec(), par).unwrap();
        assert!(
            report.to_json() == JSON,
            "{par:?}: JSON differs from the golden bytes"
        );
        assert!(
            report.to_csv() == CSV,
            "{par:?}: CSV differs from the golden bytes"
        );
    }
}

#[test]
fn streamed_csv_reproduces_golden_bytes() {
    let mut sink = CsvSink::new(Vec::new());
    run_sweep_streaming(
        &clips(),
        &spec(),
        Parallelism::Seq,
        ShardRange::FULL,
        &mut sink,
    )
    .unwrap();
    assert!(
        sink.into_inner() == CSV.as_bytes(),
        "streamed CSV differs from the golden bytes"
    );
}

#[test]
fn golden_report_covers_every_verdict_source() {
    for verdict in ["provably_safe", "provably_unsafe", "sim_ok", "sim_overflow"] {
        assert!(CSV.contains(verdict), "fixture has no `{verdict}` point");
    }
}

#[test]
fn golden_frontier_ignores_faulted_overflows() {
    // Some cell must be safe on the clean seed yet overflow under faults,
    // or the fixture could not tell the frontier's seed filter apart
    // from none.
    let report = run_sweep(&clips(), &spec(), Parallelism::Seq).unwrap();
    let overflows = |faulted: bool| {
        report
            .points
            .iter()
            .filter(|p| p.seed.is_some() == faulted && p.verdict.overflowed())
            .map(|p| (p.frequency_hz.to_bits(), p.capacity))
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert!(!overflows(true).is_subset(&overflows(false)));
}
