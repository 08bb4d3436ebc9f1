//! `design_sweep`: `run_sweep` over clips × PE2 frequencies × FIFO
//! capacities × overflow policies × {clean + fault seeds} with pruning
//! on, then `run_frontier(Bisect)` on the clean axis.
//!
//! The clips come from a `.wcmt` clip library made at set-up, so the
//! timed phase is the sweep engine alone: the simulator hot loop, the
//! eq. 8–10 pre-pass and the `par` fan-out.

use wcm::events::window::{Parallelism, WindowMode};
use wcm::mpeg::wire::decode_clips;
use wcm::mpeg::ClipWorkload;
use wcm::obs::span;
use wcm::sim::faults::{Injector, ProcessingElement};
use wcm::sim::sweep::policy_code;
use wcm::sim::{
    run_frontier, run_sweep, FrontierMethod, FrontierReport, OverflowPolicy, SweepReport, SweepSpec,
};
use wcm::wire::DecodePolicy;

use crate::case_study::{encode_library, synthesize};
use crate::harness::{Check, Error, Scale, Workload};
use crate::rng::{derive, Digest};

/// PE1 clock of the sweep (the case study's).
const PE1_HZ: f64 = 60.0e6;

/// The workload at one scale.
#[derive(Debug, Clone, Copy)]
pub struct DesignSweep {
    clips: usize,
    gops: usize,
    frequencies: usize,
    capacities: &'static [u64],
    fault_seeds: u64,
}

impl DesignSweep {
    /// The workload at `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                clips: 14,
                gops: 2,
                frequencies: 8,
                capacities: &[405, 810, 1620, 3240],
                fault_seeds: 2,
            },
            Scale::Small => Self {
                clips: 3,
                gops: 1,
                frequencies: 3,
                capacities: &[810, 1620],
                fault_seeds: 1,
            },
        }
    }
}

/// The decoded clip library and the two grids.
#[derive(Debug)]
pub struct Input {
    clips: Vec<ClipWorkload>,
    spec: SweepSpec,
    clean: SweepSpec,
}

/// The sweep and frontier reports.
#[derive(Debug)]
pub struct Out {
    _report: SweepReport,
    _frontier: FrontierReport,
}

impl Workload for DesignSweep {
    type Input = Input;
    type Ready = ();
    type Out = Out;

    fn setup(&self, seed: u64) -> Result<Input, Error> {
        let (synthesized, params) = synthesize(seed, 0x5EE9_0000, self.clips, self.gops)?;
        let library = encode_library(&synthesized);
        drop(synthesized);
        let (clips, _) = decode_clips(&library, DecodePolicy::Strict)?;

        let mb = params.mb_per_frame();
        let n = self.frequencies;
        let (lo, hi) = (200.0e6, 710.0e6);
        let max_capacity = self.capacities.iter().copied().max().unwrap_or(0);
        let mut seeds = vec![None];
        seeds.extend((0..self.fault_seeds).map(|i| Some(derive(seed, 0xFA17_0000 + i))));
        let spec = SweepSpec {
            pe1_hz: PE1_HZ,
            frequencies_hz: (0..n)
                .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
                .collect(),
            capacities: self.capacities.to_vec(),
            policies: vec![
                OverflowPolicy::Backpressure,
                OverflowPolicy::Reject,
                OverflowPolicy::DropByPriority,
            ],
            seeds,
            // PE1-side faults: jitter and a stall reshape the FIFO input,
            // and keep the analytic pre-pass sound for seeded points.
            injectors: vec![
                Injector::JitterBurst {
                    start: 4 * mb,
                    len: 2 * mb,
                    max_delay_s: 2.0e-3,
                },
                Injector::Stall {
                    pe: ProcessingElement::Pe1,
                    at: 6 * mb,
                    extra_s: 4.0e-3,
                },
            ],
            k_max: 2 * mb,
            mode: WindowMode::Strided {
                exact_upto: mb / 2,
                stride: mb / 10,
            },
            cert_depth: 2 * max_capacity as usize,
            prune: true,
        };
        let clean = SweepSpec {
            seeds: vec![None],
            ..spec.clone()
        };
        Ok(Input { clips, spec, clean })
    }

    fn prepare(&self, _input: &Input, _par: Parallelism) -> Result<(), Error> {
        Ok(())
    }

    fn pass(&self, input: &Input, (): (), par: Parallelism) -> Result<(Out, Check), Error> {
        let report = run_sweep(&input.clips, &input.spec, par)?;
        let frontier = run_frontier(&input.clips, &input.clean, par, FrontierMethod::Bisect)?;

        // Oracle: the bisected frontier is the sweep's Pareto set, bit for
        // bit.
        let _check = span("bench.check");
        let same = |a: &[(f64, u64)], b: &[(f64, u64)]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1 == y.1)
        };
        let total = report.stats.total as u64;
        let ok = same(&frontier.frontier, &report.pareto) && report.points.len() as u64 == total;

        let mut digest = Digest::default();
        let mut events = 0u64;
        for p in &report.points {
            digest.bytes(p.clip.as_bytes());
            digest.f64(p.frequency_hz);
            digest.u64(p.capacity);
            digest.u64(u64::from(policy_code(p.policy)));
            digest.u64(p.seed.unwrap_or(u64::MAX));
            digest.bytes(p.verdict.as_str().as_bytes());
            digest.u64(p.max_backlog.unwrap_or(u64::MAX));
            digest.u64(p.dropped.map_or(u64::MAX, |d| d as u64));
        }
        for &(f, c) in &report.pareto {
            digest.f64(f);
            digest.u64(c);
        }
        let per_clip = total / input.clips.len().max(1) as u64;
        for clip in &input.clips {
            events += clip.macroblock_count() as u64 * per_clip;
        }

        let check = Check {
            digest: digest.finish(),
            attempted: total,
            failed: if ok { 0 } else { total },
            events,
            points: total,
            sessions: input.clips.len() as u64,
            facts: vec![
                ("sweep.pruned_frac", report.stats.pruned_fraction()),
                ("sweep.frontier_cells", frontier.evaluated_cells as f64),
                (
                    "sweep.frontier_cells_frac",
                    frontier.evaluated_cells as f64 / frontier.grid_cells.max(1) as f64,
                ),
            ],
        };
        Ok((
            Out {
                _report: report,
                _frontier: frontier,
            },
            check,
        ))
    }

    fn seq_rung(&self) -> bool {
        true
    }
}
