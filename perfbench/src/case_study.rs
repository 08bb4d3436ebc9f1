//! `paper_case_study`: the paper's E5 + Fig. 7 + MPA path at full scale.
//!
//! The 14 standard clips (4 GOPs each, profile seeds derived from the
//! workload seed) are encoded as one `.wcmt` clip library. A pass
//! decodes the library, simulates PE1 per clip for the FIFO-input
//! times, builds `ᾱᵘ` and `γᵘ/γˡ` (k = 24 frames, strided), sizes PE2
//! with eq. 9 and eq. 10 at b = 1620, runs the MPA greedy-processing
//! analysis per clip, and simulates every clip at `F_γ`.

use wcm::core::build::arrival_upper_with;
use wcm::core::mpa::{greedy_processing, EventStream, Service as Pe};
use wcm::core::{sizing, verify, LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds};
use wcm::curves::StepCurve;
use wcm::events::window::{max_window_sums_with, min_window_sums_with, Parallelism, WindowMode};
use wcm::events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, TypeRegistry};
use wcm::mpeg::profile::standard_clips;
use wcm::mpeg::wire::{append_clip, clips_from_app_frames};
use wcm::mpeg::{ClipWorkload, Synthesizer, VideoParams};
use wcm::obs::span;
use wcm::sim::pipeline::{simulate_pipeline, PipelineConfig};
use wcm::wire::{decode, DecodePolicy, StreamEncoder};

use crate::harness::{Check, Error, Scale, Workload};
use crate::rng::{derive, Digest};

/// PE1 clock of the case study.
const PE1_HZ: f64 = 60.0e6;
/// FIFO capacity: one frame of macroblocks.
const BUFFER_MB: u64 = 1620;
/// Staircase resolution of the MPA event/cycle conversions.
const MPA_EVENTS: usize = 4096;
/// PE2 clock for measuring FIFO-input times: fast enough that the
/// simulation drains quickly (the input side does not depend on it).
const FAST_PE2_HZ: f64 = 1.0e9;

/// The workload at one scale.
#[derive(Debug, Clone, Copy)]
pub struct CaseStudy {
    clips: usize,
    gops: usize,
    /// Analysis window in frames.
    window_frames: usize,
}

impl CaseStudy {
    /// The workload at `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                clips: 14,
                gops: 4,
                window_frames: 24,
            },
            Scale::Small => Self {
                clips: 3,
                gops: 1,
                window_frames: 12,
            },
        }
    }
}

/// The encoded clip library.
#[derive(Debug)]
pub struct Input {
    library: Vec<u8>,
    /// The synthesized clips, held so the set-up's memory stays resident
    /// and the first pass's memory is its own.
    clips: Vec<ClipWorkload>,
    params: VideoParams,
}

/// Synthesizes `count` standard clips with profile seeds derived from
/// `seed` under `tag`.
///
/// # Errors
///
/// Propagates synthesis errors.
pub fn synthesize(
    seed: u64,
    tag: u64,
    count: usize,
    gops: usize,
) -> Result<(Vec<ClipWorkload>, VideoParams), Error> {
    let _span = span("mpeg.synthesize");
    let params = VideoParams::main_profile_main_level()?;
    let synth = Synthesizer::new(params);
    let clips = standard_clips()
        .into_iter()
        .take(count)
        .enumerate()
        .map(|(i, mut profile)| {
            profile.seed = derive(seed, tag + i as u64);
            synth.generate(&profile, gops)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((clips, params))
}

/// Encodes clips as one `.wcmt` library.
#[must_use]
pub fn encode_library(clips: &[ClipWorkload]) -> Vec<u8> {
    let _span = span("wire.encode");
    let mut enc = StreamEncoder::new();
    for clip in clips {
        append_clip(&mut enc, clip);
    }
    enc.finish()
}

fn times_to_trace(times: &[f64]) -> Result<TimedTrace, Error> {
    let mut reg = TypeRegistry::new();
    let mb = reg.register("mb", ExecutionInterval::fixed(Cycles(1)))?;
    Ok(TimedTrace::new(
        reg,
        times
            .iter()
            .map(|&time| TimedEvent { time, ty: mb })
            .collect(),
    )?)
}

fn pipeline(clip: &ClipWorkload, pe2_hz: f64) -> PipelineConfig {
    PipelineConfig {
        bitrate_bps: clip.params().bitrate_bps(),
        pe1_hz: PE1_HZ,
        pe2_hz,
    }
}

/// Per-clip analysis results.
#[derive(Debug)]
pub struct Out {
    _clips: Vec<ClipWorkload>,
    _alphas: Vec<StepCurve>,
    _bounds: WorkloadBounds,
}

impl Workload for CaseStudy {
    type Input = Input;
    type Ready = ();
    type Out = Out;

    fn setup(&self, seed: u64) -> Result<Input, Error> {
        let (clips, params) = synthesize(seed, 0xC11F_0000, self.clips, self.gops)?;
        let library = encode_library(&clips);
        Ok(Input {
            library,
            clips,
            params,
        })
    }

    fn prepare(&self, _input: &Input, _par: Parallelism) -> Result<(), Error> {
        Ok(())
    }

    fn pass(&self, input: &Input, (): (), par: Parallelism) -> Result<(Out, Check), Error> {
        let decoded = {
            let _span = span("wire.decode");
            decode(&input.library, DecodePolicy::Strict)?
        };
        let clips = {
            let _span = span("mpeg.clips_from_app_frames");
            clips_from_app_frames(&decoded.app_frames, true)?
        };
        let report = decoded.report;
        drop(decoded);

        let mb = input.params.mb_per_frame();
        let shortest = clips.iter().map(ClipWorkload::macroblock_count).min();
        let k_max = (self.window_frames * mb).min(shortest.unwrap_or(0));
        let mode = WindowMode::Strided {
            exact_upto: mb,
            stride: mb / 10,
        };

        let mut alphas = Vec::with_capacity(clips.len());
        let mut per_clip = Vec::with_capacity(clips.len());
        let mut merged_alpha: Option<StepCurve> = None;
        for clip in &clips {
            let fifo_in = {
                let _span = span("sim.pe1_simulate");
                simulate_pipeline(clip, &pipeline(clip, FAST_PE2_HZ))?.fifo_in_times
            };
            let alpha = {
                let _span = span("core.arrival_upper");
                let alpha = arrival_upper_with(&times_to_trace(&fifo_in)?, k_max, mode, par)?;
                merged_alpha = Some(match merged_alpha {
                    Some(m) => m.max(&alpha)?,
                    None => alpha.clone(),
                });
                alpha
            };
            alphas.push(alpha);
            let bounds = {
                let _span = span("events.window_sums");
                let demands = clip.pe2_demands();
                WorkloadBounds {
                    upper: UpperWorkloadCurve::new(max_window_sums_with(
                        &demands, k_max, mode, par,
                    )?)?,
                    lower: LowerWorkloadCurve::new(min_window_sums_with(
                        &demands, k_max, mode, par,
                    )?)?,
                }
            };
            per_clip.push(bounds);
        }
        let merged_alpha = merged_alpha.ok_or("the clip library is empty")?;

        let (bounds, f_gamma, f_wcet) = {
            let _span = span("core.min_frequency");
            let bounds = WorkloadBounds::merge_all(&per_clip)?;
            let f_gamma = sizing::min_frequency_workload(&merged_alpha, &bounds.upper, BUFFER_MB)?;
            let f_wcet = sizing::min_frequency_wcet(&merged_alpha, bounds.upper.wcet(), BUFFER_MB)?;
            (bounds, f_gamma, f_wcet)
        };

        // Oracles that hold for the whole library: every clip decoded,
        // γˡ ≤ γᵘ for every clip and the merged bounds, and eq. 9 ≤ eq. 10.
        let global_ok = {
            let _span = span("bench.check");
            clips.len() == input.clips.len()
                && verify::bounds_are_consistent(&bounds)
                && per_clip.iter().all(verify::bounds_are_consistent)
                && f_gamma <= f_wcet
                && report.is_clean()
        };
        let mut digest = Digest::default();
        digest.f64(f_gamma);
        digest.f64(f_wcet);

        let pe2 = Pe::dedicated(f_gamma)?;
        let mut failed = 0u64;
        for (clip, alpha) in clips.iter().zip(&alphas) {
            let gpc = {
                let _span = span("core.greedy_processing");
                greedy_processing(
                    &EventStream::from_upper_staircase(alpha),
                    &pe2,
                    &bounds,
                    MPA_EVENTS,
                )?
            };
            let sim = {
                let _span = span("sim.validate_simulate");
                simulate_pipeline(clip, &pipeline(clip, f_gamma))?
            };
            let worst_latency = sim
                .fifo_in_times
                .iter()
                .zip(&sim.fifo_out_times)
                .map(|(i, o)| o - i)
                .fold(0.0f64, f64::max);
            // The simulated backlog at F_γ fits the sized buffer, and the
            // MPA bounds dominate the simulated backlog and delay.
            let clip_ok = sim.max_backlog <= BUFFER_MB
                && sim.max_backlog <= gpc.backlog_events
                && worst_latency <= gpc.delay + 1e-9;
            if !clip_ok {
                failed += 1;
            }
            digest.u64(sim.max_backlog);
            digest.u64(gpc.backlog_events);
            digest.f64(gpc.delay);
            digest.f64(worst_latency);
        }

        // A library-wide failure fails every clip.
        if !global_ok {
            failed = input.clips.len() as u64;
        }
        let events: usize = clips.iter().map(ClipWorkload::macroblock_count).sum();
        let check = Check {
            digest: digest.finish(),
            attempted: input.clips.len() as u64,
            failed,
            events: events as u64,
            points: clips.len() as u64,
            sessions: input.clips.len() as u64,
            facts: vec![
                ("wire.frames", report.frames_read as f64),
                ("wire.frames_skipped", report.frames_skipped as f64),
                ("wire.decoded_bytes", input.library.len() as f64),
            ],
        };
        Ok((
            Out {
                _clips: clips,
                _alphas: alphas,
                _bounds: bounds,
            },
            check,
        ))
    }
}
