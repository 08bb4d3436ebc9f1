//! The CBR → PE₁ → FIFO → PE₂ pipeline model (Fig. 5 of the paper).
//!
//! One transaction per macroblock:
//!
//! 1. compressed bits arrive at the constant channel rate; macroblock `i`
//!    is parseable once all its bits (cumulative prefix) have arrived;
//! 2. PE₁ decodes macroblocks in order (VLD+IQ, `pe1_cycles/F₁` seconds
//!    each) and pushes each into the FIFO as it finishes — these push
//!    timestamps are the paper's measured macroblock arrival process `ᾱ`;
//! 3. PE₂ pops in order (IDCT+MC, `pe2_cycles/F₂` each); a macroblock
//!    occupies its FIFO slot from push until PE₂ *finishes* it (the
//!    in-service transaction still holds its buffer).
//!
//! The FIFO can run unbounded (the paper's measurement setup, capacity
//! checked a posteriori as in Fig. 7) or bounded with an explicit
//! [`OverflowPolicy`] so overload degrades gracefully: blocking-write
//! backpressure, rejection of the incoming macroblock, or priority
//! dropping that sacrifices B-frame macroblocks before P before I.
//!
//! [`simulate_pipeline_robust`] additionally threads a seeded
//! [`FaultPlan`] through the stream and can feed every macroblock PE₂
//! consumes into an online [`EnvelopeMonitor`], turning the a-posteriori
//! backlog check into a live verdict against `γᵘ/γˡ`.
//!
//! # Hot path
//!
//! The event loop does not use a binary heap. At any instant at most one
//! `Pe1Done` and one `Pe2Done` event are outstanding, and every `BitsReady`
//! time is known up front, so the next event is the minimum of a sorted
//! arrival arena cursor and two slots — O(1) per event, no per-event
//! allocation. Tie-breaking replicates the former heap's `(time, seq)`
//! order exactly: arrivals were pushed first (seq `0..n`, so a stable sort
//! by time preserves their index order and ranks them before same-time PE
//! completions), and PE completions take increasing sequence numbers at
//! schedule time. [`SimScratch`] makes all per-run buffers reusable so a
//! design-space sweep can evaluate thousands of points without touching
//! the allocator; [`simulate_faulted`] is the scratch-aware entry point
//! over a shared, read-only [`FaultedWorkload`].

use crate::faults::{FaultPlan, FaultReport, FaultedWorkload};
use crate::SimError;
use std::collections::VecDeque;
use wcm_core::monitor::EnvelopeMonitor;
use wcm_mpeg::params::FrameKind;
use wcm_mpeg::ClipWorkload;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Channel rate in bits per second.
    pub bitrate_bps: f64,
    /// PE₁ clock in Hz.
    pub pe1_hz: f64,
    /// PE₂ clock in Hz.
    pub pe2_hz: f64,
}

/// What a bounded FIFO does when a push would exceed its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Blocking write: PE₁ stalls until PE₂ frees a slot (lossless).
    #[default]
    Backpressure,
    /// The incoming macroblock is discarded; PE₁ keeps decoding.
    Reject,
    /// The lowest-priority macroblock among the queued ones and the
    /// incoming one is discarded — B-frame macroblocks before P before I,
    /// newest first within a priority class. The macroblock in service at
    /// PE₂ is never dropped.
    DropByPriority,
}

/// FIFO sizing and overflow behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FifoConfig {
    /// Capacity in macroblocks, counting the one in service at PE₂;
    /// `None` = unbounded (the overflow policy is then irrelevant).
    pub capacity: Option<u64>,
    /// Behavior when a push finds the FIFO full.
    pub policy: OverflowPolicy,
}

impl FifoConfig {
    /// An unbounded FIFO (the paper's measurement setup).
    #[must_use]
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A bounded FIFO with the given policy.
    #[must_use]
    pub fn bounded(capacity: u64, policy: OverflowPolicy) -> Self {
        Self {
            capacity: Some(capacity),
            policy,
        }
    }
}

/// MPEG drop priority: B is most expendable, I least (reference frames).
fn frame_priority(kind: FrameKind) -> u8 {
    match kind {
        FrameKind::B => 0,
        FrameKind::P => 1,
        FrameKind::I => 2,
    }
}

/// Result of one pipeline simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineResult {
    /// Time each macroblock entered the FIFO (PE₁ completion, or the later
    /// un-blocking instant under backpressure), seconds. A dropped
    /// macroblock carries its drop instant.
    pub fifo_in_times: Vec<f64>,
    /// Time each macroblock left the FIFO (PE₂ completion, or the drop
    /// instant for discarded macroblocks), seconds.
    pub fifo_out_times: Vec<f64>,
    /// Maximum FIFO occupancy in macroblocks (including the one in
    /// service at PE₂).
    pub max_backlog: u64,
    /// Total PE₁ busy time, seconds.
    pub pe1_busy: f64,
    /// Total PE₂ busy time, seconds.
    pub pe2_busy: f64,
    /// Time PE₁ spent blocked on a full FIFO (0 without backpressure).
    pub pe1_stalled: f64,
    /// Completion time of the last macroblock PE₂ processed.
    pub makespan: f64,
    /// Stream indices of macroblocks discarded by `Reject` /
    /// `DropByPriority` (empty for lossless runs), in drop order.
    pub dropped: Vec<usize>,
}

/// Result of [`simulate_pipeline_robust`]: the pipeline outcome plus what
/// the fault plan did to the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustPipelineResult {
    /// The simulation outcome over the (possibly faulted) stream.
    pub pipeline: PipelineResult,
    /// Injection counters (all zero without a fault plan).
    pub faults: FaultReport,
    /// Length of the stream actually simulated (drops/duplications change
    /// it relative to `clip.macroblock_count()`).
    pub stream_len: usize,
}

/// Reusable per-run buffers for the pipeline simulator. A sweep worker
/// creates one and passes it to [`simulate_faulted`] for every point it
/// evaluates: after the first run no allocation happens (buffers are
/// cleared, not freed), and workers share no state.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// `(bits-ready time, stream index)`, sorted by `(time, index)`.
    ready: Vec<(f64, usize)>,
    available: Vec<bool>,
    fifo: VecDeque<usize>,
    fifo_in: Vec<f64>,
    fifo_out: Vec<f64>,
    dropped: Vec<usize>,
}

impl SimScratch {
    /// Empty scratch; buffers grow on first use and are reused afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        self.ready.clear();
        self.ready.reserve(n);
        self.available.clear();
        self.available.resize(n, false);
        self.fifo.clear();
        self.fifo_in.clear();
        self.fifo_in.resize(n, 0.0);
        self.fifo_out.clear();
        self.fifo_out.resize(n, 0.0);
        self.dropped.clear();
    }
}

/// Allocation-free digest of one pipeline run — what a design-space sweep
/// needs from a point without materializing per-macroblock time vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineSummary {
    /// Maximum FIFO occupancy in macroblocks (including the one in service).
    pub max_backlog: u64,
    /// Whether any push found the FIFO full (a backpressure stall or a
    /// drop, depending on the policy). Always `false` for an unbounded run.
    pub overflowed: bool,
    /// Number of macroblocks discarded by `Reject`/`DropByPriority`.
    pub dropped: usize,
    /// Time PE₁ spent blocked on a full FIFO (0 without backpressure).
    pub pe1_stalled: f64,
    /// Total PE₂ busy time, seconds.
    pub pe2_busy: f64,
    /// Completion time of the last macroblock PE₂ processed.
    pub makespan: f64,
}

/// Simulates the clip through the pipeline with an unbounded FIFO
/// (the paper's measurement setup: capacity is checked a posteriori).
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for non-positive rates and
/// [`SimError::EmptyWorkload`] for a clip without macroblocks.
pub fn simulate_pipeline(
    clip: &ClipWorkload,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, SimError> {
    let w = FaultedWorkload::clean(clip)?;
    run_full(
        &w,
        cfg,
        &FifoConfig::unbounded(),
        SourceModel::Cbr,
        clip.params().frame_period(),
        None,
    )
}

/// Simulates the clip with a *bounded* FIFO of `capacity` macroblocks and
/// blocking-write backpressure: PE₁ stalls when the FIFO (including the
/// macroblock in service at PE₂) is full, resuming as PE₂ frees slots.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] if `capacity` is 0 or the rates
/// are invalid, [`SimError::EmptyWorkload`] for an empty clip.
pub fn simulate_pipeline_bounded(
    clip: &ClipWorkload,
    cfg: &PipelineConfig,
    capacity: u64,
) -> Result<PipelineResult, SimError> {
    let fifo = FifoConfig::bounded(capacity, OverflowPolicy::Backpressure);
    validate_fifo(&fifo)?;
    let w = FaultedWorkload::clean(clip)?;
    run_full(
        &w,
        cfg,
        &fifo,
        SourceModel::Cbr,
        clip.params().frame_period(),
        None,
    )
}

/// How compressed bits reach PE₁.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SourceModel {
    /// Continuous constant-bit-rate channel at `PipelineConfig::bitrate_bps`
    /// — the paper's setup and the default of [`simulate_pipeline`].
    Cbr,
    /// Frame-burst delivery (VBR-style transport): each picture's bits
    /// become available starting at its release instant (one frame period
    /// apart) and stream in at `peak_bps` — idle gaps between pictures
    /// instead of a smooth channel.
    FrameBurst {
        /// Peak delivery rate within a burst, bits per second.
        peak_bps: f64,
    },
}

/// [`simulate_pipeline`] with an explicit [`SourceModel`].
///
/// # Errors
///
/// Same conditions as [`simulate_pipeline`], plus
/// [`SimError::InvalidParameter`] for a non-positive `peak_bps`.
pub fn simulate_pipeline_with_source(
    clip: &ClipWorkload,
    cfg: &PipelineConfig,
    source: SourceModel,
) -> Result<PipelineResult, SimError> {
    validate_source(&source)?;
    let w = FaultedWorkload::clean(clip)?;
    run_full(
        &w,
        cfg,
        &FifoConfig::unbounded(),
        source,
        clip.params().frame_period(),
        None,
    )
}

/// The full-control entry point: seeded fault injection, bounded FIFO with
/// an explicit overflow policy, and optional online envelope monitoring of
/// the demand stream PE₂ consumes.
///
/// With `plan` absent (or a clean plan), `FifoConfig::unbounded()` and no
/// monitor, the [`PipelineResult`] is bit-identical to
/// [`simulate_pipeline`]'s — the robust path costs nothing on the clean
/// path (regression-tested).
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for invalid rates, a zero
/// capacity or a non-positive `peak_bps`; [`SimError::EmptyWorkload`] for
/// an empty clip; [`SimError::InvalidInjector`] /
/// [`SimError::AllEventsDropped`] from the fault plan.
pub fn simulate_pipeline_robust(
    clip: &ClipWorkload,
    cfg: &PipelineConfig,
    fifo: &FifoConfig,
    source: SourceModel,
    plan: Option<&FaultPlan>,
    monitor: Option<&mut EnvelopeMonitor>,
) -> Result<RobustPipelineResult, SimError> {
    validate_fifo(fifo)?;
    validate_source(&source)?;
    let w = match plan {
        Some(p) => p.apply(clip)?,
        None => FaultedWorkload::clean(clip)?,
    };
    let faults = w.report;
    let stream_len = w.len();
    let pipeline = run_full(
        &w,
        cfg,
        fifo,
        source,
        clip.params().frame_period(),
        monitor,
    )?;
    Ok(RobustPipelineResult {
        pipeline,
        faults,
        stream_len,
    })
}

/// The sweep-facing entry point: simulates a pre-built (possibly faulted)
/// stream with reusable scratch buffers and returns only the
/// [`PipelineSummary`] — no per-macroblock vectors, no allocation after the
/// scratch has warmed up. The `FaultedWorkload` is read-only and can be
/// shared across workers; `frame_period` is the clip's picture period
/// (`ClipWorkload::params().frame_period()`), used by the
/// [`SourceModel::FrameBurst`] release schedule.
///
/// # Errors
///
/// Same conditions as [`simulate_pipeline_robust`].
pub fn simulate_faulted(
    w: &FaultedWorkload,
    cfg: &PipelineConfig,
    fifo: &FifoConfig,
    source: SourceModel,
    frame_period: f64,
    monitor: Option<&mut EnvelopeMonitor>,
    scratch: &mut SimScratch,
) -> Result<PipelineSummary, SimError> {
    validate_fifo(fifo)?;
    validate_source(&source)?;
    let out = simulate_core(w, cfg, fifo, source, frame_period, monitor, scratch)?;
    Ok(PipelineSummary {
        max_backlog: out.max_backlog,
        overflowed: out.overflowed,
        dropped: scratch.dropped.len(),
        pe1_stalled: out.pe1_stalled,
        pe2_busy: out.pe2_busy,
        makespan: out.makespan,
    })
}

/// Runs the core with a one-shot scratch and materializes the full
/// [`PipelineResult`].
fn run_full(
    w: &FaultedWorkload,
    cfg: &PipelineConfig,
    fifo_cfg: &FifoConfig,
    source: SourceModel,
    frame_period: f64,
    monitor: Option<&mut EnvelopeMonitor>,
) -> Result<PipelineResult, SimError> {
    let mut scratch = SimScratch::new();
    let out = simulate_core(w, cfg, fifo_cfg, source, frame_period, monitor, &mut scratch)?;
    Ok(PipelineResult {
        fifo_in_times: std::mem::take(&mut scratch.fifo_in),
        fifo_out_times: std::mem::take(&mut scratch.fifo_out),
        max_backlog: out.max_backlog,
        pe1_busy: out.pe1_busy,
        pe2_busy: out.pe2_busy,
        pe1_stalled: out.pe1_stalled,
        makespan: out.makespan,
        dropped: std::mem::take(&mut scratch.dropped),
    })
}

fn validate_fifo(fifo: &FifoConfig) -> Result<(), SimError> {
    if fifo.capacity == Some(0) {
        return Err(SimError::InvalidParameter { name: "capacity" });
    }
    Ok(())
}

fn validate_source(source: &SourceModel) -> Result<(), SimError> {
    if let SourceModel::FrameBurst { peak_bps } = source {
        if !(peak_bps.is_finite() && *peak_bps > 0.0) {
            return Err(SimError::InvalidParameter { name: "peak_bps" });
        }
    }
    Ok(())
}

/// Small Copy digest the core hands back; vectors live in the scratch.
#[derive(Debug, Clone, Copy)]
struct CoreOut {
    max_backlog: u64,
    overflowed: bool,
    pe1_busy: f64,
    pe2_busy: f64,
    pe1_stalled: f64,
    makespan: f64,
}

/// Which of the three event sources fires next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    Bits,
    Pe1,
    Pe2,
}

/// `(time, seq)` strictly before the current best? Uses `total_cmp` like
/// the former heap, so ordering is total even at the representation level.
#[inline]
fn beats(t: f64, s: u64, best_t: f64, best_s: u64) -> bool {
    match t.total_cmp(&best_t) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => s < best_s,
        std::cmp::Ordering::Greater => false,
    }
}

/// Rejects the non-finite event times that injected faults or degenerate
/// configs could produce — same contract the old `EventQueue::push` had.
#[inline]
fn finite(time: f64) -> Result<f64, SimError> {
    if time.is_finite() {
        Ok(time)
    } else {
        Err(SimError::NonFiniteTime { time })
    }
}

fn simulate_core(
    w: &FaultedWorkload,
    cfg: &PipelineConfig,
    fifo_cfg: &FifoConfig,
    source: SourceModel,
    frame_period: f64,
    mut monitor: Option<&mut EnvelopeMonitor>,
    scratch: &mut SimScratch,
) -> Result<CoreOut, SimError> {
    let _span = wcm_obs::span("sim.run");
    if !(cfg.bitrate_bps.is_finite() && cfg.bitrate_bps > 0.0) {
        return Err(SimError::InvalidParameter {
            name: "bitrate_bps",
        });
    }
    if !(cfg.pe1_hz.is_finite() && cfg.pe1_hz > 0.0) {
        return Err(SimError::InvalidParameter { name: "pe1_hz" });
    }
    if !(cfg.pe2_hz.is_finite() && cfg.pe2_hz > 0.0) {
        return Err(SimError::InvalidParameter { name: "pe2_hz" });
    }
    let n = w.len();
    if n == 0 {
        return Err(SimError::EmptyWorkload);
    }
    let capacity = fifo_cfg.capacity;
    let policy = fifo_cfg.policy;
    scratch.reset(n);

    match source {
        SourceModel::Cbr => {
            // Bits arrive continuously; MB i is complete at cum_bits/rate,
            // shifted by any injected transport jitter. `x + 0.0 == x`
            // exactly, so a clean stream reproduces the unfaulted times
            // bit-for-bit.
            let mut cum = 0.0f64;
            for i in 0..n {
                cum += w.bits[i] as f64;
                let t = finite(cum / cfg.bitrate_bps + w.arrival_delay_s[i])?;
                scratch.ready.push((t, i));
            }
        }
        SourceModel::FrameBurst { peak_bps } => {
            // Each picture's bits stream in at the peak rate from its
            // release instant (or the end of the previous burst, whichever
            // is later). Faulted streams keep their original frame index,
            // so drops/duplications don't shift later pictures' releases.
            let mut channel_free = 0.0f64;
            let mut current_frame = usize::MAX;
            let mut t = 0.0f64;
            for i in 0..n {
                if w.frame_of[i] != current_frame {
                    current_frame = w.frame_of[i];
                    t = channel_free.max(current_frame as f64 * frame_period);
                }
                t += w.bits[i].max(1) as f64 / peak_bps;
                scratch.ready.push((finite(t + w.arrival_delay_s[i])?, i));
                channel_free = t;
            }
        }
    }
    // Clean streams are already time-sorted; injected jitter may reorder.
    // A *stable* sort by time preserves the index order of ties, which is
    // exactly the former heap's ordering of the seq-`0..n` arrival events.
    if scratch
        .ready
        .windows(2)
        .any(|p| p[1].0.total_cmp(&p[0].0).is_lt())
    {
        scratch.ready.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    // PE service times including injected clock drift (multiplicative) and
    // stalls (additive); both neutral elements are exact in IEEE-754, so
    // the clean path is unchanged bit-for-bit.
    let pe1_time = |i: usize| (w.pe1_cycles[i] as f64 / cfg.pe1_hz) * w.pe1_scale[i] + w.pe1_extra_s[i];
    let pe2_time = |i: usize| (w.pe2_cycles[i] as f64 / cfg.pe2_hz) * w.pe2_scale[i] + w.pe2_extra_s[i];

    let mut next_pe1 = 0usize; // next MB index PE1 will start
    let mut pe1_idle = true;
    // A finished macroblock PE1 could not push (full FIFO) and its finish
    // time: PE1 is stalled while this is occupied (Backpressure only).
    let mut pe1_held: Option<(usize, f64)> = None;
    let mut pe2_busy_now = false;
    let mut cursor = 0usize;
    // Pending PE completions: `(time, seq, mb)`. The former heap assigned
    // seq `0..n` to the arrival events and then incremented per push, so PE
    // completions start at `n` and same-time arrivals always fire first.
    let mut pe1_slot: Option<(f64, u64, usize)> = None;
    let mut pe2_slot: Option<(f64, u64, usize)> = None;
    let mut next_seq = n as u64;
    let mut max_backlog = 0u64;
    let mut overflowed = false;
    let mut pe1_busy = 0.0f64;
    let mut pe2_busy = 0.0f64;
    let mut pe1_stalled = 0.0f64;
    let mut makespan = 0.0f64;

    loop {
        // The next event: minimum (time, seq) among the arrival cursor and
        // the two completion slots.
        let mut best: Option<(f64, u64, Next)> = None;
        if cursor < n {
            let (t, i) = scratch.ready[cursor];
            best = Some((t, i as u64, Next::Bits));
        }
        for (slot, which) in [(&pe1_slot, Next::Pe1), (&pe2_slot, Next::Pe2)] {
            if let Some(&(t, s, _)) = slot.as_ref() {
                if best.is_none_or(|(bt, bs, _)| beats(t, s, bt, bs)) {
                    best = Some((t, s, which));
                }
            }
        }
        let Some((now, _, which)) = best else { break };
        match which {
            Next::Bits => {
                let i = scratch.ready[cursor].1;
                cursor += 1;
                scratch.available[i] = true;
                if pe1_idle && pe1_held.is_none() && i == next_pe1 {
                    pe1_idle = false;
                    let dt = pe1_time(i);
                    pe1_busy += dt;
                    pe1_slot = Some((finite(now + dt)?, next_seq, i));
                    next_seq += 1;
                }
            }
            Next::Pe1 => {
                let i = pe1_slot.take().map(|(_, _, i)| i).unwrap_or(0);
                next_pe1 = i + 1;
                let resident = scratch.fifo.len() as u64 + u64::from(pe2_busy_now);
                let full = capacity.is_some_and(|c| resident >= c);
                overflowed |= full;
                // Occupancy bookkeeping resolves equal-time ties dequeue-
                // first (as the interval sweep in `stats::max_occupancy`
                // does): an in-service MB whose completion is also at `now`
                // has already left for accounting purposes.
                let pe2_live = pe2_busy_now
                    && pe2_slot.is_none_or(|(t, _, _)| t.total_cmp(&now).is_gt());
                if full && policy == OverflowPolicy::Backpressure {
                    // Backpressure: hold the macroblock; PE1 stalls.
                    pe1_held = Some((i, now));
                    pe1_idle = true;
                } else {
                    if !full {
                        scratch.fifo_in[i] = now;
                        scratch.fifo.push_back(i);
                        max_backlog = max_backlog
                            .max(scratch.fifo.len() as u64 + u64::from(pe2_live));
                    } else {
                        match policy {
                            OverflowPolicy::Backpressure => unreachable!("handled above"),
                            OverflowPolicy::Reject => {
                                // Discard the incoming macroblock.
                                scratch.fifo_in[i] = now;
                                scratch.fifo_out[i] = now;
                                scratch.dropped.push(i);
                            }
                            OverflowPolicy::DropByPriority => {
                                // Victim: lowest frame priority among the
                                // queued macroblocks and the incoming one;
                                // ties go to the newest (the incoming one
                                // is newest of all). Scanning back-to-front
                                // with a strict `<` picks exactly that; once
                                // `best` is 0 (a B frame) nothing can beat it.
                                let mut victim: Option<usize> = None;
                                let mut best = frame_priority(w.kinds[i]);
                                for pos in (0..scratch.fifo.len()).rev() {
                                    if best == 0 {
                                        break;
                                    }
                                    let pq = frame_priority(w.kinds[scratch.fifo[pos]]);
                                    if pq < best {
                                        best = pq;
                                        victim = Some(pos);
                                    }
                                }
                                match victim {
                                    None => {
                                        // The incoming macroblock is the victim.
                                        scratch.fifo_in[i] = now;
                                        scratch.fifo_out[i] = now;
                                        scratch.dropped.push(i);
                                    }
                                    Some(pos) => {
                                        let v = scratch.fifo.remove(pos).unwrap_or(i);
                                        scratch.fifo_out[v] = now;
                                        scratch.dropped.push(v);
                                        scratch.fifo_in[i] = now;
                                        scratch.fifo.push_back(i);
                                        max_backlog = max_backlog.max(
                                            scratch.fifo.len() as u64
                                                + u64::from(pe2_live),
                                        );
                                    }
                                }
                            }
                        }
                    }
                    if next_pe1 < n && scratch.available[next_pe1] {
                        let dt = pe1_time(next_pe1);
                        pe1_busy += dt;
                        pe1_slot = Some((finite(now + dt)?, next_seq, next_pe1));
                        next_seq += 1;
                    } else {
                        pe1_idle = true;
                    }
                    if !pe2_busy_now {
                        if let Some(j) = scratch.fifo.pop_front() {
                            pe2_busy_now = true;
                            if let Some(m) = monitor.as_deref_mut() {
                                m.observe(w.pe2_cycles[j]);
                            }
                            let dt = pe2_time(j);
                            pe2_busy += dt;
                            pe2_slot = Some((finite(now + dt)?, next_seq, j));
                            next_seq += 1;
                        }
                    }
                }
            }
            Next::Pe2 => {
                let i = pe2_slot.take().map(|(_, _, i)| i).unwrap_or(0);
                scratch.fifo_out[i] = now;
                makespan = makespan.max(now);
                pe2_busy_now = false;
                // A freed slot first admits the held macroblock, if any.
                if let Some((h, since)) = pe1_held.take() {
                    pe1_stalled += now - since;
                    scratch.fifo_in[h] = now;
                    scratch.fifo.push_back(h);
                    max_backlog =
                        max_backlog.max(scratch.fifo.len() as u64 + u64::from(pe2_busy_now));
                    // PE1 resumes with the next macroblock.
                    if next_pe1 < n && scratch.available[next_pe1] {
                        pe1_idle = false;
                        let dt = pe1_time(next_pe1);
                        pe1_busy += dt;
                        pe1_slot = Some((finite(now + dt)?, next_seq, next_pe1));
                        next_seq += 1;
                    }
                }
                if let Some(j) = scratch.fifo.pop_front() {
                    pe2_busy_now = true;
                    if let Some(m) = monitor.as_deref_mut() {
                        m.observe(w.pe2_cycles[j]);
                    }
                    let dt = pe2_time(j);
                    pe2_busy += dt;
                    pe2_slot = Some((finite(now + dt)?, next_seq, j));
                    next_seq += 1;
                }
            }
        }
    }

    // Post-run digests only: nothing is recorded inside the event loop, so
    // the instrumented hot path costs one branch per simulation when the
    // recorder is disabled.
    if wcm_obs::enabled() {
        wcm_obs::counter("sim.runs", 1);
        wcm_obs::counter("sim.events", n as u64);
        wcm_obs::gauge_max("sim.backlog_high_water", max_backlog);
        if overflowed {
            wcm_obs::counter("sim.overflow_runs", 1);
        }
        if !scratch.dropped.is_empty() {
            wcm_obs::counter("sim.dropped_mbs", scratch.dropped.len() as u64);
        }
    }

    Ok(CoreOut {
        max_backlog,
        overflowed,
        pe1_busy,
        pe2_busy,
        pe1_stalled,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Injector;
    use wcm_mpeg::demand::{Pe1Model, Pe2Model};
    use wcm_mpeg::mb::{Macroblock, MacroblockClass};
    use wcm_mpeg::params::{FrameKind, GopStructure, VideoParams};
    use wcm_mpeg::workload::FrameWorkload;

    /// A hand-sized workload: `n` identical intra macroblocks of 100 bits.
    fn tiny_clip(n: usize) -> ClipWorkload {
        tiny_clip_kinds(&vec![FrameKind::I; n])
    }

    /// Like `tiny_clip`, but one single-macroblock frame per entry of
    /// `kinds` — for exercising the priority-drop policy.
    fn tiny_clip_kinds(kinds: &[FrameKind]) -> ClipWorkload {
        let params =
            VideoParams::new(16, 16, 25.0, 1.0e4, GopStructure::new(1, 1).unwrap()).unwrap();
        let frames: Vec<FrameWorkload> = kinds
            .iter()
            .map(|&kind| {
                let mb = Macroblock {
                    frame: kind,
                    class: MacroblockClass::Intra { coded_blocks: 2 },
                    bits: 100,
                };
                FrameWorkload::new(kind, vec![mb])
            })
            .collect();
        ClipWorkload::new(
            "tiny".into(),
            params,
            Pe1Model {
                base: 0,
                cycles_per_bit: 1.0,
                iq_per_block: 0,
            },
            Pe2Model {
                base: 1000,
                idct_per_block: 0,
                mc_single: 0,
                mc_single_field: 0,
                mc_bidirectional: 0,
                mc_bidirectional_field: 0,
                skip_copy: 0,
            },
            frames,
        )
    }

    #[test]
    fn hand_computed_timeline() {
        // 3 MBs × 100 bits at 100 bit/s → bits ready at 1, 2, 3 s.
        // PE1: 100 cycles at 100 Hz → 1 s per MB, but always waits for
        // bits: finishes at 2, 3, 4 s.
        // PE2: 1000 cycles at 1000 Hz → 1 s per MB: finishes at 3, 4, 5 s.
        let clip = tiny_clip(3);
        let r = simulate_pipeline(
            &clip,
            &PipelineConfig {
                bitrate_bps: 100.0,
                pe1_hz: 100.0,
                pe2_hz: 1000.0,
            },
        )
        .unwrap();
        let expect_in = [2.0, 3.0, 4.0];
        let expect_out = [3.0, 4.0, 5.0];
        for i in 0..3 {
            assert!((r.fifo_in_times[i] - expect_in[i]).abs() < 1e-9, "in {i}");
            assert!(
                (r.fifo_out_times[i] - expect_out[i]).abs() < 1e-9,
                "out {i}"
            );
        }
        assert_eq!(r.max_backlog, 1);
        assert!((r.makespan - 5.0).abs() < 1e-9);
        assert!((r.pe1_busy - 3.0).abs() < 1e-9);
        assert!((r.pe2_busy - 3.0).abs() < 1e-9);
        assert!(r.dropped.is_empty());
    }

    #[test]
    fn slow_pe2_accumulates_backlog() {
        // PE2 at 250 Hz → 4 s per MB while PE1 emits one per second.
        let clip = tiny_clip(5);
        let r = simulate_pipeline(
            &clip,
            &PipelineConfig {
                bitrate_bps: 100.0,
                pe1_hz: 100.0,
                pe2_hz: 250.0,
            },
        )
        .unwrap();
        assert!(r.max_backlog >= 3, "backlog {}", r.max_backlog);
        // FIFO discipline: out times strictly increasing.
        for w in r.fifo_out_times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn fast_pe2_keeps_backlog_at_one() {
        let clip = tiny_clip(10);
        let r = simulate_pipeline(
            &clip,
            &PipelineConfig {
                bitrate_bps: 100.0,
                pe1_hz: 100.0,
                pe2_hz: 1.0e6,
            },
        )
        .unwrap();
        assert_eq!(r.max_backlog, 1);
    }

    #[test]
    fn conservation_and_ordering_on_synthetic_clip() {
        let params = VideoParams::new(
            160,
            128,
            25.0,
            1.0e6,
            GopStructure::broadcast(),
        )
        .unwrap();
        let clip = wcm_mpeg::Synthesizer::new(params)
            .generate(&wcm_mpeg::profile::standard_clips()[4], 1)
            .unwrap();
        let r = simulate_pipeline(
            &clip,
            &PipelineConfig {
                bitrate_bps: 1.0e6,
                pe1_hz: 20.0e6,
                pe2_hz: 50.0e6,
            },
        )
        .unwrap();
        let n = clip.macroblock_count();
        assert_eq!(r.fifo_in_times.len(), n);
        assert_eq!(r.fifo_out_times.len(), n);
        for i in 0..n {
            assert!(r.fifo_out_times[i] >= r.fifo_in_times[i]);
        }
        for w in r.fifo_in_times.windows(2) {
            assert!(w[1] >= w[0], "PE1 output must be in order");
        }
        // Work conservation: busy times equal total demand / frequency.
        let pe2_total: u64 = clip.pe2_demands().iter().sum();
        assert!((r.pe2_busy - pe2_total as f64 / 50.0e6).abs() < 1e-9);
    }

    #[test]
    fn higher_pe2_clock_reduces_backlog() {
        let params = VideoParams::new(
            160,
            128,
            25.0,
            1.0e6,
            GopStructure::broadcast(),
        )
        .unwrap();
        let clip = wcm_mpeg::Synthesizer::new(params)
            .generate(&wcm_mpeg::profile::standard_clips()[10], 1)
            .unwrap();
        let base = PipelineConfig {
            bitrate_bps: 1.0e6,
            pe1_hz: 20.0e6,
            pe2_hz: 10.0e6,
        };
        let slow = simulate_pipeline(&clip, &base).unwrap();
        let fast = simulate_pipeline(
            &clip,
            &PipelineConfig {
                pe2_hz: 100.0e6,
                ..base
            },
        )
        .unwrap();
        assert!(fast.max_backlog <= slow.max_backlog);
    }

    #[test]
    fn frame_burst_source_is_burstier_than_cbr() {
        // Same clip, same long-run bits: the frame-burst source delivers
        // each picture fast then idles, so PE1's input is available earlier
        // within each frame and the FIFO sees sharper bursts.
        let params = VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast())
            .unwrap();
        let clip = wcm_mpeg::Synthesizer::new(params)
            .generate(&wcm_mpeg::profile::standard_clips()[12], 1)
            .unwrap();
        let cfg = PipelineConfig {
            bitrate_bps: 1.0e6,
            pe1_hz: 20.0e6,
            pe2_hz: 30.0e6,
        };
        let cbr = simulate_pipeline(&clip, &cfg).unwrap();
        let burst = simulate_pipeline_with_source(
            &clip,
            &cfg,
            SourceModel::FrameBurst { peak_bps: 4.0e6 },
        )
        .unwrap();
        assert!(burst.max_backlog >= cbr.max_backlog);
        // Conservation still holds.
        assert_eq!(burst.fifo_out_times.len(), clip.macroblock_count());
        for w in burst.fifo_in_times.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn frame_burst_validates_peak() {
        let clip = tiny_clip(2);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 100.0,
        };
        assert!(simulate_pipeline_with_source(
            &clip,
            &cfg,
            SourceModel::FrameBurst { peak_bps: 0.0 }
        )
        .is_err());
    }

    #[test]
    fn cbr_source_model_matches_default() {
        let clip = tiny_clip(6);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 500.0,
        };
        let a = simulate_pipeline(&clip, &cfg).unwrap();
        let b = simulate_pipeline_with_source(&clip, &cfg, SourceModel::Cbr).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn backpressure_caps_occupancy() {
        // PE2 4× slower than PE1's output: unbounded backlog grows, the
        // bounded run must stay within capacity.
        let clip = tiny_clip(12);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let unbounded = simulate_pipeline(&clip, &cfg).unwrap();
        assert!(unbounded.max_backlog > 2);
        assert_eq!(unbounded.pe1_stalled, 0.0);
        let bounded = simulate_pipeline_bounded(&clip, &cfg, 2).unwrap();
        assert!(bounded.max_backlog <= 2);
        assert!(bounded.pe1_stalled > 0.0, "PE1 must have stalled");
        // Work conservation: every macroblock still processed, in order.
        for w in bounded.fifo_out_times.windows(2) {
            assert!(w[1] > w[0]);
        }
        // PE2 does the same total work either way.
        assert!((bounded.pe2_busy - unbounded.pe2_busy).abs() < 1e-9);
    }

    #[test]
    fn large_capacity_matches_unbounded() {
        let clip = tiny_clip(10);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let unbounded = simulate_pipeline(&clip, &cfg).unwrap();
        let bounded =
            simulate_pipeline_bounded(&clip, &cfg, unbounded.max_backlog).unwrap();
        assert_eq!(bounded, unbounded);
    }

    #[test]
    fn bounded_rejects_zero_capacity() {
        let clip = tiny_clip(1);
        let cfg = PipelineConfig {
            bitrate_bps: 1.0,
            pe1_hz: 1.0,
            pe2_hz: 1.0,
        };
        assert!(simulate_pipeline_bounded(&clip, &cfg, 0).is_err());
        assert!(simulate_pipeline_robust(
            &clip,
            &cfg,
            &FifoConfig::bounded(0, OverflowPolicy::Reject),
            SourceModel::Cbr,
            None,
            None,
        )
        .is_err());
    }

    #[test]
    fn validates_config() {
        let clip = tiny_clip(1);
        let ok = PipelineConfig {
            bitrate_bps: 1.0,
            pe1_hz: 1.0,
            pe2_hz: 1.0,
        };
        assert!(simulate_pipeline(&clip, &PipelineConfig { bitrate_bps: 0.0, ..ok }).is_err());
        assert!(simulate_pipeline(&clip, &PipelineConfig { pe1_hz: -1.0, ..ok }).is_err());
        assert!(simulate_pipeline(&clip, &PipelineConfig { pe2_hz: f64::NAN, ..ok }).is_err());
    }

    #[test]
    fn robust_clean_run_matches_legacy_bitwise() {
        // The tentpole regression: no faults, unbounded backpressure FIFO,
        // no monitor ⇒ the robust path must reproduce the legacy result
        // bit-for-bit, on both source models.
        let params = VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast())
            .unwrap();
        let clip = wcm_mpeg::Synthesizer::new(params)
            .generate(&wcm_mpeg::profile::standard_clips()[3], 1)
            .unwrap();
        let cfg = PipelineConfig {
            bitrate_bps: 1.0e6,
            pe1_hz: 20.0e6,
            pe2_hz: 30.0e6,
        };
        for source in [SourceModel::Cbr, SourceModel::FrameBurst { peak_bps: 4.0e6 }] {
            let legacy = simulate_pipeline_with_source(&clip, &cfg, source).unwrap();
            for plan in [None, Some(FaultPlan::new(9))] {
                let robust = simulate_pipeline_robust(
                    &clip,
                    &cfg,
                    &FifoConfig::unbounded(),
                    source,
                    plan.as_ref(),
                    None,
                )
                .unwrap();
                assert_eq!(robust.pipeline, legacy);
                assert!(robust.faults.is_clean());
            }
        }
    }

    #[test]
    fn online_backlog_matches_interval_sweep() {
        // The heap-free core tracks max backlog online; the legacy path
        // derived it from the FIFO entry/exit times with an interval sweep.
        // Both must agree on every policy, capacity, and fault seed.
        let params = VideoParams::new(160, 128, 25.0, 1.0e6, GopStructure::broadcast())
            .unwrap();
        let clip = wcm_mpeg::Synthesizer::new(params)
            .generate(&wcm_mpeg::profile::standard_clips()[5], 1)
            .unwrap();
        let cfg = PipelineConfig {
            bitrate_bps: 1.0e6,
            pe1_hz: 20.0e6,
            pe2_hz: 8.0e6, // slow PE2 so bounded FIFOs actually overflow
        };
        let fifos = [
            FifoConfig::unbounded(),
            FifoConfig::bounded(3, OverflowPolicy::Backpressure),
            FifoConfig::bounded(3, OverflowPolicy::Reject),
            FifoConfig::bounded(3, OverflowPolicy::DropByPriority),
        ];
        for fifo in &fifos {
            for seed in [None, Some(7u64), Some(41)] {
                let plan = seed.map(|s| {
                    FaultPlan::new(s)
                        .with(Injector::JitterBurst {
                            start: 10,
                            len: 200,
                            max_delay_s: 0.01,
                        })
                        .with(Injector::DemandSpike {
                            start: 50,
                            len: 120,
                            factor_pct: 300,
                        })
                });
                let r = simulate_pipeline_robust(
                    &clip,
                    &cfg,
                    fifo,
                    SourceModel::Cbr,
                    plan.as_ref(),
                    None,
                )
                .unwrap()
                .pipeline;
                let swept =
                    crate::stats::max_occupancy(&r.fifo_in_times, &r.fifo_out_times);
                assert_eq!(
                    r.max_backlog, swept,
                    "fifo {fifo:?} seed {seed:?}: online backlog diverged"
                );
            }
        }
    }

    #[test]
    fn reject_policy_never_stalls_and_caps_backlog() {
        let clip = tiny_clip(12);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let r = simulate_pipeline_robust(
            &clip,
            &cfg,
            &FifoConfig::bounded(2, OverflowPolicy::Reject),
            SourceModel::Cbr,
            None,
            None,
        )
        .unwrap()
        .pipeline;
        assert!(r.max_backlog <= 2);
        assert_eq!(r.pe1_stalled, 0.0);
        assert!(!r.dropped.is_empty(), "overload must reject something");
        // Rejected macroblocks never occupy the FIFO.
        for &d in &r.dropped {
            assert_eq!(r.fifo_in_times[d], r.fifo_out_times[d]);
        }
    }

    #[test]
    fn drop_by_priority_prefers_b_over_p_over_i() {
        // Frames: I P B B P B I B B P B B — overload with capacity 2.
        // Hand trace (bits at 1..12 s, PE1 1 s/MB, PE2 4 s/MB): B(2), B(3)
        // and B(5) arrive at a full FIFO and are sacrificed; at t=8 the
        // incoming I(6) outranks the queued P(4), which is evicted; B(8) is
        // later evicted for the incoming P(9); B(7), B(10), B(11) arrive
        // full and die. No I-frame macroblock is ever lost.
        let kinds = [
            FrameKind::I,
            FrameKind::P,
            FrameKind::B,
            FrameKind::B,
            FrameKind::P,
            FrameKind::B,
            FrameKind::I,
            FrameKind::B,
            FrameKind::B,
            FrameKind::P,
            FrameKind::B,
            FrameKind::B,
        ];
        let clip = tiny_clip_kinds(&kinds);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let r = simulate_pipeline_robust(
            &clip,
            &cfg,
            &FifoConfig::bounded(2, OverflowPolicy::DropByPriority),
            SourceModel::Cbr,
            None,
            None,
        )
        .unwrap()
        .pipeline;
        assert!(r.max_backlog <= 2);
        assert_eq!(r.dropped, vec![2, 3, 5, 4, 7, 8, 10, 11]);
        let count = |kind| {
            r.dropped
                .iter()
                .filter(|&&d| kinds[d] == kind)
                .count()
        };
        // B is sacrificed first and most (7 of 8); one P falls to protect
        // an I; no I is ever dropped.
        assert_eq!(count(FrameKind::B), 7);
        assert_eq!(count(FrameKind::P), 1);
        assert_eq!(count(FrameKind::I), 0);
        // Every I macroblock was fully processed (out > in).
        for (i, &k) in kinds.iter().enumerate() {
            if k == FrameKind::I {
                assert!(r.fifo_out_times[i] > r.fifo_in_times[i], "lost {k:?} at {i}");
            }
        }
    }

    #[test]
    fn drop_by_priority_sacrifices_incoming_b_over_queued_p() {
        // Queue holds a P, incoming B: the incoming one is the victim (its
        // slot never materializes) and both references are processed.
        let kinds = [FrameKind::I, FrameKind::P, FrameKind::B, FrameKind::B];
        let clip = tiny_clip_kinds(&kinds);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let r = simulate_pipeline_robust(
            &clip,
            &cfg,
            &FifoConfig::bounded(2, OverflowPolicy::DropByPriority),
            SourceModel::Cbr,
            None,
            None,
        )
        .unwrap()
        .pipeline;
        assert_eq!(r.dropped, vec![2, 3]);
        for i in [0usize, 1] {
            assert!(r.fifo_out_times[i] > r.fifo_in_times[i]);
        }
    }

    #[test]
    fn drop_by_priority_evicts_queued_b_for_incoming_i() {
        // Queue holds a B when an I arrives at a full FIFO: the queued B
        // is evicted and the I takes its slot.
        let kinds = [FrameKind::I, FrameKind::B, FrameKind::I];
        let clip = tiny_clip_kinds(&kinds);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let r = simulate_pipeline_robust(
            &clip,
            &cfg,
            &FifoConfig::bounded(2, OverflowPolicy::DropByPriority),
            SourceModel::Cbr,
            None,
            None,
        )
        .unwrap()
        .pipeline;
        assert_eq!(r.dropped, vec![1]);
        assert!(r.fifo_out_times[2] > r.fifo_in_times[2], "the I must survive");
    }

    #[test]
    fn capacity_respected_under_faults_any_policy() {
        let clip = tiny_clip(40);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 250.0,
        };
        let plan = FaultPlan::new(21)
            .with(Injector::DuplicateEvents { per_mille: 150 })
            .with(Injector::DemandSpike {
                start: 5,
                len: 10,
                factor_pct: 300,
            })
            .with(Injector::JitterBurst {
                start: 0,
                len: 40,
                max_delay_s: 0.05,
            });
        for policy in [
            OverflowPolicy::Backpressure,
            OverflowPolicy::Reject,
            OverflowPolicy::DropByPriority,
        ] {
            let r = simulate_pipeline_robust(
                &clip,
                &cfg,
                &FifoConfig::bounded(3, policy),
                SourceModel::Cbr,
                Some(&plan),
                None,
            )
            .unwrap();
            assert!(
                r.pipeline.max_backlog <= 3,
                "{policy:?}: backlog {} exceeds capacity",
                r.pipeline.max_backlog
            );
        }
    }

    #[test]
    fn monitor_sees_consumed_demands() {
        use wcm_core::UpperWorkloadCurve;
        let clip = tiny_clip(8);
        let cfg = PipelineConfig {
            bitrate_bps: 100.0,
            pe1_hz: 100.0,
            pe2_hz: 1000.0,
        };
        // Every MB costs 1000 PE2 cycles; a γᵘ of exactly k·1000 is tight.
        let gamma = UpperWorkloadCurve::new((1..=4).map(|k| 1000 * k).collect()).unwrap();
        let mut mon = wcm_core::EnvelopeMonitor::upper_only(&gamma, 4).unwrap();
        let r = simulate_pipeline_robust(
            &clip,
            &cfg,
            &FifoConfig::unbounded(),
            SourceModel::Cbr,
            None,
            Some(&mut mon),
        )
        .unwrap();
        assert_eq!(mon.events(), 8);
        assert!(mon.is_clean());
        assert_eq!(r.stream_len, 8);
        // A demand spike above the profile must trip the monitor.
        let plan = FaultPlan::new(4).with(Injector::DemandSpike {
            start: 3,
            len: 2,
            factor_pct: 200,
        });
        let mut mon2 = wcm_core::EnvelopeMonitor::upper_only(&gamma, 4).unwrap();
        simulate_pipeline_robust(
            &clip,
            &cfg,
            &FifoConfig::unbounded(),
            SourceModel::Cbr,
            Some(&plan),
            Some(&mut mon2),
        )
        .unwrap();
        assert!(mon2.total_violations() >= 1);
    }
}
