//! Building curves from measured traces.
//!
//! The paper obtains both the workload curves `γᵘ/γˡ` and the event-based
//! arrival curve `ᾱ(Δ)` of the MPEG-2 case study by trace analysis
//! (Sec. 3.2): the workload curves from the per-macroblock demand sequence,
//! the arrival curve from the macroblock timestamps, each over a window of
//! 24 frames and maximized over 14 clips. The helpers here implement those
//! measurements for any [`Trace`]/[`TimedTrace`].

use crate::curve::{LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds};
use crate::WorkloadError;
use wcm_curves::StepCurve;
use wcm_events::summary::{Sides, SummarySpine};
use wcm_events::window::{max_spans_with, min_spans_with, Parallelism, WindowMode};
use wcm_events::{Cycles, TimedTrace, Trace};

/// Builds workload bounds for several traces and merges them
/// (max of uppers, min of lowers).
///
/// # Errors
///
/// Returns [`WorkloadError::Empty`] for an empty trace list and propagates
/// window-analysis errors (e.g. `k_max` longer than a trace).
///
/// # Example
///
/// ```
/// use wcm_core::build::bounds_from_traces;
/// use wcm_events::{window::WindowMode, Cycles, ExecutionInterval, Trace, TypeRegistry};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut reg = TypeRegistry::new();
/// let x = reg.register("x", ExecutionInterval::fixed(Cycles(4)))?;
/// let y = reg.register("y", ExecutionInterval::fixed(Cycles(1)))?;
/// let t1 = Trace::new(reg.clone(), vec![x, y, y, x]);
/// let t2 = Trace::new(reg, vec![y, x, x, y]);
/// let b = bounds_from_traces(&[t1, t2], 3, WindowMode::Exact)?;
/// assert_eq!(b.upper.value(2), Cycles(8)); // x,x occurs in t2
/// # Ok(())
/// # }
/// ```
pub fn bounds_from_traces(
    traces: &[Trace],
    k_max: usize,
    mode: WindowMode,
) -> Result<WorkloadBounds, WorkloadError> {
    bounds_from_traces_with(traces, k_max, mode, Parallelism::Auto)
}

/// [`bounds_from_traces`] with an explicit [`Parallelism`] knob, applied to
/// the window analysis of each trace in turn.
///
/// # Errors
///
/// Same conditions as [`bounds_from_traces`].
pub fn bounds_from_traces_with(
    traces: &[Trace],
    k_max: usize,
    mode: WindowMode,
    par: Parallelism,
) -> Result<WorkloadBounds, WorkloadError> {
    let all: Vec<WorkloadBounds> = traces
        .iter()
        .map(|t| WorkloadBounds::from_trace_with(t, k_max, mode, par))
        .collect::<Result<_, _>>()?;
    WorkloadBounds::merge_all(&all)
}

/// Measures the empirical **upper arrival curve** `ᾱ(Δ)` of a timed trace:
/// the maximum number of events observed in any closed window of length `Δ`,
/// expressed as a staircase.
///
/// Internally computes the minimal span `d(k)` of every `k` consecutive
/// events; then `ᾱ(Δ) = max { k : d(k) ≤ Δ }`, so the staircase jumps to
/// `k` at `Δ = d(k)`. `horizon` is the span of `k_max` events.
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidParameter`] via the window layer if
/// `k_max` is 0 or exceeds the trace length.
pub fn arrival_upper(
    trace: &TimedTrace,
    k_max: usize,
    mode: WindowMode,
) -> Result<StepCurve, WorkloadError> {
    arrival_upper_with(trace, k_max, mode, Parallelism::Auto)
}

/// [`arrival_upper`] with an explicit [`Parallelism`] knob for the span
/// analysis.
///
/// # Errors
///
/// Same conditions as [`arrival_upper`].
pub fn arrival_upper_with(
    trace: &TimedTrace,
    k_max: usize,
    mode: WindowMode,
    par: Parallelism,
) -> Result<StepCurve, WorkloadError> {
    let times = trace.times();
    let spans = min_spans_with(&times, k_max, mode, par)?;
    arrival_upper_from_spans(&spans, trace.len(), trace.duration())
}

/// The staircase of [`arrival_upper`] from precomputed minimal spans
/// `d(1..=k_max)` (index 0 ↦ `k = 1`, non-decreasing) of a timed trace
/// with `events` events over `duration` seconds: `ᾱ` jumps to `k` at
/// `Δ = d(k)`, the horizon is `d(k_max)`, and the tail rate is
/// `events / duration`.
///
/// This is the step construction alone, for callers that keep the spans
/// up to date incrementally (e.g. a
/// [`SpanWindow`](wcm_events::window::SpanWindow)).
///
/// # Errors
///
/// Returns [`WorkloadError::Empty`] for empty `spans` and propagates
/// staircase validation errors.
pub fn arrival_upper_from_spans(
    spans: &[f64],
    events: usize,
    duration: f64,
) -> Result<StepCurve, WorkloadError> {
    let &horizon = spans.last().ok_or(WorkloadError::Empty)?;
    // spans is non-decreasing; build steps at strictly increasing Δ.
    let mut steps: Vec<(f64, u64)> = Vec::with_capacity(spans.len());
    for (i, &d) in spans.iter().enumerate() {
        let k = (i + 1) as u64;
        match steps.last_mut() {
            Some(last) if d <= last.0 + f64::EPSILON * (1.0 + last.0.abs()) => {
                // Same span: the larger k wins (more events fit in Δ).
                last.1 = k;
            }
            _ => steps.push((d, k)),
        }
    }
    let tail_rate = if duration > 0.0 {
        events as f64 / duration
    } else {
        0.0
    };
    Ok(StepCurve::new(steps, horizon, tail_rate)?)
}

/// Measures the empirical **lower arrival curve** of a timed trace: the
/// minimum number of events in any closed window of length `Δ`.
///
/// Uses maximal spans `D(k)`: at least `k` events are seen in any window of
/// length `≥ D(k+1)`... conservatively, the staircase rises to `k` at
/// `Δ = D(k)` (a window that long always covers `k` consecutive events of
/// the trace interior).
///
/// # Errors
///
/// Same conditions as [`arrival_upper`].
pub fn arrival_lower(
    trace: &TimedTrace,
    k_max: usize,
    mode: WindowMode,
) -> Result<StepCurve, WorkloadError> {
    arrival_lower_with(trace, k_max, mode, Parallelism::Auto)
}

/// [`arrival_lower`] with an explicit [`Parallelism`] knob for the span
/// analysis.
///
/// # Errors
///
/// Same conditions as [`arrival_upper`].
pub fn arrival_lower_with(
    trace: &TimedTrace,
    k_max: usize,
    mode: WindowMode,
    par: Parallelism,
) -> Result<StepCurve, WorkloadError> {
    let times = trace.times();
    let spans = max_spans_with(&times, k_max, mode, par)?;
    let mut steps: Vec<(f64, u64)> = vec![(0.0, 0)];
    for (i, &d) in spans.iter().enumerate() {
        let k = i as u64; // a window of length D(k+1) always contains ≥ k events
        if k == 0 {
            continue;
        }
        match steps.last_mut() {
            Some(last) if d <= last.0 + f64::EPSILON * (1.0 + last.0.abs()) => {
                last.1 = last.1.max(k);
            }
            _ => steps.push((d, k)),
        }
    }
    let horizon = *spans.last().expect("validated non-empty");
    Ok(StepCurve::new(steps, horizon, 0.0)?)
}

/// Incrementally maintained workload bounds over a growing demand stream.
///
/// A full [`WorkloadBounds::from_trace`] rebuild rescans all `N` retained
/// events for every window size — `O(N·K)` per refresh, which is what the
/// online monitor and long-running simulations paid each time their
/// reference trace grew. This builder instead feeds two
/// [`SummarySpine`]s (max side over worst-case demands, min side over
/// best-case demands): appending one event costs `O(k_max)` amortized, and
/// [`IncrementalBounds::bounds`] folds a logarithmic spine instead of
/// rescanning, yet produces curves **bit-identical** to a full rebuild of
/// the same stream.
///
/// # Example
///
/// ```
/// use wcm_core::build::IncrementalBounds;
/// use wcm_events::{window::WindowMode, Cycles};
///
/// # fn main() -> Result<(), wcm_core::WorkloadError> {
/// let mut inc = IncrementalBounds::new(3, WindowMode::Exact)?;
/// for d in [4, 1, 1, 4, 1] {
///     inc.push_fixed(Cycles(d));
/// }
/// let bounds = inc.bounds()?;
/// assert_eq!(bounds.upper.value(2).get(), 5); // 4,1 or 1,4
/// assert_eq!(bounds.lower.value(2).get(), 2); // 1,1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalBounds {
    upper: SummarySpine,
    lower: SummarySpine,
    k_max: usize,
}

impl IncrementalBounds {
    /// A builder for windows `1..=k_max` under `mode`'s grid.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `k_max` is 0 or a
    /// strided mode has `stride = 0`.
    pub fn new(k_max: usize, mode: WindowMode) -> Result<Self, WorkloadError> {
        if k_max == 0 {
            return Err(WorkloadError::InvalidParameter { name: "k_max" });
        }
        if let WindowMode::Strided { stride: 0, .. } = mode {
            return Err(WorkloadError::InvalidParameter { name: "stride" });
        }
        let grid = mode.grid(k_max);
        Ok(Self {
            upper: SummarySpine::new(&grid, Sides::Max, 0),
            lower: SummarySpine::new(&grid, Sides::Min, 0),
            k_max,
        })
    }

    /// Appends one event with distinct worst/best-case demands
    /// (`O(k_max)` amortized).
    pub fn push(&mut self, worst: Cycles, best: Cycles) {
        self.upper.push(worst.get());
        self.lower.push(best.get());
    }

    /// Appends one event whose demand is fixed (worst = best).
    pub fn push_fixed(&mut self, demand: Cycles) {
        self.push(demand, demand);
    }

    /// Appends every event of `trace`, using its per-type worst/best
    /// demand intervals like [`WorkloadBounds::from_trace`] does.
    pub fn extend_trace(&mut self, trace: &Trace) {
        let worst: Vec<u64> = trace.worst_demands().iter().map(|c| c.get()).collect();
        let best: Vec<u64> = trace.best_demands().iter().map(|c| c.get()).collect();
        self.upper.extend_from_slice(&worst);
        self.lower.extend_from_slice(&best);
    }

    /// Number of events pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// `true` when nothing has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }

    /// Largest window size tracked.
    #[must_use]
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// The current bounds: fold the spines and densify. Bit-identical to
    /// `WorkloadBounds::from_trace` over the pushed stream.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Empty`] before the first push and
    /// [`WorkloadError::InvalidParameter`] while fewer than `k_max`
    /// events have been pushed (the curves would not be defined yet).
    pub fn bounds(&self) -> Result<WorkloadBounds, WorkloadError> {
        if self.is_empty() {
            return Err(WorkloadError::Empty);
        }
        if self.len() < self.k_max {
            return Err(WorkloadError::InvalidParameter { name: "k_max" });
        }
        let upper_dense = self
            .upper
            .curve()
            .dense_max()
            .expect("max side with len ≥ k_max");
        let lower_dense = self
            .lower
            .curve()
            .dense_min()
            .expect("min side with len ≥ k_max");
        Ok(WorkloadBounds {
            upper: UpperWorkloadCurve::new(upper_dense)?,
            lower: LowerWorkloadCurve::new(lower_dense)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcm_events::{ExecutionInterval, TimedEvent, TypeRegistry};

    fn timed(times: &[f64]) -> TimedTrace {
        let mut reg = TypeRegistry::new();
        let t = reg
            .register("t", ExecutionInterval::fixed(Cycles(1)))
            .unwrap();
        TimedTrace::new(
            reg,
            times.iter().map(|&time| TimedEvent { time, ty: t }).collect(),
        )
        .unwrap()
    }

    #[test]
    fn arrival_upper_of_periodic_trace() {
        // Events at 0, 1, 2, …, 9: k events span k−1 time units.
        let tt = timed(&(0..10).map(f64::from).collect::<Vec<_>>());
        let alpha = arrival_upper(&tt, 10, WindowMode::Exact).unwrap();
        assert_eq!(alpha.value(0.0), 1);
        assert_eq!(alpha.value(0.5), 1);
        assert_eq!(alpha.value(1.0), 2);
        assert_eq!(alpha.value(4.2), 5);
        assert_eq!(alpha.value(9.0), 10);
    }

    #[test]
    fn arrival_upper_of_bursty_trace() {
        // Two instantaneous bursts of 3 events.
        let tt = timed(&[0.0, 0.0, 0.0, 10.0, 10.0, 10.0]);
        let alpha = arrival_upper(&tt, 6, WindowMode::Exact).unwrap();
        assert_eq!(alpha.value(0.0), 3);
        assert_eq!(alpha.value(9.0), 3);
        assert_eq!(alpha.value(10.0), 6);
    }

    #[test]
    fn arrival_upper_matches_brute_force_sliding_window() {
        let times = [0.0, 0.3, 0.9, 1.0, 2.5, 2.6, 2.7, 5.0];
        let tt = timed(&times);
        let alpha = arrival_upper(&tt, times.len(), WindowMode::Exact).unwrap();
        for i in 0..60 {
            let delta = i as f64 * 0.1;
            // Brute force: max events in any closed window [t, t+delta]
            // anchored at an event.
            let mut best = 0;
            for (s, &start) in times.iter().enumerate() {
                let count = times[s..]
                    .iter()
                    .take_while(|&&t| t <= start + delta + 1e-12)
                    .count();
                best = best.max(count);
            }
            assert_eq!(
                alpha.value(delta),
                best as u64,
                "mismatch at Δ={delta}"
            );
        }
    }

    #[test]
    fn arrival_lower_is_below_upper() {
        let times: Vec<f64> = (0..30).map(|i| (i as f64 * 0.37).sin().abs() + i as f64).collect();
        let tt = timed(&times);
        let up = arrival_upper(&tt, 20, WindowMode::Exact).unwrap();
        let lo = arrival_lower(&tt, 20, WindowMode::Exact).unwrap();
        for i in 0..200 {
            let d = i as f64 * 0.1;
            assert!(lo.value(d) <= up.value(d), "Δ={d}");
        }
    }

    #[test]
    fn arrival_lower_of_periodic_trace() {
        let tt = timed(&(0..10).map(f64::from).collect::<Vec<_>>());
        let lo = arrival_lower(&tt, 10, WindowMode::Exact).unwrap();
        // A window of length k always contains at least k−1 events… the
        // maximal span of k events is k−1, so the curve reaches k−1 at Δ=k.
        assert_eq!(lo.value(0.5), 0);
        assert_eq!(lo.value(1.0), 1);
        assert_eq!(lo.value(9.0), 9);
    }

    fn varied_trace(n: usize) -> Trace {
        let mut reg = TypeRegistry::new();
        let a = reg
            .register("a", ExecutionInterval::new(Cycles(2), Cycles(7)).unwrap())
            .unwrap();
        let b = reg
            .register("b", ExecutionInterval::new(Cycles(1), Cycles(3)).unwrap())
            .unwrap();
        let c = reg
            .register("c", ExecutionInterval::fixed(Cycles(5)))
            .unwrap();
        let types: Vec<_> = (0..n)
            .map(|i| match (i * 7 + i / 3) % 3 {
                0 => a,
                1 => b,
                _ => c,
            })
            .collect();
        Trace::new(reg, types)
    }

    #[test]
    fn incremental_bounds_match_full_rebuild() {
        let trace = varied_trace(300);
        let k_max = 24;
        for mode in [
            WindowMode::Exact,
            WindowMode::Strided {
                stride: 5,
                exact_upto: 8,
            },
        ] {
            let mut inc = IncrementalBounds::new(k_max, mode).unwrap();
            inc.extend_trace(&trace);
            assert_eq!(inc.len(), trace.len());
            let incremental = inc.bounds().unwrap();
            let full = WorkloadBounds::from_trace(&trace, k_max, mode).unwrap();
            assert_eq!(incremental, full, "mode {mode:?}");
        }
    }

    #[test]
    fn incremental_bounds_refresh_as_the_stream_grows() {
        let trace = varied_trace(120);
        let k_max = 10;
        let mut inc = IncrementalBounds::new(k_max, WindowMode::Exact).unwrap();
        assert!(matches!(inc.bounds(), Err(WorkloadError::Empty)));
        let worst = trace.worst_demands();
        let best = trace.best_demands();
        for i in 0..trace.len() {
            inc.push(worst[i], best[i]);
            if i + 1 < k_max {
                assert!(inc.bounds().is_err(), "undefined before k_max events");
            } else if (i + 1) % 17 == 0 || i + 1 == trace.len() {
                let prefix = Trace::new(
                    trace.registry().clone(),
                    trace.events()[..=i].to_vec(),
                );
                let full = WorkloadBounds::from_trace(&prefix, k_max, WindowMode::Exact).unwrap();
                assert_eq!(inc.bounds().unwrap(), full, "after {} events", i + 1);
            }
        }
    }

    #[test]
    fn incremental_bounds_validate_parameters() {
        assert!(IncrementalBounds::new(0, WindowMode::Exact).is_err());
        assert!(IncrementalBounds::new(
            5,
            WindowMode::Strided {
                stride: 0,
                exact_upto: 2
            }
        )
        .is_err());
    }

    #[test]
    fn bounds_from_traces_merges() {
        let mut reg = TypeRegistry::new();
        let x = reg
            .register("x", ExecutionInterval::fixed(Cycles(4)))
            .unwrap();
        let y = reg
            .register("y", ExecutionInterval::fixed(Cycles(1)))
            .unwrap();
        let t1 = Trace::new(reg.clone(), vec![x, y, y, x]);
        let t2 = Trace::new(reg, vec![y, x, x, y]);
        let b = bounds_from_traces(&[t1, t2], 3, WindowMode::Exact).unwrap();
        assert_eq!(b.upper.value(2), Cycles(8));
        assert_eq!(b.lower.value(2), Cycles(2));
        assert!(bounds_from_traces(&[], 3, WindowMode::Exact).is_err());
    }
}
