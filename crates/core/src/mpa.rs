//! Modular performance analysis (MPA) components.
//!
//! Reference \[4\] of the paper — S. Chakraborty, S. Künzli, L. Thiele,
//! *A general framework for analysing system properties in platform-based
//! embedded system designs* (DATE 2003) — is the framework the case study
//! plugs its workload curves into. This module implements its central
//! abstraction, the **greedy processing component** (GPC): a task on a PE
//! consumes an event stream characterized by upper/lower arrival curves
//! and a resource characterized by upper/lower service curves, and emits
//!
//! * the *processed* event stream's arrival curves,
//! * the *remaining* service curves (what lower-priority tasks get), and
//! * backlog and delay bounds.
//!
//! Workload curves are the glue (Fig. 4): event-based inputs are converted
//! to cycle demand with `γᵘ`/`γˡ` and back.
//!
//! Components compose: feeding the remaining service into the next GPC
//! models fixed-priority sharing of one PE
//! ([`fixed_priority_chain`]); feeding the output stream into another
//! component models a pipeline.

use crate::curve::WorkloadBounds;
use crate::WorkloadError;
use wcm_curves::{bounds, minplus, CurveIter, Pwl, Segment, StepCurve};

/// An event stream abstracted by upper and lower arrival curves
/// (events per time window).
#[derive(Debug, Clone, PartialEq)]
pub struct EventStream {
    /// Upper arrival curve `ᾱᵘ(Δ)`.
    pub upper: Pwl,
    /// Lower arrival curve `ᾱˡ(Δ)`.
    pub lower: Pwl,
}

impl EventStream {
    /// Builds a stream from a measured upper staircase, with the zero
    /// curve as (trivial) lower bound.
    #[must_use]
    pub fn from_upper_staircase(alpha: &StepCurve) -> Self {
        Self {
            upper: alpha.to_pwl_upper(),
            lower: Pwl::zero(),
        }
    }

    /// Builds a stream from measured upper *and* lower staircases (e.g.
    /// [`crate::build::arrival_upper`] and [`crate::build::arrival_lower`]).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if the lower staircase
    /// exceeds the upper anywhere on the common horizon.
    pub fn from_staircases(
        upper: &StepCurve,
        lower: &StepCurve,
    ) -> Result<Self, WorkloadError> {
        let horizon = upper.horizon().min(lower.horizon());
        let mut d = 0.0;
        while d <= horizon {
            if lower.value(d) > upper.value(d) {
                return Err(WorkloadError::InvalidParameter { name: "lower" });
            }
            d += horizon / 64.0 + f64::EPSILON;
        }
        Ok(Self {
            upper: upper.to_pwl_upper(),
            lower: lower.to_pwl_lower(),
        })
    }
}

/// A resource abstracted by upper and lower service curves (cycles per
/// time window).
#[derive(Debug, Clone, PartialEq)]
pub struct Service {
    /// Upper service curve `βᵘ(Δ)` (the resource never provides more).
    pub upper: Pwl,
    /// Lower service curve `βˡ(Δ)` (guaranteed minimum).
    pub lower: Pwl,
}

impl Service {
    /// A fully dedicated processor at `frequency` cycles per second:
    /// `βᵘ = βˡ = F·Δ`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for a non-positive
    /// frequency.
    pub fn dedicated(frequency: f64) -> Result<Self, WorkloadError> {
        if !(frequency.is_finite() && frequency > 0.0) {
            return Err(WorkloadError::InvalidParameter { name: "frequency" });
        }
        let f = Pwl::affine(0.0, frequency)?;
        Ok(Self {
            upper: f.clone(),
            lower: f,
        })
    }
}

/// Analysis results of one greedy processing component.
#[derive(Debug, Clone, PartialEq)]
pub struct GpcOutput {
    /// Arrival curves of the processed (output) stream, in events.
    pub output: EventStream,
    /// Service left over for lower-priority components.
    pub remaining: Service,
    /// Backlog bound in events (eq. 7).
    pub backlog_events: u64,
    /// Delay bound in seconds (horizontal deviation in the cycle domain).
    pub delay: f64,
}

/// Analyzes one greedy processing component.
///
/// `max_events` bounds staircase resolutions of the event/cycle
/// conversions (choose ≥ the largest window of interest).
///
/// # Errors
///
/// Returns [`WorkloadError::Infeasible`] /
/// [`WorkloadError::Curve`] when the demand outgrows the service (no
/// finite backlog/delay exists) and [`WorkloadError::InvalidParameter`]
/// for a zero `max_events`.
///
/// # Example
///
/// A periodic stream through a dedicated PE:
///
/// ```
/// use wcm_core::mpa::{greedy_processing, EventStream, Service};
/// use wcm_core::{LowerWorkloadCurve, UpperWorkloadCurve, WorkloadBounds};
/// use wcm_curves::StepCurve;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let alpha = StepCurve::new(vec![(0.0, 1), (1.0, 2), (2.0, 3)], 3.0, 1.0)?;
/// let stream = EventStream::from_upper_staircase(&alpha);
/// let task = WorkloadBounds {
///     upper: UpperWorkloadCurve::new(vec![10, 14, 18])?,
///     lower: LowerWorkloadCurve::new(vec![4, 8, 12])?,
/// };
/// let pe = Service::dedicated(20.0)?;
/// let out = greedy_processing(&stream, &pe, &task, 64)?;
/// assert!(out.backlog_events <= 1);
/// assert!(out.delay <= 0.5 + 1e-9); // one 10-cycle event at 20 Hz
/// # Ok(())
/// # }
/// ```
pub fn greedy_processing(
    input: &EventStream,
    service: &Service,
    task: &WorkloadBounds,
    max_events: usize,
) -> Result<GpcOutput, WorkloadError> {
    if max_events == 0 {
        return Err(WorkloadError::InvalidParameter { name: "max_events" });
    }
    // Event → cycle conversion of the input stream (Fig. 4).
    let demand_upper = compose_gamma_upper(&input.upper, task, max_events);
    let demand_lower = compose_gamma_lower(&input.lower, task, max_events);

    // Bounds in the cycle domain against the guaranteed service.
    let delay = bounds::delay(&demand_upper, &service.lower)?;
    let backlog_events =
        crate::convert::backlog_events_pwl(&input.upper, &service.lower, &task.upper)?;

    // Processed output in the cycle domain (GPC equations of [4]):
    //   α′ᵘ = [(αᵘ ⊗ βᵘ) ⊘ βˡ] ∧ βᵘ,
    //   α′ˡ = [(αˡ ⊘ βᵘ) ⊗ βˡ] ∧ βˡ.
    // Each equation runs as one lazy segment stream, materializing only
    // where the next operator needs a breakpoint view of its operand.
    let conv = minplus::convolve_lazy(&demand_upper, &service.upper).collect_pwl();
    let out_upper_cycles = minplus::deconvolve_lazy(&conv, &service.lower)?
        .lazy_min(service.upper.lazy())
        .collect_pwl();
    let deconv = deconvolve_or_zero(&demand_lower, &service.upper);
    let out_lower_cycles = minplus::convolve_lazy(&deconv, &service.lower)
        .lazy_min(service.lower.lazy())
        .collect_pwl();

    // Cycle → event back-conversion: at most C processed cycles can be
    // γˡ⁻¹-many events; at least C cycles are γᵘ⁻¹-many.
    let output = EventStream {
        upper: cycles_to_events_upper(&out_upper_cycles, task, max_events),
        lower: cycles_to_events_lower(&out_lower_cycles, task, max_events),
    };

    // Remaining service: β′ˡ = sup-closure of (βˡ − αᵘ)⁺ (strict service),
    // β′ᵘ = (βᵘ − αˡ)⁺ monotonized.
    let remaining = Service {
        lower: service.lower.sub_clamped_monotone(&demand_upper),
        upper: service.upper.sub_clamped_monotone(&demand_lower),
    };
    Ok(GpcOutput {
        output,
        remaining,
        backlog_events,
        delay,
    })
}

/// Analyzes several tasks sharing one resource under fixed priorities
/// (index 0 = highest): each component consumes the previous one's
/// remaining service.
///
/// # Errors
///
/// Propagates the first failing component's error (e.g. the remaining
/// service no longer sustains a lower-priority stream).
pub fn fixed_priority_chain(
    inputs: &[(EventStream, WorkloadBounds)],
    service: &Service,
    max_events: usize,
) -> Result<Vec<GpcOutput>, WorkloadError> {
    let mut current = service.clone();
    let mut out = Vec::with_capacity(inputs.len());
    for (stream, task) in inputs {
        let gpc = greedy_processing(stream, &current, task, max_events)?;
        current = gpc.remaining.clone();
        out.push(gpc);
    }
    Ok(out)
}

/// `γᵘ ∘ ᾱ` as a PWL curve: evaluate the workload curve at the staircase
/// levels of `ᾱ` (sampled on its breakpoints; sound because `γᵘ` and `ᾱ`
/// are non-decreasing and we round the event count up).
fn compose_gamma_upper(alpha: &Pwl, task: &WorkloadBounds, max_events: usize) -> Pwl {
    compose(alpha, max_events, Round::Up, |events| {
        task.upper.value(events.ceil() as usize).get() as f64
    })
}

fn compose_gamma_lower(alpha: &Pwl, task: &WorkloadBounds, max_events: usize) -> Pwl {
    compose(alpha, max_events, Round::Down, |events| {
        task.lower.value(events.floor() as usize).get() as f64
    })
}

fn cycles_to_events_upper(cycles: &Pwl, task: &WorkloadBounds, max_events: usize) -> Pwl {
    compose(cycles, max_events, Round::Up, |c| {
        task.lower.count_within(c) as f64
    })
}

fn cycles_to_events_lower(cycles: &Pwl, task: &WorkloadBounds, max_events: usize) -> Pwl {
    compose(cycles, max_events, Round::Down, |c| {
        task.upper.pseudo_inverse(c) as f64
    })
}

/// Which side the sampled composition must err on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Round {
    /// Result must dominate the true composition (upper curves).
    Up,
    /// Result must stay below the true composition (lower curves).
    Down,
}

/// Monotone composition `f ∘ curve` sampled on the curve's breakpoints
/// plus a refinement grid, returned as a monotone staircase PWL that errs
/// on the requested side: each interval takes the value at its *right*
/// edge when rounding up (the largest the true composition reaches there)
/// and at its *left* edge when rounding down.
fn compose(curve: &Pwl, grid: usize, round: Round, f: impl Fn(f64) -> f64) -> Pwl {
    let mut xs: Vec<f64> = curve.breakpoint_xs().collect();
    let span = curve.tail_start().max(1e-9) * 2.0;
    let n = grid.clamp(8, 512);
    for i in 0..=n {
        xs.push(span * i as f64 / n as f64);
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12 * (1.0 + b.abs()));
    let mut points: Vec<(f64, f64, f64)> = Vec::with_capacity(xs.len());
    let mut last_y = 0.0f64;
    for (i, &x) in xs.iter().enumerate() {
        let sample_at = match (round, xs.get(i + 1)) {
            (Round::Up, Some(&next)) => next,
            _ => x,
        };
        let y = f(curve.value(sample_at)).max(last_y);
        last_y = y;
        let slope = if i + 1 == xs.len() {
            // Tail: chord toward a far sample approximates the composed
            // long-run rate; when rounding up, take the steeper of two
            // chords so tail curvature cannot make the bound dip below.
            let far = x + span;
            let s1 = (f(curve.value(far)).max(y) - y) / (far - x);
            match round {
                Round::Up => {
                    let farther = x + 2.0 * span;
                    let s2 = (f(curve.value(farther)).max(y) - y) / (farther - x);
                    s1.max(s2)
                }
                Round::Down => s1.min(
                    (f(curve.value(x + 2.0 * span)).max(y) - y) / (2.0 * span),
                ),
            }
        } else {
            0.0
        };
        points.push((x, y, slope));
    }
    Pwl::from_breakpoints(points).expect("monotone by construction")
}

/// `f ⊘ g` for lower curves, falling back to zero when the deconvolution
/// diverges (a trivial but sound lower bound).
fn deconvolve_or_zero(f: &Pwl, g: &Pwl) -> Pwl {
    minplus::deconvolve_lazy(f, g)
        .map(CurveIter::collect_pwl)
        .unwrap_or_else(|_| Pwl::zero())
}

/// End-to-end service of `N` servers in tandem: `β₁ ⊗ β₂ ⊗ … ⊗ β_N` (the
/// classic "pay bursts only once" composition). The left fold runs through
/// the lazy streaming convolution and ping-pongs two segment buffers, so
/// an `N`-stage pipeline keeps one accumulator curve and one scratch
/// buffer live instead of allocating a fresh curve at every stage.
/// Bit-identical to folding [`minplus::convolve`].
///
/// # Errors
///
/// Returns [`WorkloadError::InvalidParameter`] if `betas` is empty.
pub fn tandem_service(betas: &[Pwl]) -> Result<Pwl, WorkloadError> {
    let Some((first, rest)) = betas.split_first() else {
        return Err(WorkloadError::InvalidParameter { name: "betas" });
    };
    let mut acc = first.clone();
    let mut buf: Vec<Segment> = Vec::new();
    for beta in rest {
        let next = minplus::convolve_lazy(&acc, beta).collect_pwl_reusing(std::mem::take(&mut buf));
        buf = std::mem::replace(&mut acc, next).into_segments();
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LowerWorkloadCurve, UpperWorkloadCurve};

    fn task() -> WorkloadBounds {
        WorkloadBounds {
            upper: UpperWorkloadCurve::new(vec![10, 14, 18, 22, 26, 30]).unwrap(),
            lower: LowerWorkloadCurve::new(vec![4, 8, 12, 16, 20, 24]).unwrap(),
        }
    }

    fn periodic_stream() -> EventStream {
        let alpha = StepCurve::new(
            vec![(0.0, 1), (1.0, 2), (2.0, 3), (3.0, 4)],
            4.0,
            1.0,
        )
        .unwrap();
        EventStream::from_upper_staircase(&alpha)
    }

    #[test]
    fn dedicated_pe_fast_enough_has_small_bounds() {
        let out = greedy_processing(
            &periodic_stream(),
            &Service::dedicated(50.0).unwrap(),
            &task(),
            64,
        )
        .unwrap();
        assert!(out.backlog_events <= 1);
        assert!(out.delay <= 0.21, "delay {}", out.delay);
    }

    #[test]
    fn slower_pe_grows_bounds() {
        let fast = greedy_processing(
            &periodic_stream(),
            &Service::dedicated(50.0).unwrap(),
            &task(),
            64,
        )
        .unwrap();
        let slow = greedy_processing(
            &periodic_stream(),
            &Service::dedicated(8.0).unwrap(),
            &task(),
            64,
        )
        .unwrap();
        assert!(slow.delay >= fast.delay);
        assert!(slow.backlog_events >= fast.backlog_events);
    }

    #[test]
    fn overload_is_detected() {
        // Sustained demand 1 event/s × 6 c/event < 4 c/s? 6 > 4 ⇒ overload.
        let r = greedy_processing(
            &periodic_stream(),
            &Service::dedicated(4.0).unwrap(),
            &task(),
            64,
        );
        assert!(r.is_err());
    }

    #[test]
    fn output_stream_is_consistent() {
        let out = greedy_processing(
            &periodic_stream(),
            &Service::dedicated(30.0).unwrap(),
            &task(),
            64,
        )
        .unwrap();
        for i in 0..40 {
            let d = i as f64 * 0.2;
            assert!(
                out.output.lower.value(d) <= out.output.upper.value(d) + 1e-9,
                "output curves crossed at Δ={d}"
            );
        }
        // Conservation: long-run output rate equals the input rate.
        assert!((out.output.upper.ultimate_rate() - 1.0).abs() < 0.35);
    }

    #[test]
    fn remaining_service_feeds_second_task() {
        let hp = (periodic_stream(), task());
        let lp_alpha = StepCurve::new(vec![(0.0, 1), (4.0, 2)], 4.0, 0.25).unwrap();
        let lp = (
            EventStream::from_upper_staircase(&lp_alpha),
            WorkloadBounds {
                upper: UpperWorkloadCurve::new(vec![8, 16]).unwrap(),
                lower: LowerWorkloadCurve::new(vec![2, 4]).unwrap(),
            },
        );
        let chain = fixed_priority_chain(
            &[hp.clone(), lp.clone()],
            &Service::dedicated(30.0).unwrap(),
            64,
        )
        .unwrap();
        assert_eq!(chain.len(), 2);
        // The low-priority task sees less service, so its delay is at
        // least the high-priority task's own-service delay.
        let lp_alone = greedy_processing(
            &lp.0,
            &Service::dedicated(30.0).unwrap(),
            &lp.1,
            64,
        )
        .unwrap();
        assert!(chain[1].delay >= lp_alone.delay - 1e-9);
        // Remaining service after both is below the original.
        for i in 0..30 {
            let d = i as f64 * 0.3;
            assert!(
                chain[1].remaining.lower.value(d) <= 30.0 * d + 1e-6,
                "remaining above raw service at Δ={d}"
            );
        }
    }

    #[test]
    fn chain_rejects_overcommitted_priority_stack() {
        // Two heavy streams on a small PE: the second must fail.
        let s = periodic_stream();
        let r = fixed_priority_chain(
            &[(s.clone(), task()), (s, task())],
            &Service::dedicated(7.0).unwrap(),
            64,
        );
        assert!(r.is_err());
    }

    #[test]
    fn stream_from_both_staircases() {
        let up = StepCurve::new(vec![(0.0, 2), (1.0, 4)], 2.0, 2.0).unwrap();
        let lo = StepCurve::new(vec![(0.0, 0), (1.5, 1)], 2.0, 0.0).unwrap();
        let s = EventStream::from_staircases(&up, &lo).unwrap();
        assert!(s.lower.value(1.7) <= s.upper.value(1.7));
        // A crossing pair is rejected.
        let bad_lo = StepCurve::new(vec![(0.0, 5)], 2.0, 0.0).unwrap();
        assert!(EventStream::from_staircases(&up, &bad_lo).is_err());
    }

    #[test]
    fn gpc_with_nontrivial_lower_stream() {
        let up = StepCurve::new(
            vec![(0.0, 1), (1.0, 2), (2.0, 3), (3.0, 4)],
            4.0,
            1.0,
        )
        .unwrap();
        // The lower stream guarantees 3 events by Δ = 3, i.e. γˡ(3) = 12
        // cycles of demand — enough that at least γᵘ⁻¹(12) = 1 event is
        // guaranteed to complete.
        let lo = StepCurve::new(vec![(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)], 4.0, 0.5)
            .unwrap();
        let stream = EventStream::from_staircases(&up, &lo).unwrap();
        let out = greedy_processing(&stream, &Service::dedicated(40.0).unwrap(), &task(), 64)
            .unwrap();
        // A non-zero lower input gives a non-zero lower output eventually.
        assert!(out.output.lower.value(20.0) > 0.0);
        for i in 0..40 {
            let d = i as f64 * 0.5;
            assert!(out.output.lower.value(d) <= out.output.upper.value(d) + 1e-6);
        }
    }

    #[test]
    fn tandem_service_matches_convolve_fold() {
        let betas: Vec<Pwl> = (1..=8)
            .map(|i| {
                Pwl::from_breakpoints(vec![
                    (0.0, 0.0, 0.0),
                    (0.25 * i as f64, 0.0, 10.0 + i as f64),
                ])
                .unwrap()
            })
            .collect();
        let lazy = tandem_service(&betas).unwrap();
        let mut folded = betas[0].clone();
        for b in &betas[1..] {
            folded = minplus::convolve(&folded, b);
        }
        assert_eq!(lazy, folded);
        // Rate-latency servers compose to sum-of-latencies, min-of-rates.
        assert!((lazy.ultimate_rate() - 11.0).abs() < 1e-9);
        assert!(tandem_service(&[]).is_err());
    }

    #[test]
    fn rejects_zero_resolution() {
        let r = greedy_processing(
            &periodic_stream(),
            &Service::dedicated(30.0).unwrap(),
            &task(),
            0,
        );
        assert!(r.is_err());
    }
}
