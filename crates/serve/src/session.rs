//! Per-session state: an incremental [`SummarySpine`], a rebound
//! [`EnvelopeMonitor`], and the eq.-9 admission verdict, all refreshed
//! on a deterministic event-count cadence.
//!
//! ## Determinism contract
//!
//! Every decision a session makes — when to refresh, what envelope the
//! monitor is rebound to, what the admission verdict is — depends only
//! on the *prefix of events seen so far*, never on how those events
//! were chunked across polls, sources, or shard threads. Feeding a
//! whole trace in one call is therefore byte-identical (snapshots and
//! all) to feeding it event by event: the batch path and the live path
//! are the same code, which is how `tests/determinism.rs` pins the
//! serve pipeline against the batch `SummarySpine`/`EnvelopeMonitor`
//! oracle.

use std::collections::VecDeque;

use wcm_core::{
    build::arrival_upper_from_spans, sizing, EnvelopeMonitor, LowerWorkloadCurve,
    UpperWorkloadCurve, WorkloadBounds,
};
use wcm_curves::arrival::PeriodicJitter;
use wcm_events::summary::{Sides, SummarySpine};
use wcm_events::window::SpanWindow;
use wcm_sim::OverflowPolicy;

use crate::config::ServeConfig;

/// The eq.-9 admission verdict of one session: can this stream join
/// PE2 at the configured frequency without overflowing the FIFO?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Not enough events yet for a dense envelope (fewer than `k_max`).
    Warming,
    /// `f_min ≤ f_PE2`: the stream fits.
    Admit {
        /// Minimum feasible PE2 frequency (eq. 9), Hz.
        f_min_hz: f64,
    },
    /// `f_min > f_PE2` (or no finite frequency suffices).
    Reject {
        /// Minimum feasible PE2 frequency, Hz; infinite when the
        /// instantaneous burst alone overflows the FIFO.
        f_min_hz: f64,
    },
}

impl Admission {
    /// Whether the verdict admits the stream.
    #[must_use]
    pub fn admitted(&self) -> bool {
        matches!(self, Admission::Admit { .. })
    }
}

/// Outcome of routing one batch of demands into a session's bounded
/// ingest buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnqueueOutcome {
    /// Events accepted into the pending buffer.
    pub accepted: usize,
    /// Events dropped by the overflow policy.
    pub dropped: usize,
    /// The buffer is at/over capacity — under
    /// [`OverflowPolicy::Backpressure`] the source must stop feeding
    /// until the next apply drains it.
    pub full: bool,
}

/// The timestamp side of a session, allocated when its first timestamp
/// arrives: a session without timestamps carries one null pointer.
#[derive(Debug)]
struct Arrivals {
    /// Sliding window of *consumed* timestamps for the empirical
    /// arrival curve (bounded by `cfg.times_window`), with its minimal
    /// spans kept up to date. Timestamps pair with demands index-wise:
    /// time `i` belongs to event `i`, and is consumed into this window
    /// exactly when event `i` is applied — so every refresh sees the
    /// timestamps of the events applied so far, never a chunk-dependent
    /// superset.
    window: SpanWindow,
    /// Timestamps received but not yet consumed (their events are
    /// still pending or in flight).
    staged: VecDeque<f64>,
    /// Total timestamps consumed into the window.
    used: u64,
}

impl Arrivals {
    /// Move up to `n` staged timestamps into the sliding window.
    fn consume(&mut self, n: usize) {
        let n = n.min(self.staged.len());
        for t in self.staged.drain(..n) {
            self.window.push(t);
        }
        self.used += n as u64;
    }
}

/// All state the service keeps for one `(source, name)` stream.
#[derive(Debug)]
pub struct SessionState {
    spine: SummarySpine,
    monitor: Option<EnvelopeMonitor>,
    arrivals: Option<Box<Arrivals>>,
    /// Demands decoded but not yet applied (bounded by
    /// `cfg.session_buffer` + one frame under backpressure).
    pending: VecDeque<u64>,
    events: u64,
    since_refresh: u64,
    refreshes: u64,
    violations: u64,
    dropped: u64,
    admission: Admission,
    flips: u64,
    /// Refreshes that failed curve/sizing construction (should be 0).
    errors: u64,
    /// γᵘ(1) and γᵘ(k) of the last refresh, for snapshots.
    wcet: u64,
    gamma_k: u64,
    k_eff: usize,
}

impl SessionState {
    /// Fresh session under `cfg`.
    #[must_use]
    pub fn new(cfg: &ServeConfig) -> Self {
        let grid: Vec<usize> = (1..=cfg.k_max.max(1)).collect();
        Self {
            spine: SummarySpine::new(&grid, Sides::Both, cfg.chunk_target),
            monitor: None,
            arrivals: None,
            pending: VecDeque::new(),
            events: 0,
            since_refresh: 0,
            refreshes: 0,
            violations: 0,
            dropped: 0,
            admission: Admission::Warming,
            flips: 0,
            errors: 0,
            wcet: 0,
            gamma_k: 0,
            k_eff: 0,
        }
    }

    /// Route freshly decoded demands into the bounded pending buffer
    /// under the configured overflow policy.
    pub fn enqueue(&mut self, demands: &[u64], cfg: &ServeConfig) -> EnqueueOutcome {
        let cap = cfg.session_buffer.max(1);
        let mut out = EnqueueOutcome::default();
        match cfg.policy {
            OverflowPolicy::Backpressure => {
                // Whole frames are accepted (they were already decoded);
                // the buffer may transiently exceed `cap` by one frame,
                // and `full` tells the source to stop reading bytes.
                self.pending.extend(demands.iter().copied());
                out.accepted = demands.len();
            }
            OverflowPolicy::Reject => {
                let free = cap.saturating_sub(self.pending.len());
                let take = demands.len().min(free);
                self.pending.extend(demands[..take].iter().copied());
                out.accepted = take;
                out.dropped = demands.len() - take;
            }
            OverflowPolicy::DropByPriority => {
                self.pending.extend(demands.iter().copied());
                out.accepted = demands.len();
                while self.pending.len() > cap {
                    // Evict the smallest-demand pending event (lowest
                    // priority); earliest wins ties so eviction is
                    // deterministic.
                    let (idx, _) = self
                        .pending
                        .iter()
                        .enumerate()
                        .min_by_key(|&(i, &d)| (d, i))
                        .expect("buffer over capacity is non-empty");
                    self.pending.remove(idx);
                    out.dropped += 1;
                    out.accepted -= 1;
                }
            }
        }
        self.dropped += out.dropped as u64;
        out.full = self.pending.len() >= cap;
        out
    }

    /// Record observed timestamps. They are staged, not used: each is
    /// consumed into the arrival window when its same-index demand is
    /// applied. A well-formed live stream writes a `TIMES` frame
    /// before (or with) the `DEMANDS` it stamps, so consumption never
    /// has to wait.
    pub fn record_times(&mut self, times: &[f64], cfg: &ServeConfig) {
        if times.is_empty() {
            return;
        }
        let arrivals = self.arrivals.get_or_insert_with(|| {
            Box::new(Arrivals {
                window: SpanWindow::new(cfg.times_window.max(2), cfg.k_max.max(1)),
                staged: VecDeque::new(),
                used: 0,
            })
        });
        arrivals.staged.extend(times.iter().copied());
        // Degenerate streams (timestamps without demands) must not grow
        // without bound: force-consume the excess. This only fires when
        // the pairing contract is already broken.
        let cap = cfg
            .times_window
            .max(2)
            .saturating_mul(2)
            .saturating_add(cfg.session_buffer);
        if arrivals.staged.len() > cap {
            arrivals.consume(arrivals.staged.len() - cap);
        }
    }

    /// Apply every pending demand: extend the spine, feed the monitor,
    /// and run a refresh (fold + rebind + admission) at each
    /// `refresh_every`-event boundary. Returns new violations caused.
    pub fn apply_pending(&mut self, cfg: &ServeConfig) -> u64 {
        let mut fresh = 0u64;
        let every = cfg.refresh_every.max(1);
        let mut chunk: Vec<u64> = Vec::new();
        while !self.pending.is_empty() {
            let room = usize::try_from(every - self.since_refresh).unwrap_or(usize::MAX);
            let n = self.pending.len().min(room);
            chunk.clear();
            chunk.extend(self.pending.drain(..n));
            self.spine.extend_from_slice(&chunk);
            if let Some(m) = self.monitor.as_mut() {
                fresh += m.observe_all(chunk.iter().copied()) as u64;
            }
            self.events += n as u64;
            self.since_refresh += n as u64;
            // Consume the timestamps of exactly the events applied so
            // far (catching up if earlier times arrived late).
            if let Some(arrivals) = self.arrivals.as_mut() {
                let due = usize::try_from(self.events.saturating_sub(arrivals.used))
                    .unwrap_or(usize::MAX);
                arrivals.consume(due);
            }
            if self.since_refresh >= every {
                self.refresh(cfg);
                self.since_refresh = 0;
            }
        }
        self.violations += fresh;
        fresh
    }

    /// Fold the spine, rebind the monitor to the fresh envelope and
    /// recompute the eq.-9 admission verdict. Returns `true` when the
    /// verdict flipped (admit ↔ reject).
    pub fn refresh(&mut self, cfg: &ServeConfig) -> bool {
        let _span = wcm_obs::span("serve.refresh");
        self.refreshes += 1;
        let curve = self.spine.curve();
        let (Some(up), Some(lo)) = (curve.dense_max(), curve.dense_min()) else {
            return false; // warming: fewer than k_max events
        };
        let k_eff = up.len();
        let bounds = match (UpperWorkloadCurve::new(up), LowerWorkloadCurve::new(lo)) {
            (Ok(upper), Ok(lower)) => WorkloadBounds { upper, lower },
            _ => {
                self.errors += 1;
                return false;
            }
        };
        self.wcet = bounds.upper.value(1).get();
        self.gamma_k = bounds.upper.value(k_eff).get();
        self.k_eff = k_eff;
        if cfg.monitor {
            match self.monitor.as_mut() {
                Some(m) => {
                    if m.rebind_with_k_max(&bounds, k_eff).is_err() {
                        self.errors += 1;
                    }
                }
                None => match EnvelopeMonitor::new(&bounds, k_eff) {
                    Ok(m) => self.monitor = Some(m.with_fast_scan(cfg.fast_scan)),
                    Err(_) => self.errors += 1,
                },
            }
        }
        let verdict = {
            let _span = wcm_obs::span("serve.admission");
            wcm_obs::counter("serve.admission.recomputes", 1);
            self.decide(&bounds.upper, k_eff, cfg)
        };
        let flipped = matches!(
            (self.admission, verdict),
            (Admission::Admit { .. }, Admission::Reject { .. })
                | (Admission::Reject { .. }, Admission::Admit { .. })
        );
        if flipped {
            self.flips += 1;
            wcm_obs::counter("serve.admission_flips", 1);
        }
        self.admission = verdict;
        flipped
    }

    /// Eq. 9 against the configured PE2: empirical arrival curve when
    /// the stream carries enough timestamps, the configured
    /// periodic-with-jitter model otherwise.
    fn decide(&mut self, gamma_u: &UpperWorkloadCurve, k_eff: usize, cfg: &ServeConfig) -> Admission {
        let window = self.arrivals.as_ref().map(|a| &a.window);
        let alpha = if let Some(w) = window.filter(|w| w.len() > k_eff) {
            w.min_spans(k_eff)
                .and_then(|spans| arrival_upper_from_spans(&spans, w.len(), w.duration()).ok())
        } else {
            PeriodicJitter::new(cfg.period_s.max(f64::MIN_POSITIVE), cfg.jitter_s.max(0.0), 0.0)
                .and_then(|m| m.to_step_upper(cfg.period_s * (k_eff as f64 + 1.0)))
                .ok()
        };
        let Some(alpha) = alpha else {
            self.errors += 1;
            return Admission::Reject {
                f_min_hz: f64::INFINITY,
            };
        };
        match sizing::min_frequency_workload(&alpha, gamma_u, cfg.capacity_events) {
            Ok(f_min_hz) if f_min_hz <= cfg.frequency_hz => Admission::Admit { f_min_hz },
            Ok(f_min_hz) => Admission::Reject { f_min_hz },
            Err(_) => Admission::Reject {
                f_min_hz: f64::INFINITY,
            },
        }
    }

    /// Events applied so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events decoded but not yet applied.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Total monitor violations so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Events dropped by the overflow policy.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Admission flips so far.
    #[must_use]
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// Refreshes whose curve, monitor or admission construction failed
    /// (e.g. a decreasing timestamp inside the arrival window).
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Current admission verdict.
    #[must_use]
    pub fn admission(&self) -> Admission {
        self.admission
    }

    /// The monitor, if one is bound yet.
    #[must_use]
    pub fn monitor(&self) -> Option<&EnvelopeMonitor> {
        self.monitor.as_ref()
    }

    /// One stable JSON object describing the session — the byte-level
    /// parity surface between the live and batch paths.
    #[must_use]
    pub fn snapshot_json(&self, name: &str) -> String {
        let (verdict, f_min) = match self.admission {
            Admission::Warming => ("warming", None),
            Admission::Admit { f_min_hz } => ("admit", Some(f_min_hz)),
            Admission::Reject { f_min_hz } => ("reject", Some(f_min_hz)),
        };
        let f_min = match f_min {
            Some(f) if f.is_finite() => format!("{f:.3}"),
            Some(_) => "null".to_string(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"session\":{name:?},\"events\":{events},\"k\":{k},",
                "\"refreshes\":{refreshes},\"wcet\":{wcet},\"gamma_u_k\":{gk},",
                "\"verdict\":\"{verdict}\",\"f_min_hz\":{fmin},",
                "\"violations\":{viol},\"dropped\":{dropped},\"flips\":{flips}}}"
            ),
            name = name,
            events = self.events,
            k = self.k_eff,
            refreshes = self.refreshes,
            wcet = self.wcet,
            gk = self.gamma_k,
            verdict = verdict,
            fmin = f_min,
            viol = self.violations,
            dropped = self.dropped,
            flips = self.flips,
        )
    }
}
