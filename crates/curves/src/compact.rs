//! Dominance-based segment compaction for piecewise-linear curves.
//!
//! Long operator chains — in particular the sub-additive closure and deep
//! tandem compositions — accumulate breakpoints whose removal would change
//! the curve by less than the model's tolerance. This module coarsens a
//! curve by merging runs of consecutive segments into a single segment,
//! under a *one-sided dominance* contract so the result stays sound for
//! Network-Calculus reasoning:
//!
//! * [`CompactSide::Upper`] — the compacted curve dominates the original
//!   (`compacted(Δ) ≥ original(Δ)` for all `Δ`), so it remains a valid
//!   *upper* arrival curve. A run is replaced by its **last** segment's
//!   line extended backward to the run's start (on an increasing curve the
//!   later piece lies above the earlier ones).
//! * [`CompactSide::Lower`] — the compacted curve is dominated by the
//!   original, so it remains a valid *lower* service curve. A run is
//!   replaced by its **first** segment's line extended forward (the
//!   earlier piece lies below the later ones).
//!
//! A single greedy pass ([`CompactStream`]) bounds its deviation from its
//! *input* by the caller's `epsilon`, but it is not idempotent: a merged
//! segment can itself become mergeable with its neighbour on a second
//! pass, spending a fresh epsilon budget each time. The materializing
//! [`compact`] entry point therefore iterates passes until one drops
//! nothing — the result is a fixed point (re-compacting it with the same
//! parameters returns it unchanged) — and reports the guaranteed
//! cumulative deviation bound, `epsilon × (merging passes)`, in
//! [`Compacted::epsilon`]. The bound is carried in the result so
//! downstream consumers see it explicitly instead of inheriting a silently
//! perturbed curve.
//!
//! With `epsilon == 0.0` every acceptance test degenerates to *exact*
//! float equality at the run's junctions, which the normalized segment
//! streams of this crate do not exhibit (the constructors already merge
//! approximately-collinear junctions, and non-collinear pieces disagree at
//! their endpoints) — zero-epsilon compaction passes every segment through
//! verbatim and preserves the lazy layer's bitwise contract.

use crate::iter::CurveIter;
use crate::pwl::{Pwl, Segment};
use crate::CurveError;

/// Which side of the original curve the compacted curve must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactSide {
    /// The compacted curve dominates the original (sound for upper
    /// arrival curves).
    Upper,
    /// The compacted curve is dominated by the original (sound for lower
    /// service curves).
    Lower,
}

/// A compacted curve together with the compaction contract it satisfies:
/// the dominance [`side`](Compacted::side), the pointwise deviation bound
/// [`epsilon`](Compacted::epsilon), and how many breakpoints were merged
/// away.
#[derive(Debug, Clone, PartialEq)]
pub struct Compacted {
    /// The compacted curve.
    pub curve: Pwl,
    /// Dominance direction relative to the original.
    pub side: CompactSide,
    /// Guaranteed pointwise deviation bound:
    /// `|compacted(Δ) − original(Δ)| ≤ epsilon` for all `Δ`, with the sign
    /// fixed by [`side`](Compacted::side). This is the requested per-pass
    /// epsilon times the number of passes that merged anything — exactly
    /// `0.0` when nothing was dropped.
    pub epsilon: f64,
    /// Number of breakpoints merged away.
    pub dropped: usize,
}

/// Compacts a materialized curve to a fixed point (see the
/// [module docs](self)): greedy passes repeat until one merges nothing, so
/// re-compacting the result with the same parameters returns it unchanged.
///
/// # Errors
///
/// Returns [`CurveError::NegativeParameter`] if `epsilon` is negative or
/// not finite.
pub fn compact(p: &Pwl, side: CompactSide, epsilon: f64) -> Result<Compacted, CurveError> {
    let mut curve: Option<Pwl> = None;
    let mut total_dropped = 0usize;
    let mut merging_passes = 0usize;
    loop {
        let input = curve.as_ref().unwrap_or(p);
        let mut stream = input.lazy().compact(side, epsilon)?;
        let mut segs = Vec::with_capacity(input.segments().len());
        for s in stream.by_ref() {
            segs.push(s);
        }
        let dropped = stream.dropped();
        if dropped == 0 {
            return Ok(Compacted {
                curve: curve.unwrap_or_else(|| p.clone()),
                side,
                epsilon: merging_passes as f64 * epsilon,
                dropped: total_dropped,
            });
        }
        total_dropped += dropped;
        merging_passes += 1;
        curve = Some(Pwl::from_normalized(segs));
    }
}

/// Longest run of consecutive segments considered for a single merge. Caps
/// the per-segment work and the stream state at O(1).
const RUN_CAP: usize = 8;

/// Streaming segment compactor (see the [module docs](self)); returned by
/// [`CurveIter::compact`]. Composable with every other lazy adapter.
pub struct CompactStream<I> {
    src: I,
    side: CompactSide,
    epsilon: f64,
    /// Consecutive input segments forming the current merge candidate.
    run: [Segment; RUN_CAP],
    run_len: usize,
    /// Second output of a double-emit step (run head plus a survivor).
    pending_out: Option<Segment>,
    dropped: usize,
    done: bool,
}

impl<I: Iterator<Item = Segment>> CompactStream<I> {
    pub(crate) fn new(src: I, side: CompactSide, epsilon: f64) -> Result<Self, CurveError> {
        if !(epsilon.is_finite() && epsilon >= 0.0) {
            return Err(CurveError::NegativeParameter {
                name: "epsilon",
                value: epsilon,
            });
        }
        Ok(Self {
            src,
            side,
            epsilon,
            run: [Segment::new(0.0, 0.0, 0.0); RUN_CAP],
            run_len: 0,
            pending_out: None,
            dropped: 0,
            done: false,
        })
    }

    /// Number of breakpoints merged away so far (final once the stream is
    /// exhausted).
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Upper-side acceptance: replacing the run *and* `s` by the backward
    /// extension `M(x) = s.y + s.slope·(x − s.x)` of `s`'s line keeps the
    /// output at or above the original, within `epsilon`. Original and
    /// candidate are linear on each run piece, so checking both endpoints
    /// of every piece bounds the deviation everywhere, including across
    /// upward jumps; the junctions to the neighbouring output segments are
    /// sound by construction (`M` starts at or above the run's start value
    /// and rejoins the original exactly at `s`).
    fn accepts_upper(&self, s: &Segment) -> bool {
        for j in 0..self.run_len {
            let piece = self.run[j];
            let end = if j + 1 < self.run_len {
                self.run[j + 1].x
            } else {
                s.x
            };
            for (x, orig) in [(piece.x, piece.y), (end, piece.value_at(end))] {
                let m = s.value_at(x);
                if !(m >= orig && m - orig <= self.epsilon) {
                    return false;
                }
            }
        }
        true
    }

    /// Lower-side acceptance of the next input segment `s`: the run's
    /// *first* segment's line `M` must cover the run's last piece over its
    /// now-closed span `[rk.x, s.x]` from below within `epsilon` (earlier
    /// pieces were confirmed when their successors arrived), and must not
    /// overshoot `s`'s start value (that junction becomes an output
    /// junction if `s` ends up heading the next run, so a downward jump
    /// must never be created).
    fn accepts_lower(&self, s: &Segment) -> bool {
        let first = self.run[0];
        let rk = self.run[self.run_len - 1];
        for (x, orig) in [(rk.x, rk.y), (s.x, rk.value_at(s.x))] {
            let m = first.value_at(x);
            if !(m <= orig && orig - m <= self.epsilon) {
                return false;
            }
        }
        first.value_at(s.x) <= s.y
    }

    /// Collapses the closed run into its merged output segment. A run of
    /// one is passed through verbatim (bitwise).
    fn merged(&self) -> Segment {
        debug_assert!(self.run_len > 0);
        if self.run_len == 1 {
            return self.run[0];
        }
        match self.side {
            CompactSide::Upper => {
                let last = self.run[self.run_len - 1];
                Segment::new(self.run[0].x, last.value_at(self.run[0].x), last.slope)
            }
            // The forward extension of the first piece *is* the first piece.
            CompactSide::Lower => self.run[0],
        }
    }
}

impl<I: Iterator<Item = Segment>> Iterator for CompactStream<I> {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if let Some(p) = self.pending_out.take() {
            return Some(p);
        }
        loop {
            if self.done {
                if self.run_len == 0 {
                    return None;
                }
                // End of stream: close the run against its affine tail.
                let out = self.merged();
                if self.side == CompactSide::Lower && self.run_len >= 2 {
                    let first = self.run[0];
                    let rk = self.run[self.run_len - 1];
                    let m = first.value_at(rk.x);
                    // The tail span is infinite: `M` covers it only with
                    // the exact same slope and a bounded offset.
                    let tail_covered =
                        first.slope == rk.slope && m <= rk.y && rk.y - m <= self.epsilon;
                    if tail_covered {
                        self.dropped += self.run_len - 1;
                    } else {
                        self.dropped += self.run_len - 2;
                        self.pending_out = Some(rk);
                    }
                } else {
                    self.dropped += self.run_len - 1;
                }
                self.run_len = 0;
                return Some(out);
            }
            match self.src.next() {
                None => self.done = true,
                Some(s) => {
                    if self.run_len == 0 {
                        self.run[0] = s;
                        self.run_len = 1;
                        continue;
                    }
                    let fits = self.run_len < RUN_CAP
                        && match self.side {
                            CompactSide::Upper => self.accepts_upper(&s),
                            CompactSide::Lower => self.accepts_lower(&s),
                        };
                    if fits {
                        self.run[self.run_len] = s;
                        self.run_len += 1;
                        continue;
                    }
                    match self.side {
                        CompactSide::Upper => {
                            // The whole run collapses into one segment.
                            let out = self.merged();
                            self.dropped += self.run_len - 1;
                            self.run[0] = s;
                            self.run_len = 1;
                            return Some(out);
                        }
                        CompactSide::Lower => {
                            // The run head covers the middle pieces; the
                            // last piece's span just failed to close, so it
                            // survives and heads the next run.
                            let out = self.run[0];
                            let rk = self.run[self.run_len - 1];
                            if self.run_len == 1 {
                                self.run[0] = s;
                                return Some(out);
                            }
                            self.dropped += self.run_len - 2;
                            self.run[0] = rk;
                            self.run_len = 1;
                            if self.accepts_lower(&s) {
                                self.run[1] = s;
                                self.run_len = 2;
                            } else {
                                self.pending_out = Some(rk);
                                self.run[0] = s;
                                self.run_len = 1;
                            }
                            return Some(out);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::approx_le;

    fn staircase(steps: usize, rise: f64, width: f64) -> Pwl {
        let mut bps = Vec::new();
        for i in 0..steps {
            bps.push((i as f64 * width, (i + 1) as f64 * rise, 0.0));
        }
        let last = bps.last_mut().unwrap();
        last.2 = rise / width; // affine tail with the staircase's mean rate
        Pwl::from_breakpoints(bps).unwrap()
    }

    #[test]
    fn zero_epsilon_is_identity() {
        let f = staircase(12, 1.0, 0.5);
        for side in [CompactSide::Upper, CompactSide::Lower] {
            let c = compact(&f, side, 0.0).unwrap();
            assert_eq!(c.curve, f);
            assert_eq!(c.dropped, 0);
        }
    }

    #[test]
    fn rejects_invalid_epsilon() {
        let f = Pwl::zero();
        assert!(compact(&f, CompactSide::Upper, -1.0).is_err());
        assert!(compact(&f, CompactSide::Upper, f64::NAN).is_err());
        assert!(compact(&f, CompactSide::Upper, f64::INFINITY).is_err());
    }

    #[test]
    fn upper_compaction_dominates_within_epsilon() {
        let f = staircase(16, 1.0, 0.25);
        let eps = 1.0;
        let c = compact(&f, CompactSide::Upper, eps).unwrap();
        assert!(c.dropped > 0, "staircase steps within eps should merge");
        assert!(c.curve.segments().len() < f.segments().len());
        assert!(c.epsilon >= eps, "bound must cover the merging pass");
        for i in 0..200 {
            let t = i as f64 * 0.05;
            let (orig, comp) = (f.value(t), c.curve.value(t));
            assert!(approx_le(orig, comp), "not dominating at t={t}");
            assert!(comp - orig <= c.epsilon + 1e-9, "error above bound at t={t}");
        }
    }

    #[test]
    fn lower_compaction_is_dominated_within_epsilon() {
        let f = staircase(16, 1.0, 0.25);
        let eps = 1.0;
        let c = compact(&f, CompactSide::Lower, eps).unwrap();
        assert!(c.dropped > 0, "staircase steps within eps should merge");
        assert!(c.curve.segments().len() < f.segments().len());
        assert!(c.epsilon >= eps, "bound must cover the merging pass");
        for i in 0..200 {
            let t = i as f64 * 0.05;
            let (orig, comp) = (f.value(t), c.curve.value(t));
            assert!(approx_le(comp, orig), "not dominated at t={t}");
            assert!(orig - comp <= c.epsilon + 1e-9, "error above bound at t={t}");
        }
    }

    #[test]
    fn compaction_is_idempotent() {
        let f = staircase(24, 0.5, 0.2);
        for side in [CompactSide::Upper, CompactSide::Lower] {
            let once = compact(&f, side, 0.75).unwrap();
            let twice = compact(&once.curve, side, 0.75).unwrap();
            assert_eq!(once.curve, twice.curve, "{side:?}");
            assert_eq!(twice.dropped, 0, "{side:?}: fixed point must not merge");
            assert_eq!(twice.epsilon, 0.0, "{side:?}: no merge means zero bound");
        }
    }

    #[test]
    fn dropped_counts_removed_breakpoints() {
        let f = staircase(16, 1.0, 0.25);
        for side in [CompactSide::Upper, CompactSide::Lower] {
            let c = compact(&f, side, 2.0).unwrap();
            assert_eq!(
                f.segments().len() - c.curve.segments().len(),
                c.dropped,
                "{side:?}"
            );
        }
    }

    #[test]
    fn compact_composes_with_lazy_operators() {
        let f = staircase(10, 1.0, 0.5);
        let g = Pwl::affine(2.0, 1.5).unwrap();
        // compact(min(f, g)) via one lazy chain, against the collected min.
        let lazy = f
            .lazy()
            .lazy_min(g.lazy())
            .compact(CompactSide::Upper, 0.0)
            .unwrap()
            .collect_pwl();
        assert_eq!(lazy, f.min(&g)); // eps = 0 → bit-identical
    }
}
