//! Property-based checks of the lazy streaming curve algebra.
//!
//! Every operator is checked against a brute-force oracle on random
//! curves: the pointwise operators against the pointwise formula, min-plus
//! and max-plus convolution and deconvolution against the inf/sup over a
//! dense grid of split points. The exact output bits of each operator are
//! pinned separately by the golden fixtures of `golden_ops.rs`; here, deep
//! fused chains must equal the same chains collected stage by stage, bit
//! for bit (`f64::to_bits`). Generators draw breakpoint coordinates from
//! coarse grids (gaps ≥ 1/8, values in small-integer steps) so the curves
//! are well-conditioned but otherwise unconstrained — staircases, jumps,
//! flats and steep pieces all occur.

use proptest::prelude::*;
use wcm_curves::compact::compact;
use wcm_curves::{approx_eq, maxplus, minplus, CompactSide, CurveIter, Pwl, Segment};

/// Bit-exact segment-list equality with a readable failure message.
fn prop_bitwise(got: &Pwl, want: &Pwl, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.segments().len(),
        want.segments().len(),
        "{}: segment count {} vs {}",
        what,
        got.segments().len(),
        want.segments().len()
    );
    for (i, (l, e)) in got.segments().iter().zip(want.segments()).enumerate() {
        for (a, b, field) in [
            (l.x, e.x, "x"),
            (l.y, e.y, "y"),
            (l.slope, e.slope, "slope"),
        ] {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: segment {} {} differs: {} vs {}",
                what,
                i,
                field,
                a,
                b
            );
        }
    }
    Ok(())
}

/// A valid curve built from grid-valued deltas: x gaps in `{1..=8}/8`,
/// upward jumps in `{0..=6}/2`, slopes in `{0..=12}/4`. Accumulating from
/// the previous segment's reach guarantees the wide-sense-increasing,
/// no-downward-jump invariant by construction.
fn pwl_strategy(max_bps: usize) -> impl Strategy<Value = Pwl> {
    (
        0u32..=6,
        0u32..=12,
        proptest::collection::vec((1u32..=8, 0u32..=6, 0u32..=12), 0..max_bps),
    )
        .prop_map(|(y0, s0, steps)| {
            let mut bps = vec![(0.0, y0 as f64 / 2.0, s0 as f64 / 4.0)];
            for (gap, jump, slope) in steps {
                let (px, py, ps) = *bps.last().unwrap();
                let x = px + gap as f64 / 8.0;
                let y = py + ps * (x - px) + jump as f64 / 2.0;
                bps.push((x, y, slope as f64 / 4.0));
            }
            Pwl::from_breakpoints(bps).expect("grid construction preserves invariants")
        })
}

/// Evaluation points for the oracles: `k/8 + 1/16`, halfway between the
/// breakpoint grid. At such `t` no kink `t ± a` of one operand meets a
/// kink of the other, so every candidate split sits on the 1/64 grid and
/// no one-sided limit is lost between samples: the grid brute forces are
/// exact there, up to rounding.
fn eval_points(f: &Pwl, g: &Pwl) -> impl Iterator<Item = f64> {
    let span = f.tail_start() + g.tail_start() + 2.0;
    (0..)
        .map(|k| f64::from(k) / 8.0 + 1.0 / 16.0)
        .take_while(move |&t| t < span)
}

/// `a ≈ b` at the curve algebra's tolerance, as a property failure.
fn prop_close(a: f64, b: f64, what: &str, t: f64) -> Result<(), TestCaseError> {
    prop_assert!(
        approx_eq(a, b),
        "{}: {} vs oracle {} at t = {}",
        what,
        a,
        b,
        t
    );
    Ok(())
}

/// `sup_{s ≥ 0} f(t+s) − g(s)`, clamped at zero, by brute force over the
/// 1/64 grid of `s` (right values and left limits, plus the true
/// `g(0) = 0` at the origin).
fn deconvolve_brute(f: &Pwl, g: &Pwl, t: f64) -> f64 {
    let end = ((f.tail_start() + g.tail_start() + 1.0) * 64.0) as u32;
    let mut best = f.value(t).max(0.0);
    for j in 0..=end {
        let s = f64::from(j) / 64.0;
        best = best.max(f.value(t + s) - g.value(s));
        best = best.max(f.value_left(t + s) - g.value_left(s));
    }
    best
}

/// `sup_{0 ≤ s ≤ t} f(t−s) + g(s)` by brute force over the 1/64 grid of
/// `s` (`t` must lie on it).
fn maxplus_brute(f: &Pwl, g: &Pwl, t: f64) -> f64 {
    let end = (t * 64.0) as u32;
    (0..=end)
        .map(|j| {
            let s = f64::from(j) / 64.0;
            f.value(t - s) + g.value(s)
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pointwise operators agree with the pointwise formula, on the
    /// right-continuous values and on the left limits.
    #[test]
    fn pointwise_ops_match_sampled_values(
        f in pwl_strategy(8),
        g in pwl_strategy(8),
        c in 0u32..=8,
        dx in 0u32..=8,
        dy in 0u32..=8,
    ) {
        let (c, dx, dy) = (f64::from(c) / 2.0, f64::from(dx) / 4.0, f64::from(dy) / 2.0);
        let min = f.min(&g);
        let max = f.max(&g);
        let sum = f.add(&g);
        let scaled = f.scale(c).unwrap();
        let shifted = f.shift(dx, dy).unwrap();
        for k in 0..160 {
            let t = f64::from(k) / 16.0;
            for (left, val, fv, gv) in [
                (false, Pwl::value as fn(&Pwl, f64) -> f64, f.value(t), g.value(t)),
                (true, Pwl::value_left, f.value_left(t), g.value_left(t)),
            ] {
                let what = |op: &str| format!("{op}{}", if left { " (left limit)" } else { "" });
                prop_close(val(&min, t), fv.min(gv), &what("min"), t)?;
                prop_close(val(&max, t), fv.max(gv), &what("max"), t)?;
                prop_close(val(&sum, t), fv + gv, &what("add"), t)?;
                prop_close(val(&scaled, t), c * fv, &what("scale"), t)?;
            }
            let want = if t >= dx { f.value(t - dx) } else { f.value(0.0) } + dy;
            prop_close(shifted.value(t), want, "shift", t)?;
        }
        prop_assert!(approx_eq(min.ultimate_rate(), f.ultimate_rate().min(g.ultimate_rate())));
        prop_assert!(approx_eq(max.ultimate_rate(), f.ultimate_rate().max(g.ultimate_rate())));
        prop_assert!(approx_eq(sum.ultimate_rate(), f.ultimate_rate() + g.ultimate_rate()));
    }

    /// Min-plus convolution equals the sampled infimum of
    /// `minplus::convolve_sampled` with every split on the 1/64 grid.
    #[test]
    fn minplus_convolve_matches_sampled_infimum(
        f in pwl_strategy(6),
        g in pwl_strategy(6),
    ) {
        let conv = minplus::convolve(&f, &g);
        for t in eval_points(&f, &g) {
            let brute = minplus::convolve_sampled(&f, &g, t, (t * 64.0) as usize);
            prop_close(conv.value(t), brute, "minplus convolve", t)?;
        }
    }

    /// Min-plus deconvolution equals the brute-force supremum, and fails
    /// with `Unbounded` exactly when the flow outgrows the service.
    #[test]
    fn minplus_deconvolve_matches_sampled_supremum(
        f in pwl_strategy(6),
        g in pwl_strategy(6),
    ) {
        match minplus::deconvolve(&f, &g) {
            Ok(dec) => {
                prop_assert!(f.ultimate_rate() <= g.ultimate_rate());
                for t in eval_points(&f, &g) {
                    prop_close(dec.value(t), deconvolve_brute(&f, &g, t), "minplus deconvolve", t)?;
                }
            }
            Err(_) => prop_assert!(f.ultimate_rate() > g.ultimate_rate()),
        }
    }

    /// Max-plus convolution equals the brute-force supremum over splits.
    #[test]
    fn maxplus_convolve_matches_sampled_supremum(
        f in pwl_strategy(6),
        g in pwl_strategy(6),
    ) {
        let conv = maxplus::convolve(&f, &g);
        for t in eval_points(&f, &g) {
            prop_close(conv.value(t), maxplus_brute(&f, &g, t), "maxplus convolve", t)?;
        }
    }

    /// Deep chains (2–32 stages) of alternating pointwise operators, fused
    /// into one stream, are bitwise-identical to the same chain collected
    /// after every stage, with and without a terminating zero-epsilon
    /// compaction.
    #[test]
    fn deep_chains_match_eager_bitwise(
        curves in proptest::collection::vec(pwl_strategy(5), 2..32),
        ops in proptest::collection::vec(0u8..3, 31),
        upper in (0u32..2).prop_map(|b| b == 0),
    ) {
        let mut stagewise = curves[0].clone();
        for (i, c) in curves.iter().enumerate().skip(1) {
            stagewise = match ops[i - 1] {
                0 => stagewise.min(c),
                1 => stagewise.max(c),
                _ => stagewise.add(c),
            };
        }
        let mut lazy: Box<dyn Iterator<Item = Segment>> = Box::new(curves[0].lazy());
        for (i, c) in curves.iter().enumerate().skip(1) {
            lazy = match ops[i - 1] {
                0 => Box::new(lazy.lazy_min(c.lazy())),
                1 => Box::new(lazy.lazy_max(c.lazy())),
                _ => Box::new(lazy.lazy_add(c.lazy())),
            };
        }
        // Zero-epsilon compaction terminating the chain must be a no-op.
        let side = if upper { CompactSide::Upper } else { CompactSide::Lower };
        let compacted = lazy.compact(side, 0.0).unwrap().collect_pwl();
        prop_bitwise(&compacted, &stagewise, "deep chain")?;
    }

    /// The closure lies below `f` and below the sampled `f ⊗ f`, a
    /// converged report is a true fixpoint, and the plain closure is the
    /// report's curve.
    #[test]
    fn closure_report_is_a_fixpoint_below_f(
        f in pwl_strategy(4),
        max_iter in 1usize..6,
    ) {
        let report = minplus::subadditive_closure_report(&f, max_iter);
        prop_bitwise(&minplus::subadditive_closure(&f, max_iter), &report.curve, "closure")?;
        prop_assert!(report.iterations >= 1 && report.iterations <= max_iter);
        for t in eval_points(&f, &f) {
            let bound = f.value(t).min(minplus::convolve_sampled(&f, &f, t, (t * 64.0) as usize));
            let v = report.curve.value(t);
            prop_assert!(v <= bound || approx_eq(v, bound), "above min(f, f ⊗ f) at t = {}", t);
        }
        if report.converged {
            let next = report.curve.min(&minplus::convolve(&report.curve, &f));
            prop_assert_eq!(&next, &report.curve, "converged but not a fixpoint");
        }
    }

    /// Compaction soundness: the compacted curve stays on the declared side
    /// of the original, within the declared epsilon, and the dropped count
    /// matches the removed breakpoints. Compaction is also idempotent.
    #[test]
    fn compaction_dominance_and_bound(
        f in pwl_strategy(10),
        eps_grid in 0u32..=8,
        upper in (0u32..2).prop_map(|b| b == 0),
    ) {
        let eps = eps_grid as f64 / 4.0;
        let side = if upper { CompactSide::Upper } else { CompactSide::Lower };
        let c = compact(&f, side, eps).unwrap();
        // The surfaced bound is zero exactly when nothing merged.
        prop_assert_eq!(c.dropped == 0, c.epsilon == 0.0);
        prop_assert_eq!(
            f.segments().len() - c.curve.segments().len(),
            c.dropped,
            "dropped miscount"
        );
        // Sample breakpoints of both curves plus midpoints and a tail point.
        let mut ts: Vec<f64> = f.breakpoint_xs().chain(c.curve.breakpoint_xs()).collect();
        ts.push(f.tail_start() + 1.5);
        let mids: Vec<f64> = ts.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        ts.extend(mids);
        for &t in &ts {
            let (orig, comp) = (f.value(t), c.curve.value(t));
            let dev = match side {
                CompactSide::Upper => {
                    prop_assert!(comp >= orig - 1e-9, "not dominating at t={}", t);
                    comp - orig
                }
                CompactSide::Lower => {
                    prop_assert!(comp <= orig + 1e-9, "not dominated at t={}", t);
                    orig - comp
                }
            };
            prop_assert!(
                dev <= c.epsilon + 1e-9,
                "deviation {} > bound {} at t={}",
                dev,
                c.epsilon,
                t
            );
        }
        let again = compact(&c.curve, side, eps).unwrap();
        prop_assert_eq!(&again.curve, &c.curve, "compaction not idempotent");
        prop_assert_eq!(again.dropped, 0, "fixed point must not merge further");
    }
}
