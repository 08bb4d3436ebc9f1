//! Property test: the incremental [`SpanWindow`] answers exactly what a
//! rescan of its contents answers.
//!
//! Random push sequences (mostly ascending, with duplicate runs, `±0.0`,
//! and occasional decreasing or non-finite values) go through windows of
//! capacity 1–300 with block minima up to `k_max` 1–40. After every push,
//! every `k ≤ min(k_max, len)` is queried and compared bit for bit with
//! [`min_spans_with`] in [`WindowMode::Exact`] on the window's contents,
//! and the query must fail exactly when [`TimedTrace::new`] rejects them.

use proptest::collection::vec;
use proptest::prelude::*;
use wcm_events::window::{min_spans_with, Parallelism, SpanWindow, WindowMode};
use wcm_events::{Cycles, ExecutionInterval, TimedEvent, TimedTrace, TypeRegistry};

/// Next timestamp from the previous one, steered by `kind`.
fn next_time(prev: f64, kind: u8, step: f64) -> f64 {
    match kind {
        0..=64 => prev + step,
        65..=79 => prev,
        80..=84 => 0.0,
        85..=89 => -0.0,
        90..=93 => prev - step - 1.0e-3,
        94 => f64::NAN,
        95 => f64::INFINITY,
        96 => f64::NEG_INFINITY,
        _ => prev + 1.0e6 * step,
    }
}

fn trace_accepts(times: &[f64]) -> bool {
    let mut reg = TypeRegistry::new();
    let ty = reg
        .register("e", ExecutionInterval::fixed(Cycles(1)))
        .expect("fresh registry");
    TimedTrace::new(
        reg,
        times.iter().map(|&time| TimedEvent { time, ty }).collect(),
    )
    .is_ok()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn span_window_matches_rescan(
        capacity in 1usize..=300,
        k_max in 1usize..=40,
        ops in vec((0u8..100, 0.0f64..0.5), 1..400),
    ) {
        let mut w = SpanWindow::new(capacity, k_max);
        let mut prev = 0.0f64;
        for (kind, step) in ops {
            let t = next_time(prev, kind, step);
            // Keep a walk that hit NaN or ±∞ going from a finite value.
            prev = if t.is_finite() { t } else { prev };
            w.push(t);
            let contents = w.as_slice();
            prop_assert_eq!(contents.len(), w.len());
            let top = k_max.min(w.len());
            let valid = trace_accepts(contents);
            let oracle = min_spans_with(contents, top, WindowMode::Exact, Parallelism::Seq)
                .expect("1 ≤ top ≤ len");
            for k in 1..=top {
                match w.min_spans(k) {
                    Some(got) => {
                        prop_assert!(valid, "accepted contents TimedTrace rejects");
                        prop_assert_eq!(bits(&got), bits(&oracle[..k]), "k = {}", k);
                    }
                    None => prop_assert!(!valid, "rejected contents TimedTrace accepts"),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Windows of `+0.0` and `−0.0` only: every span is a zero whose sign
    /// depends on the pair, and every window is valid. Without the span
    /// kernel's `+0.0` normalization the block fold and the linear scan
    /// disagree here.
    #[test]
    fn signed_zero_spans_match_rescan(
        capacity in 1usize..=64,
        k_max in 1usize..=8,
        signs in vec(0u8..2, 1..300),
    ) {
        let mut w = SpanWindow::new(capacity, k_max);
        for sign in signs {
            w.push(if sign == 0 { 0.0 } else { -0.0 });
            let top = k_max.min(w.len());
            let oracle = min_spans_with(w.as_slice(), top, WindowMode::Exact, Parallelism::Seq)
                .expect("1 ≤ top ≤ len");
            let got = w.min_spans(top).expect("zeros are a valid trace");
            prop_assert_eq!(bits(&got), bits(&oracle));
            prop_assert!(got.iter().all(|s| s.to_bits() == 0), "zero spans are +0.0");
        }
    }
}
