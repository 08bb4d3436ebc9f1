//! Golden outputs of the curve operators, compared bit for bit.
//!
//! `fixtures/golden_ops.txt` holds the exact segment lists the operators
//! produced on a fixed set of seeded inputs, captured from the eager
//! implementations (one materialized curve per operation) before the lazy
//! segment streams became the only implementation. Every float is written
//! in Rust's shortest round-trip notation, so parsing it back recovers the
//! original bits; the comparison below is on `f64::to_bits`.
//!
//! The inputs are the grid shapes of `proptest_lazy.rs`'s `pwl_strategy`
//! (x gaps in `{1..=8}/8`, upward jumps in `{0..=6}/2`, slopes in
//! `{0..=12}/4`), drawn from the vendored `StdRng` with one seed per case,
//! plus a few long staircases whose max-plus convolution folds through
//! many stages.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wcm_curves::{maxplus, minplus, CurveError, Pwl};

const FIXTURE: &str = include_str!("fixtures/golden_ops.txt");

/// Seeded cases on small grid curves.
const CASES: u64 = 40;

/// A valid curve with up to `max_bps` breakpoints on the coarse grid.
fn grid_pwl(rng: &mut StdRng, max_bps: usize) -> Pwl {
    let y0 = rng.gen_range(0u32..=6);
    let s0 = rng.gen_range(0u32..=12);
    let n = rng.gen_range(0..max_bps);
    let mut bps = vec![(0.0, f64::from(y0) / 2.0, f64::from(s0) / 4.0)];
    for _ in 0..n {
        let (gap, jump, slope) = (
            rng.gen_range(1u32..=8),
            rng.gen_range(0u32..=6),
            rng.gen_range(0u32..=12),
        );
        let (px, py, ps) = *bps.last().unwrap();
        let x = px + f64::from(gap) / 8.0;
        let y = py + ps * (x - px) + f64::from(jump) / 2.0;
        bps.push((x, y, f64::from(slope) / 4.0));
    }
    Pwl::from_breakpoints(bps).expect("grid construction preserves invariants")
}

/// A staircase of `steps` flat treads with rising risers: the operand
/// shape of arrival curves measured from traces.
fn staircase(rng: &mut StdRng, steps: usize) -> Pwl {
    let mut bps = vec![(0.0, f64::from(rng.gen_range(0u32..=4)), 0.0)];
    for _ in 0..steps {
        let (px, py, _) = *bps.last().unwrap();
        let x = px + f64::from(rng.gen_range(1u32..=8)) / 8.0;
        let y = py + f64::from(rng.gen_range(1u32..=6)) / 2.0;
        bps.push((x, y, 0.0));
    }
    let tail = f64::from(rng.gen_range(1u32..=12)) / 4.0;
    bps.last_mut().unwrap().2 = tail;
    Pwl::from_breakpoints(bps).expect("staircase preserves invariants")
}

fn render_curve(p: &Pwl) -> String {
    p.segments()
        .iter()
        .map(|s| format!("{:?},{:?},{:?}", s.x, s.y, s.slope))
        .collect::<Vec<_>>()
        .join(";")
}

fn render_result(r: Result<Pwl, CurveError>) -> String {
    match r {
        Ok(p) => render_curve(&p),
        Err(CurveError::Unbounded { .. }) => "unbounded".to_string(),
        Err(e) => format!("error {e}"),
    }
}

/// Every `(label, output)` pair of the fixture, in file order.
fn outputs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let f = grid_pwl(&mut rng, 8);
        let g = grid_pwl(&mut rng, 8);
        let c = f64::from(rng.gen_range(0u32..=8)) / 2.0;
        let dx = f64::from(rng.gen_range(0u32..=8)) / 4.0;
        let dy = f64::from(rng.gen_range(0u32..=8)) / 2.0;
        let (a, b) = (grid_pwl(&mut rng, 6), grid_pwl(&mut rng, 6));
        let h = grid_pwl(&mut rng, 4);
        let max_iter = rng.gen_range(1usize..6);
        let mut push = |op: &str, s: String| out.push((format!("{case} {op}"), s));
        push("min", render_curve(&f.min(&g)));
        push("max", render_curve(&f.max(&g)));
        push("add", render_curve(&f.add(&g)));
        push("scale", render_result(f.scale(c)));
        push("shift", render_result(f.shift(dx, dy)));
        push("minplus_convolve", render_curve(&minplus::convolve(&a, &b)));
        push(
            "minplus_deconvolve",
            render_result(minplus::deconvolve(&a, &b)),
        );
        push("maxplus_convolve", render_curve(&maxplus::convolve(&a, &b)));
        push(
            "subadditive_closure",
            render_curve(&minplus::subadditive_closure(&h, max_iter)),
        );
    }
    for (i, steps) in [40usize, 90, 160].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1000 + i as u64);
        let (a, b) = (staircase(&mut rng, steps), staircase(&mut rng, steps));
        let label = format!("stairs{steps}");
        out.push((
            format!("{label} maxplus_convolve"),
            render_curve(&maxplus::convolve(&a, &b)),
        ));
        out.push((
            format!("{label} minplus_convolve"),
            render_curve(&minplus::convolve(&a, &b)),
        ));
    }
    out
}

fn parse_curve(s: &str) -> Vec<[u64; 3]> {
    s.split(';')
        .map(|seg| {
            let v: Vec<u64> = seg
                .split(',')
                .map(|x| x.parse::<f64>().expect("fixture float").to_bits())
                .collect();
            [v[0], v[1], v[2]]
        })
        .collect()
}

fn bits(s: &str) -> Vec<[u64; 3]> {
    if s == "unbounded" || s.starts_with("error") {
        Vec::new()
    } else {
        parse_curve(s)
    }
}

#[test]
fn operators_reproduce_golden_outputs_bitwise() {
    let expected: Vec<(&str, &str)> = FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (label, rest) = l.split_once(": ").expect("`label: output` line");
            (label, rest)
        })
        .collect();
    let actual = outputs();
    assert_eq!(actual.len(), expected.len(), "fixture line count");
    for ((label, got), (want_label, want)) in actual.iter().zip(&expected) {
        assert_eq!(label, want_label, "fixture order");
        assert_eq!(
            got.as_str() == "unbounded",
            *want == "unbounded",
            "{label}: error/ok disagreement"
        );
        assert_eq!(
            bits(got),
            bits(want),
            "{label}: output differs\n got {got}\nwant {want}"
        );
    }
}

#[test]
fn fixture_covers_the_unbounded_deconvolution() {
    assert!(
        FIXTURE
            .lines()
            .any(|l| l.ends_with("minplus_deconvolve: unbounded")),
        "at least one case must exercise the Unbounded error"
    );
    assert!(!FIXTURE.contains("error "), "no other error may appear");
}
