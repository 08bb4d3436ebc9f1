//! Golden admission verdicts of [`SessionState`], compared line for line.
//!
//! `fixtures/golden_admission.txt` holds, for every refresh of a set of
//! seeded timestamped sessions, the eq.-9 verdict (`f_min_hz` pinned by
//! `f64::to_bits`), the refresh error count, the flip count and the
//! session's snapshot line. It was captured while each refresh still
//! rebuilt the empirical arrival curve by rescanning a copy of the whole
//! timestamp window, so it pins the incremental span window to the
//! rescan bit for bit.
//!
//! The sessions cover bursty and periodic streams, duplicate timestamps
//! with a zero first timestamp, one decreasing timestamp (refreshes
//! record errors while it sits in the window), a stream without
//! timestamps (the periodic fallback model), and arrival windows below
//! `2 · k_max` as well as far above it.

use wcm_serve::{Admission, ServeConfig, SessionState};
use wcm_sim::OverflowPolicy;

const FIXTURE: &str = include_str!("fixtures/golden_admission.txt");

/// Events per feeding step: one refresh per step.
const STEP: usize = 64;

/// Deterministic splitmix64 stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy)]
enum Shape {
    /// A period with up to a quarter period of jitter.
    Periodic,
    /// Bursts of 4–40 events 0.1 ms apart, separated by 0.2–0.8 s gaps.
    Bursty,
    /// Starts at exactly 0.0; runs of 1–6 equal timestamps.
    Duplicates,
    /// Periodic, except that event 300 is stamped 10 ms before event 299.
    OneDecrease,
    /// No timestamps at all: admission uses the periodic fallback.
    Untimed,
}

impl Shape {
    fn label(self) -> &'static str {
        match self {
            Shape::Periodic => "periodic",
            Shape::Bursty => "bursty",
            Shape::Duplicates => "duplicates",
            Shape::OneDecrease => "decrease",
            Shape::Untimed => "untimed",
        }
    }

    fn times(self, rng: &mut Mix, n: usize) -> Vec<f64> {
        match self {
            Shape::Periodic | Shape::OneDecrease => {
                let period = 1.0 / (20.0 + rng.below(15) as f64);
                let mut t: Vec<f64> = (0..n)
                    .map(|i| (i as f64 + rng.unit() / 4.0) * period)
                    .collect();
                if matches!(self, Shape::OneDecrease) {
                    t[300] = t[299] - 0.01;
                }
                t
            }
            Shape::Bursty => {
                let mut t = Vec::with_capacity(n);
                let mut now = 0.0f64;
                while t.len() < n {
                    let burst = 4 + rng.below(37) as usize;
                    for _ in 0..burst.min(n - t.len()) {
                        t.push(now);
                        now += 1.0e-4;
                    }
                    now += 0.2 + 0.6 * rng.unit();
                }
                t
            }
            Shape::Duplicates => {
                let mut t = Vec::with_capacity(n);
                let mut now = 0.0f64;
                while t.len() < n {
                    let run = 1 + rng.below(6) as usize;
                    for _ in 0..run.min(n - t.len()) {
                        t.push(now);
                    }
                    now += 0.01 + 0.08 * rng.unit();
                }
                t
            }
            Shape::Untimed => Vec::new(),
        }
    }
}

/// MPEG-like per-picture demands with seeded noise.
fn demands(rng: &mut Mix, n: usize) -> Vec<u64> {
    const GOP: [u64; 12] = [900, 150, 150, 420, 150, 150, 420, 150, 150, 420, 150, 150];
    let phase = rng.below(GOP.len() as u64) as usize;
    (0..n)
        .map(|i| GOP[(i + phase) % GOP.len()] + rng.below(60))
        .collect()
}

fn cfg(k_max: usize, times_window: usize) -> ServeConfig {
    ServeConfig {
        k_max,
        refresh_every: STEP as u64,
        frequency_hz: 50.0e3,
        capacity_events: 12,
        policy: OverflowPolicy::Backpressure,
        session_buffer: 4 * STEP,
        times_window,
        ..ServeConfig::default()
    }
}

struct Session {
    name: String,
    cfg: ServeConfig,
    state: SessionState,
    times: Vec<f64>,
    demands: Vec<u64>,
    at: usize,
}

fn sessions() -> Vec<Session> {
    let mut rng = Mix(0x601D_AD31);
    let mut out = Vec::new();
    let mut add = |shape: Shape, k_max: usize, window: usize, n: usize, rng: &mut Mix| {
        let cfg = cfg(k_max, window);
        out.push(Session {
            name: format!("{}-k{k_max}-w{window}", shape.label()),
            state: SessionState::new(&cfg),
            cfg,
            times: shape.times(rng, n),
            demands: demands(rng, n),
            at: 0,
        });
    };
    for shape in [
        Shape::Periodic,
        Shape::Bursty,
        Shape::Duplicates,
        Shape::OneDecrease,
    ] {
        // Below 2·k_max, then far above it.
        add(shape, 16, 24, 1_500, &mut rng);
        add(shape, 16, 600, 1_500, &mut rng);
    }
    add(Shape::Untimed, 16, 600, 640, &mut rng);
    // The serve defaults: k_max 64 over a 4096-timestamp window.
    add(Shape::Bursty, 64, 4_096, 5_120, &mut rng);
    add(Shape::Periodic, 64, 4_096, 5_120, &mut rng);
    out
}

fn verdict(a: Admission) -> String {
    match a {
        Admission::Warming => "warming".into(),
        Admission::Admit { f_min_hz } => format!("admit:{:016x}", f_min_hz.to_bits()),
        Admission::Reject { f_min_hz } => format!("reject:{:016x}", f_min_hz.to_bits()),
    }
}

/// Round-robin over the sessions, one refresh step each, recording the
/// state after every step.
fn lines() -> Vec<String> {
    let mut sessions = sessions();
    let mut out = Vec::new();
    loop {
        let mut fed = false;
        for s in &mut sessions {
            if s.at >= s.demands.len() {
                continue;
            }
            fed = true;
            let end = (s.at + STEP).min(s.demands.len());
            if !s.times.is_empty() {
                s.state.record_times(&s.times[s.at..end], &s.cfg);
            }
            s.state.enqueue(&s.demands[s.at..end], &s.cfg);
            s.state.apply_pending(&s.cfg);
            s.at = end;
            out.push(format!(
                "{} {} errors={} flips={} {}",
                s.name,
                verdict(s.state.admission()),
                s.state.errors(),
                s.state.flips(),
                s.state.snapshot_json(&s.name)
            ));
        }
        if !fed {
            return out;
        }
    }
}

#[test]
fn admission_matches_golden_fixture() {
    let want: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let got = lines();
    assert_eq!(got.len(), want.len(), "fixture line count");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "admission diverged from the golden fixture");
    }
}

#[test]
fn fixture_exercises_every_admission_path() {
    // The pin is only as good as its coverage: both verdicts, flips,
    // refresh errors from the decreasing timestamp and their recovery.
    for needle in [
        "admit:",
        "reject:",
        "\"flips\":1",
        "decrease-k16-w24 reject:7ff0000000000000 errors=1",
        "decrease-k16-w600 reject:7ff0000000000000 errors=1",
    ] {
        assert!(FIXTURE.contains(needle), "fixture never shows {needle:?}");
    }
    // Once the decreasing pair leaves the small window, the session
    // recovers: its last line records errors but a finite verdict.
    let last = FIXTURE
        .lines()
        .rfind(|l| l.starts_with("decrease-k16-w24 "))
        .expect("session present");
    assert!(!last.contains("reject:7ff0000000000000"), "{last}");
}

#[test]
fn session_state_does_not_grow() {
    // The arrival window lives behind one boxed allocation, so a session
    // that carries no timestamps pays one pointer for it.
    assert!(
        std::mem::size_of::<SessionState>() <= SESSION_STATE_BYTES,
        "SessionState is {} bytes",
        std::mem::size_of::<SessionState>()
    );
}

/// `size_of::<SessionState>()` before the span window was boxed, when
/// the three timestamp fields sat inline.
const SESSION_STATE_BYTES: usize = 992;

