//! Bench summary for `wcm-serve` ingest scaling, written to
//! `BENCH_serve.json`.
//!
//! One multiplexed `.wcmt` tail file per size — `SMALL` and `LARGE`
//! sessions × `EVENTS` MPEG-like demand events in round-robin 8-event
//! sittings, each introduced by its session's `META` frame (the
//! `gen_sessions` shape) — is replayed through a fresh [`Service`] until
//! idle, then drained. Each run's wall time over the events it applied
//! is its per-event ingest cost. The two sizes alternate, counterbalanced,
//! for `RUNS` rounds, and each size reports the median of its runs.
//!
//! The guarded number is `ratio_20k_vs_5k`, the per-event cost at 20k
//! sessions over the cost at 5k: routing each frame in O(1) keeps it
//! near 1, while any per-frame scan over the open sessions makes it grow
//! with the session count (a linear scan measured about 3.7). It is a
//! ratio of two costs measured in one process, so host speed cancels.
//!
//! The second guarded number is `refresh.ratio_4096_vs_1024`: the
//! per-event apply cost of `TIMED_SESSIONS` timestamped sessions at an
//! arrival window (`times_window`) of 4096 over the cost at 1024. Their
//! [`SessionState`]s are fed directly, 64 events and their timestamps at
//! a time, so each step ends in one refresh of the spine and the eq.-9
//! admission; the envelope monitor is off. Keeping the window's minimal
//! spans up to date keeps the ratio near 1; rescanning the whole window
//! on every refresh makes it grow with the window.
//!
//! Usage: `cargo run --release -p wcm-bench --bin bench_serve [OUT.json]`

use std::path::Path;
use std::time::Instant;

use wcm_serve::{ServeConfig, Service, SessionState};
use wcm_wire::StreamEncoder;

/// Session counts of the two sizes.
const SMALL: usize = 5_000;
const LARGE: usize = 20_000;
/// Events per session.
const EVENTS: usize = 24;
/// Events per `META`-introduced sitting.
const SITTING: usize = 8;
/// Interleaved rounds; the median needs an odd count.
const RUNS: usize = 5;

/// Timestamped sessions and events per session of the refresh-cost
/// stream, and the two arrival-window sizes it runs at.
const TIMED_SESSIONS: usize = 16;
const TIMED_EVENTS: usize = 16_384;
const WINDOWS: [usize; 2] = [1_024, 4_096];
/// Interleaved rounds of the refresh-cost stream. The guarded ratio is
/// the median of the per-round ratios: the ratio of the medians of 5
/// rounds read one outlier of 1.48 among readings of 1.09-1.18.
const TIMED_RUNS: usize = 11;

const GOP: [u64; 12] = [900, 150, 150, 420, 150, 150, 420, 150, 150, 420, 150, 150];

/// The interleaved multi-session stream.
fn stream(sessions: usize) -> Vec<u8> {
    let mut enc = StreamEncoder::new();
    for at in (0..EVENTS).step_by(SITTING) {
        for s in 0..sessions {
            let demands: Vec<u64> = (at..(at + SITTING).min(EVENTS))
                .map(|i| GOP[(i + s) % GOP.len()] + (s as u64 % 7) * 10)
                .collect();
            enc.meta(&format!("s{s:05}"));
            enc.demands(&demands);
        }
    }
    enc.finish()
}

/// The timestamps (a per-session period with a little jitter) and
/// demands of the `TIMED_SESSIONS` refresh-cost sessions.
fn timed_sessions() -> Vec<(Vec<f64>, Vec<u64>)> {
    (0..TIMED_SESSIONS)
        .map(|s| {
            let period = 1.0 / (25.0 + s as f64);
            let times = (0..TIMED_EVENTS)
                .map(|i| (i as f64 + ((i * 7 + s) % 5) as f64 * 0.05) * period)
                .collect();
            let demands = (0..TIMED_EVENTS)
                .map(|i| GOP[(i + s) % GOP.len()] + ((i * 37 + s) % 23) as u64)
                .collect();
            (times, demands)
        })
        .collect()
}

/// Feed every timed session through a fresh [`SessionState`] at
/// `times_window`, one refresh step at a time; returns ns per applied
/// event.
fn apply_ns_per_event(sessions: &[(Vec<f64>, Vec<u64>)], times_window: usize) -> f64 {
    // The envelope monitor's per-event cost does not depend on the
    // window; off, it does not dilute the ratio.
    let cfg = ServeConfig {
        times_window,
        monitor: false,
        ..ServeConfig::default()
    };
    let step = usize::try_from(cfg.refresh_every).expect("small refresh cadence");
    let mut states: Vec<SessionState> = sessions.iter().map(|_| SessionState::new(&cfg)).collect();
    let start = Instant::now();
    for (state, (times, demands)) in states.iter_mut().zip(sessions) {
        for at in (0..TIMED_EVENTS).step_by(step) {
            let end = (at + step).min(TIMED_EVENTS);
            state.record_times(&times[at..end], &cfg);
            state.enqueue(&demands[at..end], &cfg);
            state.apply_pending(&cfg);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    for state in &states {
        assert_eq!(state.events(), TIMED_EVENTS as u64);
        assert_eq!(state.errors(), 0, "refresh errors");
    }
    wall / (TIMED_SESSIONS * TIMED_EVENTS) as f64 * 1e9
}

/// Replay `path` through a fresh service; returns ns per applied event.
fn ns_per_event(path: &Path, sessions: usize) -> Result<f64, Box<dyn std::error::Error>> {
    let start = Instant::now();
    let mut svc = Service::new(ServeConfig::default());
    svc.add_tail(path)?;
    while !svc.round()?.idle {}
    svc.drain()?;
    let wall = start.elapsed().as_secs_f64();
    let stats = svc.stats();
    let events = (sessions * EVENTS) as u64;
    if stats.dead_sources != 0 || stats.events != events || svc.session_count() != sessions {
        return Err(format!(
            "{sessions} sessions: applied {} of {events} events into {} sessions, {} dead source(s)",
            stats.events,
            svc.session_count(),
            stats.dead_sources
        )
        .into());
    }
    Ok(wall / events as f64 * 1e9)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".into());
    let dir = std::env::temp_dir().join(format!("bench_serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let files = [SMALL, LARGE].map(|n| dir.join(format!("{n}.wcmt")));
    for (path, n) in files.iter().zip([SMALL, LARGE]) {
        std::fs::write(path, stream(n))?;
    }

    let (mut small, mut large) = (Vec::new(), Vec::new());
    for round in 0..RUNS {
        // Counterbalanced: odd rounds run the large size first.
        if round % 2 == 0 {
            small.push(ns_per_event(&files[0], SMALL)?);
            large.push(ns_per_event(&files[1], LARGE)?);
        } else {
            large.push(ns_per_event(&files[1], LARGE)?);
            small.push(ns_per_event(&files[0], SMALL)?);
        }
    }
    let timed = timed_sessions();
    let (mut narrow, mut wide, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..TIMED_RUNS {
        let (n, w) = if round % 2 == 0 {
            let n = apply_ns_per_event(&timed, WINDOWS[0]);
            (n, apply_ns_per_event(&timed, WINDOWS[1]))
        } else {
            let w = apply_ns_per_event(&timed, WINDOWS[1]);
            (apply_ns_per_event(&timed, WINDOWS[0]), w)
        };
        narrow.push(n);
        wide.push(w);
        ratios.push(w / n);
    }
    std::fs::remove_dir_all(&dir)?;
    let (small_ns, large_ns) = (median(&mut small), median(&mut large));
    let ratio = large_ns / small_ns;
    let (narrow_ns, wide_ns) = (median(&mut narrow), median(&mut wide));
    let refresh_ratio = median(&mut ratios);

    let json = format!(
        "{{\n  \"config\": {{ \"sessions\": [{SMALL}, {LARGE}], \"events_per_session\": {EVENTS}, \"sitting\": {SITTING}, \"runs\": {RUNS} }},\n\
         \x20 \"ingest\": {{\n\
         \x20   \"ns_per_event_5k\": {small_ns:.1},\n\
         \x20   \"ns_per_event_20k\": {large_ns:.1},\n\
         \x20   \"ratio_20k_vs_5k\": {ratio:.4}\n\
         \x20 }},\n\
         \x20 \"refresh\": {{\n\
         \x20   \"sessions\": {TIMED_SESSIONS},\n\
         \x20   \"events_per_session\": {TIMED_EVENTS},\n\
         \x20   \"runs\": {TIMED_RUNS},\n\
         \x20   \"ns_per_event_1024\": {narrow_ns:.1},\n\
         \x20   \"ns_per_event_4096\": {wide_ns:.1},\n\
         \x20   \"ratio_4096_vs_1024\": {refresh_ratio:.4}\n\
         \x20 }}\n}}\n"
    );
    std::fs::write(&out_path, &json)?;
    print!("{json}");
    eprintln!(
        "bench_serve: {small_ns:.0} ns/event at {SMALL} sessions, {large_ns:.0} ns/event at \
         {LARGE} (ratio {ratio:.2}); timed refresh {narrow_ns:.0} ns/event at window 1024, \
         {wide_ns:.0} at 4096 (median paired ratio {refresh_ratio:.2} of {TIMED_RUNS} runs); \
         medians of interleaved runs, wrote {out_path}"
    );
    Ok(())
}
