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
//! Usage: `cargo run --release -p wcm-bench --bin bench_serve [OUT.json]`

use std::path::Path;
use std::time::Instant;

use wcm_serve::{ServeConfig, Service};
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
    std::fs::remove_dir_all(&dir)?;
    let (small_ns, large_ns) = (median(&mut small), median(&mut large));
    let ratio = large_ns / small_ns;

    let json = format!(
        "{{\n  \"config\": {{ \"sessions\": [{SMALL}, {LARGE}], \"events_per_session\": {EVENTS}, \"sitting\": {SITTING}, \"runs\": {RUNS} }},\n\
         \x20 \"ingest\": {{\n\
         \x20   \"ns_per_event_5k\": {small_ns:.1},\n\
         \x20   \"ns_per_event_20k\": {large_ns:.1},\n\
         \x20   \"ratio_20k_vs_5k\": {ratio:.4}\n\
         \x20 }}\n}}\n"
    );
    std::fs::write(&out_path, &json)?;
    print!("{json}");
    eprintln!(
        "bench_serve: {small_ns:.0} ns/event at {SMALL} sessions, {large_ns:.0} ns/event at \
         {LARGE} (ratio {ratio:.2}, medians of {RUNS} interleaved runs), wrote {out_path}"
    );
    Ok(())
}
