//! The per-layer breakdown of a traced pass, read from the spans and
//! counters in a `wcm_obs` snapshot: the spans the benchmark records
//! around each public call, plus what the program already emits
//! (`sweep.*`, `sim.*`, `par.*`, `serve.*`).

use std::collections::{BTreeMap, HashMap};

use wcm::obs::{Snapshot, SpanRecord};

/// End-to-end metrics of an untraced run, with units. The names of both
/// lists match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("rss_per_session_kb", "kB"),
];

/// Per-layer metrics of a traced run, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mpeg.synthesize_s", "s"),
    ("mpeg.clips_from_app_frames_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.decode_bytes_per_s", "B/s"),
    ("wire.frames", "count"),
    ("wire.frames_skipped", "count"),
    ("wire.feed_s", "s"),
    ("serve.poll_s", "s"),
    ("serve.route_s", "s"),
    ("serve.round_s", "s"),
    ("serve.rounds", "count"),
    ("serve.round_ms_p50", "ms"),
    ("serve.round_ms_max", "ms"),
    ("serve.shard_apply_s", "s"),
    ("serve.refresh_s", "s"),
    ("serve.refreshes", "count"),
    ("serve.refresh_us_mean", "us"),
    ("serve.sessions", "count"),
    ("serve.backpressure_stalls", "count"),
    ("serve.violations", "count"),
    ("events.window_sums_s", "s"),
    ("core.arrival_upper_s", "s"),
    ("core.min_frequency_s", "s"),
    ("core.greedy_processing_s", "s"),
    ("sim.pe1_simulate_s", "s"),
    ("sim.validate_simulate_s", "s"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sweep.run_s", "s"),
    ("sweep.clip_analysis_s", "s"),
    ("sweep.eval_s", "s"),
    ("sweep.pruned_frac", "ratio"),
    ("sweep.frontier_s", "s"),
    ("sweep.frontier_cells", "count"),
    ("sweep.frontier_cells_frac", "ratio"),
    ("par.busy_frac", "ratio"),
    ("par.steals", "count"),
    ("par.speedup_2t", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("unaccounted_frac", "ratio"),
];

/// Span-time metrics: metric name, span name. Nested spans of the same
/// name count once (the outermost).
const SPAN_SECONDS: &[(&str, &str)] = &[
    ("mpeg.clips_from_app_frames_s", "mpeg.clips_from_app_frames"),
    ("wire.decode_s", "wire.decode"),
    ("events.window_sums_s", "events.window_sums"),
    ("core.arrival_upper_s", "core.arrival_upper"),
    ("core.min_frequency_s", "core.min_frequency"),
    ("core.greedy_processing_s", "core.greedy_processing"),
    ("sim.pe1_simulate_s", "sim.pe1_simulate"),
    ("sim.validate_simulate_s", "sim.validate_simulate"),
    ("sim.run_s", "sim.run"),
    ("sweep.run_s", "sweep.run"),
    ("sweep.clip_analysis_s", "sweep.clip_analysis"),
    ("sweep.eval_s", "sweep.eval"),
    ("sweep.frontier_s", "sweep.frontier"),
    ("serve.round_s", "serve.round"),
    ("serve.refresh_s", "serve.refresh"),
];

/// Counter metrics: metric name, counter name.
const COUNTERS: &[(&str, &str)] = &[
    ("sim.runs", "sim.runs"),
    ("sim.events", "sim.events"),
    ("par.steals", "par.steals"),
    ("serve.backpressure_stalls", "serve.backpressure_stalls"),
    ("serve.violations", "serve.violations"),
];

/// Spans named `name` with no ancestor of the same name.
fn outermost<'a>(snap: &'a Snapshot, name: &str) -> Vec<&'a SpanRecord> {
    let by_id: HashMap<u64, &SpanRecord> = snap.spans.iter().map(|s| (s.id, s)).collect();
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| {
            let mut parent = s.parent;
            while let Some(p) = by_id.get(&parent) {
                if p.name == name {
                    return false;
                }
                parent = p.parent;
            }
            true
        })
        .collect()
}

/// Total seconds of the outermost spans named `name`.
#[must_use]
pub fn span_seconds(snap: &Snapshot, name: &str) -> f64 {
    outermost(snap, name)
        .iter()
        .fold(0.0, |acc, s| acc + s.dur_ns as f64)
        / 1e9
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The layer metrics of one traced pass of `wall_s` seconds, whose
/// top-level calls ran on thread `main_tid` with `threads` workers.
#[must_use]
pub fn layer_metrics(
    snap: &Snapshot,
    main_tid: u64,
    wall_s: f64,
    threads: usize,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for &(metric, span) in SPAN_SECONDS {
        m.insert(metric, span_seconds(snap, span));
    }
    for &(metric, counter) in COUNTERS {
        m.insert(metric, snap.counter(counter) as f64);
    }
    m.insert("serve.sessions", snap.gauge("serve.sessions") as f64);

    let mut rounds_ms: Vec<f64> = snap
        .spans
        .iter()
        .filter(|s| s.name == "serve.round")
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    rounds_ms.sort_by(f64::total_cmp);
    m.insert("serve.rounds", rounds_ms.len() as f64);
    m.insert("serve.round_ms_p50", percentile(&rounds_ms, 0.5));
    m.insert(
        "serve.round_ms_max",
        rounds_ms.last().copied().unwrap_or(0.0),
    );
    m.insert(
        "serve.refreshes",
        snap.spans
            .iter()
            .filter(|s| s.name == "serve.refresh")
            .count() as f64,
    );

    // Shard work: the pool's blocks, counted once even when a nested
    // parallel call ran inline inside one.
    let blocks = span_seconds(snap, "par.block");
    let serving = !rounds_ms.is_empty();
    m.insert("serve.shard_apply_s", if serving { blocks } else { 0.0 });
    m.insert("par.busy_frac", blocks / (threads as f64 * wall_s));

    // Whatever the top-level spans on the calling thread do not cover is
    // time the trace cannot attribute to any layer.
    let covered: f64 = snap
        .spans
        .iter()
        .filter(|s| s.parent == 0 && s.tid == main_tid)
        .fold(0.0, |acc, s| acc + s.dur_ns as f64)
        / 1e9;
    m.insert("unaccounted_frac", (1.0 - covered / wall_s).max(0.0));
    m
}

/// Fills the metrics computed from other metrics.
pub fn derive(m: &mut BTreeMap<&'static str, f64>) {
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let route = (get(m, "serve.poll_s") - get(m, "wire.feed_s")).max(0.0);
    m.insert("serve.route_s", route);
    let refresh_us = ratio(get(m, "serve.refresh_s") * 1e6, get(m, "serve.refreshes"));
    m.insert("serve.refresh_us_mean", refresh_us);
    let ns_per_event = ratio(get(m, "sim.run_s") * 1e9, get(m, "sim.events"));
    m.insert("sim.ns_per_event", ns_per_event);
    let bytes_per_s = ratio(get(m, "wire.decoded_bytes"), get(m, "wire.decode_s"));
    m.insert("wire.decode_bytes_per_s", bytes_per_s);
}
