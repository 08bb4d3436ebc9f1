#!/usr/bin/env bash
# Fast benchmark + lint smoke: a clean clippy run, the curve- and sweep-
# related criterion benches in quick mode, the bench_curves/bench_sweep/
# bench_obs/bench_serve summaries that write their BENCH_*.json, the
# sweep-engine contract smoke, and a perf-regression guard over the
# freshly written JSONs. Minutes, not hours — meant for every PR, while
# `cargo bench --workspace` remains the full run.
#
# The guard checks *ratios between paths measured in the same process*
# (old rescan vs prefix scans, legacy heap loop vs hot path, exhaustive
# vs pruned sweep, one-GOP append vs full rebuild), never absolute
# wall-clock: ratios survive a migration to a slower or busier host,
# absolute numbers don't. Thresholds sit well below the recorded wins
# (6.2x, 7.9x, 4.0x, 0.09) so only a real regression — not measurement
# noise — trips them.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- -D warnings

quick=(--quick --warm-up-time 0.5 --measurement-time 1)
cargo bench -p wcm-bench --bench curve_construction -- "${quick[@]}"
cargo bench -p wcm-bench --bench minplus_ops -- "${quick[@]}"
cargo bench -p wcm-bench --bench sweep -- "${quick[@]}"
cargo bench -p wcm-bench --bench obs -- "${quick[@]}"

cargo run --release -q -p wcm-bench --bin bench_curves
cargo run --release -q -p wcm-bench --bin bench_sweep
cargo run --release -q -p wcm-bench --bin bench_obs
cargo run --release -q -p wcm-bench --bin bench_serve

scripts/sweep_smoke.sh

echo "== perf-regression guard (BENCH_curves / BENCH_sweep / BENCH_obs / BENCH_serve .json) =="
# check <label> <measured> <op> <threshold> — float compare via awk.
check() {
    local label=$1 value=$2 op=$3 bound=$4
    if awk -v v="$value" -v b="$bound" "BEGIN { exit !(v $op b) }"; then
        echo "ok   $label = $value (want $op $bound)"
    else
        echo "FAIL $label = $value (want $op $bound)" >&2
        exit 1
    fi
}

# Curve construction: the prefix-sum rewrite must stay clearly ahead of
# the per-k sliding rescan, every parallel path must stay within noise
# of sequential on 1 core (and ahead on multi-core), chunked summary
# construction must not drown in merge overhead, and appending one GOP
# to a summarized trace must stay far cheaper than a rebuild.
check "curves.speedup_prefix_vs_old"  "$(jq .window_sums.speedup_prefix_vs_old BENCH_curves.json)" ">=" 3.0
# Thread-scaling ratios need real cores behind them: on <=2-core runners
# the parallel path fights the measurement harness for the machine and
# the 0.85x floor flakes without any code regression. Guard them on
# host width instead of asserting unconditionally.
if [ "$(nproc)" -ge 4 ]; then
    check "curves.speedup_par_vs_seq" "$(jq .window_sums.speedup_par_vs_seq BENCH_curves.json)" ">=" 0.85
    check "curves.min_spans_speedup"  "$(jq .min_spans.speedup              BENCH_curves.json)" ">=" 0.85
    # Multi-core guard: the work-stealing pool must turn 4 cores into at
    # least a 2x pruned-sweep speedup over 1 thread.
    check "sweep.speedup_at_4"        "$(jq .sweep.speedup_at_4 BENCH_sweep.json)" ">=" 2.0
else
    echo "SKIPPED curves.speedup_par_vs_seq (nproc $(nproc) < 4: thread-scaling ratio is noise-bound)"
    echo "SKIPPED curves.min_spans_speedup (nproc $(nproc) < 4: thread-scaling ratio is noise-bound)"
    echo "SKIPPED sweep.speedup_at_4 (nproc $(nproc) < 4: no 4-thread rung on this host)"
fi
check "curves.merge_overhead"         "$(jq .chunk_summaries.merge_overhead_vs_single BENCH_curves.json)" "<=" 1.5
check "curves.append_over_rebuild"    "$(jq .append_one_gop.append_over_rebuild BENCH_curves.json)" "<=" 0.25

# Lazy curve algebra: composing a 32-stage tandem service chain on the
# streaming path must stay at or below 3151 allocations (recorded
# 2654) — the bound the former ">= 5x fewer than the eager fold" ratio
# enforced against the eager fold's recorded 15756. Allocation counts
# are deterministic — same inputs, same single-threaded code path — so
# this guard is exact, not noise-bound, and any regression is a real
# one.
check "curves.lazy_allocs"            "$(jq .lazy_tandem_32.lazy_allocs BENCH_curves.json)" "<=" 3151

# Wire format: the lenient (resync-capable) reader must stay within 50%
# of the strict reader on a *clean* stream — graceful degradation is
# paid for only when frames are actually damaged. A ratio of two decodes
# of the same bytes in the same process, so host speed cancels out.
# Recorded value sits at 1.01-1.04.
check "wire.lenient_overhead"         "$(jq .wire.lenient_overhead_vs_strict BENCH_curves.json)" "<=" 1.5

# Sweep engine: pruned+threaded points/s must stay clearly ahead of the
# exhaustive sequential sweep, and the heap-free simulator hot path must
# stay clearly ahead of the legacy heap loop (ns/event).
check "sweep.points_per_s_speedup"    "$(jq .sweep.speedup_par_pruned_vs_seq_unpruned BENCH_sweep.json)" ">=" 2.0
check "sweep.simulator_speedup"       "$(jq .simulator.speedup BENCH_sweep.json)" ">=" 3.0

# Overflow policies: on one moderately overflowing point (150 MHz PE2,
# a 400-entry FIFO), DropByPriority may cost at most 1.5x Reject per
# event. The victim scan stops at the first B macroblock from the back
# (measured 1.0-1.1); scanning the whole FIFO on every overflowing
# arrival measured 2.5-3.5. Same clip, same process.
check "sweep.drop_priority_over_reject" "$(jq .overflow_policies.drop_priority_over_reject BENCH_sweep.json)" "<=" 1.5

# Streaming result pipeline: growing the grid 10x (100k -> 1M cells)
# must leave the streaming path's peak allocator bytes flat — that is
# the constant-memory contract of run_sweep_streaming. Peak bytes are
# deterministic (same single-threaded allocation sequence), so the 1.5
# bound is pure headroom over the recorded 1.00. The materializing
# ratio is asserted too: if it ever stops growing with the grid, the
# guard is no longer measuring a real materialization to stream against.
check "sweep.stream_peak_ratio"       "$(jq .stream.peak_ratio_10x BENCH_sweep.json)" "<=" 1.5
check "sweep.materialize_peak_ratio"  "$(jq .stream.materialize_peak_ratio_10x BENCH_sweep.json)" ">=" 4.0

# Frontier bisection: must locate the identical Pareto frontier while
# deciding at most a quarter of the dense grid's cells. Both properties
# are thread- and load-independent, so they hold on any host.
check "frontier.identical"            "$(jq '.frontier.identical | if . then 1 else 0 end' BENCH_sweep.json)" "==" 1
check "frontier.bisect_fraction"      "$(jq .frontier.bisect_fraction BENCH_sweep.json)" "<=" 0.25

# Observability: the live MemRecorder must cost < 3% on the sweep hot
# path (median paired ratio, interleaved at single-sweep granularity so
# the bound holds on shared single-core runners; recorded values sit at
# 0-2.6% with a ~1% true floor — see EXPERIMENTS.md §E12). The disabled
# gate is pinned separately by the byte-identity checks in obs_smoke.sh.
check "obs.recorder_overhead"         "$(jq .enabled.overhead_median_ratio BENCH_obs.json)" "<=" 1.03

# Serve ingest scaling: the per-event cost of replaying 20k sessions x
# 24 events through `Service` must stay within 1.5x of the cost at 5k
# sessions (medians of 5 interleaved runs each, same process). Routing
# each frame in O(1) keeps it at 1.2-1.4 — the larger stream spreads a
# session over several poll rounds, so it pays more batches per event;
# a per-frame scan over the open sessions measured about 3.7.
check "serve.ingest_ratio_20k_vs_5k"  "$(jq .ingest.ratio_20k_vs_5k BENCH_serve.json)" "<=" 1.5

# Serve refresh cost at two window sizes: the per-event apply cost of 16
# timestamped sessions (a refresh every 64 events) at a 4096-timestamp
# arrival window must stay within 1.5x of the cost at 1024. The span
# window's sealed block minima keep it at 1.0-1.2; rescanning the whole
# window on every refresh measured about 2.7.
check "serve.refresh_ratio_4096_vs_1024" "$(jq .refresh.ratio_4096_vs_1024 BENCH_serve.json)" "<=" 1.5

echo "perf guard: all checks passed"
