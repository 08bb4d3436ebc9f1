#!/usr/bin/env bash
# Streaming-sweep smoke: the constant-memory result pipeline and the
# multi-process shard/merge fan-out, exercised end-to-end through the
# CLI. Checks the contracts the streaming path ships with:
#
#  * the row-streamed JSON/CSV artifacts leave no side file behind,
#    on success or on an error exit, and a failed run leaves no
#    partial CSV;
#  * N `--shard i/N --out-wcmt` processes run concurrently, and
#    `--merge` folds their `.wcmt` outputs into a report byte-identical
#    to the single-process run;
#  * the stable exit codes hold: 0 on success, 2 on usage errors and
#    inconsistent/incomplete shard sets, 3 on malformed or truncated
#    shard files.
#
# Seconds, not minutes — meant for every PR touching the sweep engine,
# the wire format or the CLI result pipeline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p wcm-cli
cli=target/release/wcm-cli
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

base=(sweep --clips newscast,sports --gops 1
      --pe2-mhz 5,20,60,200 --capacities 16,400,1620
      --policies backpressure,reject --k 600 --cert-depth 3300)

echo "== streamed artifacts: no side files left behind =="
"$cli" "${base[@]}" --json "$out/dense.json" --csv "$out/dense.csv" >"$out/dense.out"
# The row-streaming writers must clean up their temporaries: the JSON
# rows file and the CSV's `.part` file renamed into place.
if ls "$out"/*.part >/dev/null 2>&1; then
  echo "leftover .part temporary after a successful run"; exit 1
fi
echo "ok: artifacts written, no .part file left"

echo "== side-file and partial-CSV cleanup on error exits =="
# --k 0 fails spec validation *inside* the streaming run, after the
# JSON rows sink and the CSV sink (and their temp files) already exist:
# the scoped guards must remove them on that exit-2 path too, and no
# partial CSV may appear under the requested name.
rc=0; "$cli" "${base[@]}" --k 0 --json "$out/fail.json" --csv "$out/out.csv" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "invalid spec must exit 2, got $rc"; exit 1; }
if ls "$out"/*.part >/dev/null 2>&1; then
  echo "leftover .part temporary after an error exit"; exit 1
fi
[ ! -e "$out/out.csv" ] || { echo "a failed sweep left a partial out.csv"; exit 1; }
rc=0; "$cli" "${base[@]}" --pe1-mhz nope --json "$out/fail.json" --csv "$out/out.csv" 2>/dev/null || rc=$?
[ "$rc" -ne 0 ] || { echo "bad --pe1-mhz must fail"; exit 1; }
if ls "$out"/*.part >/dev/null 2>&1; then
  echo "leftover .part temporary after a parse-error exit"; exit 1
fi
[ ! -e "$out/out.csv" ] || { echo "a failed sweep left a partial out.csv"; exit 1; }
echo "ok: error exits leave no .part file and no out.csv behind"

echo "== shard x merge == single process =="
pids=()
for i in 0 1 2; do
  "$cli" "${base[@]}" --shard "$i/3" --out-wcmt "$out/s$i.wcmt" >/dev/null &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
"$cli" sweep --merge "$out/s0.wcmt,$out/s1.wcmt,$out/s2.wcmt" \
    --json "$out/merged.json" --csv "$out/merged.csv" >/dev/null
cmp "$out/dense.json" "$out/merged.json"
cmp "$out/dense.csv" "$out/merged.csv"
echo "ok: 3 concurrent shard processes merge to the single-process bytes"

echo "== exit-code contract =="
# Truncated shard file: decodable header, stream cut mid-frame -> 3.
head -c 40 "$out/s0.wcmt" >"$out/truncated.wcmt"
rc=0; "$cli" sweep --merge "$out/truncated.wcmt,$out/s1.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "truncated shard must exit 3, got $rc"; exit 1; }
# Not a .wcmt stream at all -> 3.
printf 'not a wcmt stream' >"$out/garbage.wcmt"
rc=0; "$cli" sweep --merge "$out/garbage.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 3 ] || { echo "malformed shard must exit 3, got $rc"; exit 1; }
# Incomplete shard set (2 of 3) -> 2.
rc=0; "$cli" sweep --merge "$out/s0.wcmt,$out/s1.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "incomplete shard set must exit 2, got $rc"; exit 1; }
# Shards from different sweeps (capacities differ -> fingerprints
# differ) -> 2.
"$cli" sweep --clips newscast,sports --gops 1 --pe2-mhz 5,20,60,200 \
    --capacities 16,400,1621 --policies backpressure,reject \
    --k 600 --cert-depth 3300 --shard 1/3 --out-wcmt "$out/alien.wcmt" >/dev/null
rc=0; "$cli" sweep --merge "$out/s0.wcmt,$out/alien.wcmt,$out/s2.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "mismatched shard set must exit 2, got $rc"; exit 1; }
# Usage errors -> 2.
rc=0; "$cli" "${base[@]}" --shard 0/2 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "--shard without --out-wcmt must exit 2, got $rc"; exit 1; }
rc=0; "$cli" "${base[@]}" --shard 2/2 --out-wcmt "$out/x.wcmt" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "out-of-range shard index must exit 2, got $rc"; exit 1; }
rc=0; "$cli" sweep --merge "$out/s0.wcmt" --shard 0/2 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "--merge with --shard must exit 2, got $rc"; exit 1; }
echo "ok: exit codes 0/2/3 as documented"

echo "stream smoke: all checks passed"
