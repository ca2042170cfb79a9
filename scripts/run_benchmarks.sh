#!/usr/bin/env bash
# Runs every benchmark binary of a Release build, tees their text output
# to bench_output.txt, and regenerates the committed records from the
# same build's --json output:
#   BENCH_wal.json          bench/micro_wal --json
#   BENCH_replication.json  bench/micro_recovery --json
#   BENCH_lock_cache.json   bench/micro_lock_table --json
#
#   cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
#   cmake --build build-rel -j
#   bash scripts/run_benchmarks.sh build-rel
#
# A bench that exits non-zero (a failed run or data-loss check) stops the
# script before any record is rewritten.
#
# Knobs: XTC_BENCH_SECONDS (per-config run time), XTC_BENCH_FULL=1
# (paper-sized document). See bench/bench_common.h.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"
if ! grep -qx 'CMAKE_BUILD_TYPE:STRING=Release' "$BUILD/CMakeCache.txt"; then
  echo "$BUILD is not a Release build; the records are measurements" >&2
  exit 2
fi
OUT="bench_output.txt"
: > "$OUT"
for b in "$BUILD"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $(basename "$b") =====" | tee -a "$OUT"
  "$b" 2>&1 | tee -a "$OUT"
  echo | tee -a "$OUT"
done
for pair in micro_wal:BENCH_wal.json micro_recovery:BENCH_replication.json \
            micro_lock_table:BENCH_lock_cache.json; do
  record="${pair#*:}"
  "$BUILD/bench/${pair%%:*}" --json > "$record.tmp"
  mv "$record.tmp" "$record"
done
echo "wrote $OUT BENCH_wal.json BENCH_replication.json BENCH_lock_cache.json"
