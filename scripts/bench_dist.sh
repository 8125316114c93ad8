#!/usr/bin/env bash
# Distributed-sweep scaling + recovery bench -> BENCH_pr7.json.
#
#   scripts/bench_dist.sh [build-dir] [out-json]
#
# Times `safelight run susceptibility --model cnn1 --scale tiny` from a
# fresh zoo at --workers 0 (single-process reference), 1, 2 and 4, plus a
# 2-worker chaos leg (--chaos 0.2: workers crash on ~20% of durable
# writes) whose extra wall time over the clean 2-worker run is the
# recovery overhead. Every leg's CSV is compared byte-for-byte against
# the --workers 0 reference before its timing is trusted.
#
# Workers run --threads 1 so the bench measures process-level sharding,
# not thread-pool fan-out. On a single-core host (CI, this container)
# worker processes time-share one CPU, so wall-clock speedup > 1 is
# physically unattainable there — the interesting numbers are the
# sharding overhead (workers=1 vs workers=0) and the chaos recovery
# overhead. The JSON records cpu count so readers can judge.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
OUT_JSON="${2:-BENCH_pr7.json}"
SAFELIGHT="$(cd "$BUILD_DIR" && pwd)/src/safelight"
SEEDS="${SAFELIGHT_BENCH_SEEDS:-6}"

BENCH_DIR="$(mktemp -d)"
trap 'rm -rf "$BENCH_DIR"' EXIT

# now_ms: monotonic-enough millisecond timestamp for wall deltas.
now_ms() { date +%s%3N; }

run_leg() {  # name, extra flags...
  local name="$1"; shift
  local zoo="$BENCH_DIR/zoo_$name" out="$BENCH_DIR/out_$name"
  local t0 t1
  t0=$(now_ms)
  "$SAFELIGHT" run susceptibility --model cnn1 --scale tiny \
      --seeds "$SEEDS" --threads 1 --zoo "$zoo" --out "$out" "$@" \
      >"$BENCH_DIR/$name.log"
  t1=$(now_ms)
  echo "$(( t1 - t0 ))" >"$BENCH_DIR/$name.ms"
  grep '\[dist\] summary:' "$BENCH_DIR/$name.log" \
      >"$BENCH_DIR/$name.summary" || true
  echo "  $name: $(( (t1 - t0) / 1000 )).$(printf '%03d' $(( (t1 - t0) % 1000 )))s"
}

echo "== distributed sweep bench (cnn1/tiny, $SEEDS seeds, fresh zoo per leg) =="
run_leg w0
run_leg w1 --workers 1
run_leg w2 --workers 2
run_leg w4 --workers 4
run_leg w2_chaos --workers 2 --chaos 0.2 --max-task-retries 1000

for leg in w1 w2 w4 w2_chaos; do
  cmp "$BENCH_DIR/out_w0/fig7_susceptibility.csv" \
      "$BENCH_DIR/out_$leg/fig7_susceptibility.csv"
done
echo "all distributed CSVs byte-identical to the single-process reference"

run_all_leg() {  # name, extra flags...
  local name="$1"; shift
  local zoo="$BENCH_DIR/zoo_$name" out="$BENCH_DIR/out_$name"
  local t0 t1
  t0=$(now_ms)
  "$SAFELIGHT" run-all --scale tiny --seeds 2 --threads 1 \
      --zoo "$zoo" --out "$out" "$@" >"$BENCH_DIR/$name.log"
  t1=$(now_ms)
  echo "$(( t1 - t0 ))" >"$BENCH_DIR/$name.ms"
  echo "  $name: $(( (t1 - t0) / 1000 )).$(printf '%03d' $(( (t1 - t0) % 1000 )))s"
}

echo "== run-all scaling (tiny, 2 seeds, all 5 experiments, fresh zoo per leg) =="
run_all_leg ra0
run_all_leg ra1 --workers 1
run_all_leg ra2 --workers 2
run_all_leg ra4 --workers 4
for leg in ra1 ra2 ra4; do
  for csv in "$BENCH_DIR/out_ra0/"*.csv; do
    cmp "$csv" "$BENCH_DIR/out_$leg/$(basename "$csv")"
  done
done
echo "all run-all CSVs byte-identical across worker counts"

summary_field() {  # leg, key -> value (0 when absent)
  grep -o "$2=[0-9]*" "$BENCH_DIR/$1.summary" 2>/dev/null | head -1 \
      | cut -d= -f2 || true
}

ms() { cat "$BENCH_DIR/$1.ms"; }

W0=$(ms w0); W1=$(ms w1); W2=$(ms w2); W4=$(ms w4); WC=$(ms w2_chaos)
RA0=$(ms ra0); RA1=$(ms ra1); RA2=$(ms ra2); RA4=$(ms ra4)
CRASHES=$(summary_field w2_chaos crashes)
RETRIES=$(summary_field w2_chaos retries)

python3 - "$OUT_JSON" <<EOF
import json, os, platform, sys

def s(ms): return round(ms / 1000.0, 3)
w0, w1, w2, w4, wc = $W0, $W1, $W2, $W4, $WC
doc = {
    "pr": 7,
    "bench": "distributed sweep sharding (src/dist)",
    "host": {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "note": "workers run --threads 1; on a 1-cpu host the worker "
                "processes time-share one core, so speedup > 1 is "
                "physically unattainable here — measured numbers are "
                "sharding + recovery overhead, not parallel speedup",
    },
    "workload": {
        "experiment": "susceptibility", "model": "cnn1", "scale": "tiny",
        "seeds": $SEEDS, "threads_per_worker": 1,
        "fresh_zoo_per_leg": True,
        "csv_byte_identical_across_all_legs": True,
    },
    "wall_seconds": {
        "workers_0_single_process": s(w0),
        "workers_1": s(w1),
        "workers_2": s(w2),
        "workers_4": s(w4),
        "workers_2_chaos_p0.2": s(wc),
    },
    "run_all_wall_seconds": {
        "note": "run-all, tiny scale, 2 seeds, all 5 experiments, fresh "
                "zoo per leg; every experiment shards",
        "workers_0_single_process": $RA0 / 1000.0,
        "workers_1": $RA1 / 1000.0,
        "workers_2": $RA2 / 1000.0,
        "workers_4": $RA4 / 1000.0,
        "speedup_w2_vs_w0": round($RA0 / $RA2, 2),
        "speedup_w4_vs_w0": round($RA0 / $RA4, 2),
    },
    "sharding_overhead_w1_vs_w0": round(s(w1) - s(w0), 3),
    "speedup_w2_vs_w0": round(w0 / w2, 2),
    "speedup_w4_vs_w0": round(w0 / w4, 2),
    "chaos_recovery": {
        "crash_probability_per_durable_write": 0.2,
        "worker_crashes": ${CRASHES:-0},
        "task_retries": ${RETRIES:-0},
        "overhead_seconds_vs_clean_w2": round(s(wc) - s(w2), 3),
        "overhead_ratio_vs_clean_w2": round(wc / w2, 2),
    },
}
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote", sys.argv[1])
EOF
