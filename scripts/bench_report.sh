#!/usr/bin/env bash
# Performance report: microbench kernels + timed fig7 sweeps, as JSON.
#
#   scripts/bench_report.sh [--smoke] [build-dir]
#
# Full mode (default) writes BENCH_pr9.json at the repo root — the perf
# trajectory data point for this PR:
#   * GEMM GFLOP/s at 64/128/256 (packed kernel and naive reference, plus
#     the packed/naive speedup ratio),
#   * the same sizes per compute backend (SAFELIGHT_BACKEND forced to each
#     registered variant plus auto), proving runtime dispatch costs nothing
#     and the best variant matches the old -march=native build,
#   * Conv2d forward time,
#   * end-to-end fig7_susceptibility sweep wall-clock at default scale,
#     cold scenario cache, with the prefix-activation cache ON and OFF
#     (SAFELIGHT_PREFIX_CACHE) on a pre-trained zoo,
#   * telemetry overhead: the same sweep through the `safelight` CLI,
#     untraced vs armed with --trace/--metrics (warm zoo, fresh stores,
#     interleaved best-of-3) — the observability layer's contract is <2%
#     overhead and byte-identical CSV output, both recorded in the
#     report.
#
# --smoke (used by scripts/check.sh and CI) runs the same pipeline at tiny
# scale with minimal benchmark repetitions and writes the report into the
# build directory instead, leaving the committed data point untouched.
#
# Requires the microbench binary (Google Benchmark) and python3 (JSON
# assembly). Both are checked up front.
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE=0
BUILD_DIR="build"
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

MICROBENCH="$BUILD_DIR/bench/microbench"
SAFELIGHT="$BUILD_DIR/src/safelight"
if [[ ! -x "$MICROBENCH" ]]; then
  echo "bench_report: $MICROBENCH not built (Google Benchmark missing?)" >&2
  exit 1
fi
if [[ ! -x "$SAFELIGHT" ]]; then
  echo "bench_report: $SAFELIGHT not built" >&2
  exit 1
fi
command -v python3 >/dev/null || { echo "bench_report: python3 required" >&2; exit 1; }

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

if [[ "$SMOKE" == "1" ]]; then
  SCALE=tiny
  SEEDS=2
  # Plain-double form: accepted by every google-benchmark (the "0.05s"
  # suffix form only exists from v1.8).
  BENCH_ARGS=(--benchmark_min_time=0.05)
  OUT_JSON="$BUILD_DIR/bench_report_smoke.json"
else
  SCALE=default
  SEEDS=2
  BENCH_ARGS=()
  OUT_JSON="BENCH_pr9.json"
fi

echo "== microbench (json) =="
"$MICROBENCH" --benchmark_filter='BM_Gemm|BM_GemmRef|BM_Conv2dForward|BM_ThreadPoolDispatch' \
  --benchmark_format=json "${BENCH_ARGS[@]}" >"$WORK_DIR/micro.json"

echo "== per-backend BM_Gemm (runtime dispatch matrix) =="
# Force each compiled-in variant in turn; a variant this CPU cannot run
# makes the process exit nonzero (loud resolve error) and is skipped.
BACKEND_RESULTS=()
for b in auto scalar avx2 avx512; do
  if SAFELIGHT_BACKEND="$b" "$MICROBENCH" --benchmark_filter='^BM_Gemm/' \
      --benchmark_format=json "${BENCH_ARGS[@]}" \
      >"$WORK_DIR/gemm_$b.json" 2>"$WORK_DIR/gemm_$b.err"; then
    BACKEND_RESULTS+=("$b=$WORK_DIR/gemm_$b.json")
  else
    echo "backend $b unavailable on this host; skipped"
  fi
done

echo "== fig7 sweep ($SCALE scale, $SEEDS seeds) =="
export SAFELIGHT_SCALE="$SCALE"
export SAFELIGHT_SEEDS="$SEEDS"
export SAFELIGHT_ZOO="$WORK_DIR/zoo"
export SAFELIGHT_OUT="$WORK_DIR/out"

# Train once so the timed runs measure the sweep, not model training.
"$SAFELIGHT" run susceptibility >"$WORK_DIR/fig7_train.log"

run_sweep() {  # $1 = SAFELIGHT_PREFIX_CACHE value; prints wall seconds
  rm -f "$SAFELIGHT_ZOO"/*.sweep.csv
  local start end
  start=$(python3 -c 'import time; print(time.monotonic())')
  SAFELIGHT_PREFIX_CACHE="$1" "$SAFELIGHT" run susceptibility \
    >"$WORK_DIR/fig7_run.log"
  end=$(python3 -c 'import time; print(time.monotonic())')
  python3 -c "print(f'{$end - $start:.3f}')"
}

SWEEP_CACHED="$(run_sweep 1)"
SWEEP_UNCACHED="$(run_sweep 0)"
echo "sweep wall-clock: ${SWEEP_CACHED}s (prefix cache on), ${SWEEP_UNCACHED}s (off)"

echo "== telemetry overhead (traced vs untraced CLI sweep) =="
run_cli_sweep() {  # $@ = extra CLI flags; prints wall seconds
  rm -f "$SAFELIGHT_ZOO"/*.sweep.csv
  local start end
  start=$(python3 -c 'import time; print(time.monotonic())')
  "$SAFELIGHT" run susceptibility "$@" >"$WORK_DIR/cli_run.log"
  end=$(python3 -c 'import time; print(time.monotonic())')
  python3 -c "print(f'{$end - $start:.3f}')"
}

# Same warm zoo, fresh scenario stores each run; interleaved best-of-N so
# one scheduler hiccup cannot fake (or mask) the <2% overhead contract —
# the per-run spread on a small host exceeds the overhead being measured,
# and the minimum is the estimator least sensitive to that noise.
TELEMETRY_FLAGS=(--trace "$WORK_DIR/trace.json" --metrics "$WORK_DIR/metrics.json")
REPS=3
[[ "$SMOKE" == "1" ]] && REPS=2
UNTRACED_RUNS=()
TRACED_RUNS=()
for (( i = 0; i < REPS; i++ )); do
  UNTRACED_RUNS+=("$(run_cli_sweep)")
  if [[ "$i" == "0" ]]; then
    cp "$SAFELIGHT_OUT/fig7_susceptibility.csv" "$WORK_DIR/untraced.csv"
  fi
  TRACED_RUNS+=("$(run_cli_sweep "${TELEMETRY_FLAGS[@]}")")
  if [[ "$i" == "0" ]]; then
    cp "$SAFELIGHT_OUT/fig7_susceptibility.csv" "$WORK_DIR/traced.csv"
  fi
done
CSV_IDENTICAL=false
cmp -s "$WORK_DIR/untraced.csv" "$WORK_DIR/traced.csv" && CSV_IDENTICAL=true
echo "untraced: ${UNTRACED_RUNS[*]}s  traced: ${TRACED_RUNS[*]}s  csv_identical=$CSV_IDENTICAL"

python3 - "$WORK_DIR/micro.json" "$OUT_JSON" "$SCALE" "$SEEDS" \
    "$SWEEP_CACHED" "$SWEEP_UNCACHED" "${UNTRACED_RUNS[*]}" \
    "${TRACED_RUNS[*]}" "$CSV_IDENTICAL" "$WORK_DIR/trace.json" \
    "$WORK_DIR/metrics.json" "${BACKEND_RESULTS[*]}" <<'PY'
import json, platform, subprocess, sys

micro_path, out_path, scale, seeds, cached, uncached = sys.argv[1:7]
untraced_runs = [float(v) for v in sys.argv[7].split()]
traced_runs = [float(v) for v in sys.argv[8].split()]
csv_identical = sys.argv[9] == "true"
trace_path, metrics_path = sys.argv[10:12]
backend_specs = sys.argv[12].split() if len(sys.argv) > 12 else []
with open(micro_path) as f:
    micro = json.load(f)

def bench(name):
    for b in micro.get("benchmarks", []):
        if b["name"] == name:
            return b
    return None

def gflops(name):
    b = bench(name)
    return round(b["items_per_second"] / 1e9, 2) if b else None

def micros(name):
    b = bench(name)
    return round(b["real_time"] / 1e3, 1) if b else None  # ns -> us

def ratio(a, b):
    return round(a / b, 2) if a and b else None

with open(trace_path) as f:
    trace = json.load(f)
span_count = sum(1 for e in trace["traceEvents"] if e["ph"] == "X")
with open(metrics_path) as f:
    metrics = json.load(f)
gemm_hist = metrics["histograms"].get("gemm.gflops", {})

untraced = min(untraced_runs)
traced = min(traced_runs)
overhead_pct = round((traced - untraced) / untraced * 100, 2)

gemm = {n: gflops(f"BM_Gemm/{n}") for n in (64, 128, 256)}
ref = {n: gflops(f"BM_GemmRef/{n}") for n in (64, 128, 256)}

# Per-backend matrix: "name=path" specs from the forced-variant runs.
backend_gflops = {}
for spec in backend_specs:
    name, _, path = spec.partition("=")
    with open(path) as f:
        per = json.load(f)
    def per_gflops(bench_name, doc=per):
        for b in doc.get("benchmarks", []):
            if b["name"] == bench_name:
                return round(b["items_per_second"] / 1e9, 2)
        return None
    backend_gflops[name] = {
        str(n): per_gflops(f"BM_Gemm/{n}") for n in (64, 128, 256)
    }

# BM_Gemm/256 of the single-TU -march=native kernel this PR replaced,
# measured on this host at the pre-registry commit (PR 8 tree). The
# acceptance bar: the best dispatched variant stays within 2% of it.
OLD_NATIVE_GFLOPS_256 = 49.098
variants = {k: v for k, v in backend_gflops.items() if k != "auto"}
best_backend, best_256 = None, None
for name, sizes in variants.items():
    value = sizes.get("256")
    if value is not None and (best_256 is None or value > best_256):
        best_backend, best_256 = name, value
auto_256 = backend_gflops.get("auto", {}).get("256")
backend_summary = {
    "old_native_build_gflops_256": OLD_NATIVE_GFLOPS_256,
    "best_backend": best_backend,
    "best_gflops_256": best_256,
    "auto_gflops_256": auto_256,
    # Negative = faster than the old -march=native build.
    "vs_old_native_pct": round((OLD_NATIVE_GFLOPS_256 - best_256)
                               / OLD_NATIVE_GFLOPS_256 * 100, 2)
                         if best_256 else None,
    # auto vs the best forced variant: the cost of runtime dispatch.
    "dispatch_overhead_pct": round((best_256 - auto_256) / best_256 * 100, 2)
                             if best_256 and auto_256 else None,
}

report = {
    "pr": 9,
    "host": {
        "machine": platform.machine(),
        "cpus": micro.get("context", {}).get("num_cpus"),
    },
    "gemm_gflops": {str(n): gemm[n] for n in gemm},
    "gemm_ref_gflops": {str(n): ref[n] for n in ref},
    "gemm_speedup_vs_ref": {str(n): ratio(gemm[n], ref[n]) for n in gemm},
    "gemm_backend_gflops": backend_gflops,
    "backend_dispatch": backend_summary,
    "conv2d_forward_us": {
        "c8": micros("BM_Conv2dForward/8"),
        "c32": micros("BM_Conv2dForward/32"),
    },
    "thread_pool_dispatch_us": micros("BM_ThreadPoolDispatch"),
    "fig7_sweep": {
        "scale": scale,
        "seeds": int(seeds),
        "wall_seconds_prefix_cache_on": float(cached),
        "wall_seconds_prefix_cache_off": float(uncached),
        "prefix_cache_speedup": ratio(float(uncached), float(cached)),
    },
    "telemetry": {
        # Contract: <2% overhead, byte-identical CSV. min over interleaved
        # repetitions; the per-run lists record the observed spread.
        "wall_seconds_untraced": untraced,
        "wall_seconds_traced": traced,
        "untraced_runs": untraced_runs,
        "traced_runs": traced_runs,
        "overhead_pct": overhead_pct,
        "csv_identical": csv_identical,
        "trace_span_count": span_count,
        "gemm_gflops_p50": gemm_hist.get("p50"),
        "gemm_gflops_p99": gemm_hist.get("p99"),
    },
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
PY
