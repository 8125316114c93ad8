#!/usr/bin/env bash
# Tier-1 verify + experiment smoke, the single entry point CI uses.
#
#   scripts/check.sh [build-dir]
#
# 0. env-knob lint: `getenv(` appears in src/ only in common/config.cpp
#    (the one way to read SAFELIGHT_* knobs) and in the test seams
#    dist/worker.hpp documents. reference lint: the test references in
#    tests/support (`im2col(`, `gemm_ref`, `reference_fc_forward`,
#    `VdpUnit`) appear nowhere in src/ outside comments.
#    result-store lint: a ResultStore is opened (ResultStore::open) or
#    constructed in src/ only by the cell engine (core/pipeline.cpp); the
#    dist fleet appends worker rows into the stores the engine prepared.
#    thermal-plan lint: `plan_hotspot_attack(` appears in src/ only in
#    attacks/ and defense/suite.cpp, `scenario_telemetry(` only in
#    defense/suite.*; detectors read the field the attack returned.
# 1. configure + build (warnings-as-errors, Release; ccache-launched when
#    ccache is on PATH, so cached CI runs rebuild in seconds), then the
#    link audit: link the CLI's main.cpp.o against the library's objects
#    with a link map; every object under src/ must link into `safelight`
#    except an exact allowlist, and an allowlisted object that links fails
#    too, so the list only shrinks.
# 2. run the full ctest suite
# 3. smoke the `safelight` CLI end to end at tiny scale: `list` must show
#    the five registered experiments, `run-all` must complete in one
#    process (per-experiment timing on stdout), write every CSV + JSON
#    document and the result stores (no store holding a key twice), and
#    resume instantly from cache.
# 4. fresh-zoo determinism: `safelight run susceptibility` must emit a
#    CSV byte-identical to run-all's (fresh zoo, so the equality is
#    computational, not cache reuse).
# 5. thread-invariant training: cold default-scale resnet18 and vgg16v
#    train (their layers fanned out over the pool) into fresh zoos at
#    --threads 1 and --threads 4; the .slw files and the CSV must be
#    byte-identical.
# 6. distributed smoke: `run --workers 2` (clean, then with --chaos plug
#    pulls inside the workers) must emit bytes identical to a
#    single-process run from a fresh zoo — the coordinator/worker stack
#    proves itself end to end on every CI run; detection, campaign and an
#    unpinned robust_compare (two evaluate hand-offs: the selection's
#    mitigation sweeps, then the comparison) run on the fleet too and must
#    match their in-process CSVs; the canonical stores the coordinator
#    wrote (the chaos run's included) hold no key twice, and no per-worker
#    dist/w* store directory exists.
# 7. telemetry smoke: the same 2-worker run armed with --trace/--metrics
#    must stay byte-identical, produce a parseable merged Chrome trace
#    with coordinator + worker tracks, and a schema-valid metrics JSON
#    counting exactly one dispatch per planned task; both land in the CI
#    artifact bundle.
# 8. serve smoke: `safelight list --json` schema check, then a daemon on
#    an ephemeral port driven with curl — submit, NDJSON event stream,
#    GET /result byte-identical to the run-all JSON document with no store
#    row appended (run-all warmed the zoo's stores the daemon shares, and
#    /metrics reports "store.appends": 0), 400
#    on an unknown spec field, cooperative DELETE, SIGTERM -> exit 130, no
#    key twice in a store and no <zoo>/serve directory.
# 9. perfbench smoke: the benchmark harness's self-tests, then its
#    serve-storm workload at smoke size, untraced and traced; each run must
#    end in a result line with "correct": true and "failed": 0.
# Ends with a per-phase wall-time summary. CI uploads $SMOKE_DIR/out as
# the experiment artifact bundle (see .github/workflows/ci.yml).
#
# SAFELIGHT_SANITIZE=ON builds with ASan+UBSan and runs the unit,
# integration, fault, dist and serve ctest shards only: the sweep-smoke shard and
# the CLI/perfbench smokes re-cover the same code paths at ~10x sanitizer
# cost, and the fault/dist harnesses' child processes inherit the
# instrumentation.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SANITIZE="${SAFELIGHT_SANITIZE:-OFF}"

TIMING_NAMES=()
TIMING_SECS=()
PHASE_START=0
phase_start() {
  echo "== $1 =="
  TIMING_NAMES+=("$1")
  PHASE_START=$(date +%s)
}
phase_end() {
  TIMING_SECS+=("$(( $(date +%s) - PHASE_START ))")
}
# Fails when a result store in directory $1 holds one key on two data rows:
# every cell sweep appends each key at most once.
check_store_keys_unique() {
  local store dups
  for store in "$1"/*.csv; do
    dups="$(tail -n +2 "$store" | sed 's/,[^,]*$//' | sort | uniq -d)"
    if [ -n "$dups" ]; then
      echo "error: $store holds a key on two rows:" >&2
      echo "$dups" >&2
      exit 1
    fi
  done
}

CMAKE_LAUNCHER_ARGS=()
if command -v ccache >/dev/null; then
  CMAKE_LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

phase_start "env-knob lint"
STRAY_GETENV="$(grep -rn 'getenv(' src \
  | grep -v '^src/common/config\.cpp:' \
  | grep -vE '^src/dist/worker\.cpp:[0-9]+:.*getenv\("SAFELIGHT_DIST_(POISON|HANG|HANG_ONCE)"\)' \
  || true)"
if [[ -n "$STRAY_GETENV" ]]; then
  echo "error: getenv( outside common/config.cpp; read the knob through config::" >&2
  echo "$STRAY_GETENV" >&2
  exit 1
fi
phase_end

# The test references (tests/support) hold the production paths to a plain
# implementation; production code must never call them: Conv2d packs
# through pack_conv, not im2col, and the experiments corrupt weights
# through the mapping, not the device-level VDP model.
phase_start "reference lint"
REFERENCE_NAMES='im2col\(|gemm_(at_|bt_)?ref|reference_fc_forward|VdpUnit'
STRAY_REFERENCE="$(grep -rnE --include='*.[ch]pp' --include='*.inl' \
    "$REFERENCE_NAMES" src \
  | sed -E 's#//.*$##' | grep -E "$REFERENCE_NAMES" || true)"
if [[ -n "$STRAY_REFERENCE" ]]; then
  echo "error: test reference named in src/; it lives in tests/support" >&2
  echo "$STRAY_REFERENCE" >&2
  exit 1
fi
phase_end

# One result cache: only the cell engine (core/pipeline.cpp) opens
# (ResultStore::open) or constructs a ResultStore; every other layer
# computes and hands values to it, the dist fleet included, which appends
# its workers' rows into the stores the engine's prepare stage opened.
phase_start "result-store lint"
STRAY_STORE="$(grep -rnE \
    'make_(unique|shared)<(core::)?ResultStore>|ResultStore::open[[:space:]]*\(|(^|[^:[:alnum:]_])ResultStore[[:space:]]*[({]|\bResultStore[[:space:]]+[[:alpha:]_][[:alnum:]_]*[[:space:]]*[({=]' src \
  | grep -vE '^src/core/(pipeline\.cpp|result_store\.(hpp|cpp)):' \
  || true)"
if [[ -n "$STRAY_STORE" ]]; then
  echo "error: ResultStore opened outside core/pipeline.cpp;" \
       "persist results through the cell engine" >&2
  echo "$STRAY_STORE" >&2
  exit 1
fi
phase_end

# One thermal plan per attacked deployment: the attack returns the field it
# solved (attack::CorruptionStats::thermal), and no other layer re-plans a
# hotspot to recover it. scenario_telemetry stays only for the perfbench
# probe.
phase_start "thermal-plan lint"
STRAY_PLAN="$(grep -rnE 'scenario_telemetry\(|plan_hotspot_attack\(' src \
  | grep -vE '^src/defense/suite\.(hpp|cpp):[0-9]+:.*scenario_telemetry\(' \
  | grep -vE '^src/(attacks/[^:]*|defense/suite\.cpp):[0-9]+:.*plan_hotspot_attack\(' \
  || true)"
if [[ -n "$STRAY_PLAN" ]]; then
  echo "error: hotspot re-planned outside attacks/ and defense/suite.*;" \
       "read attack::CorruptionStats::thermal instead" >&2
  echo "$STRAY_PLAN" >&2
  exit 1
fi
phase_end

phase_start "configure"
cmake -B "$BUILD_DIR" -S . "${CMAKE_LAUNCHER_ARGS[@]}" \
      -DSAFELIGHT_SANITIZE="$SANITIZE" >/dev/null
phase_end

phase_start "build"
cmake --build "$BUILD_DIR" -j "$(nproc)"
phase_end

# Every library object must be code the `safelight` binary (CLI, daemon,
# dist worker) runs. The archive names members by file name only (two
# metrics.cpp.o, two slot.cpp.o), so the audit links a thin archive of the
# same objects, one per src/**/*.cpp as src/CMakeLists.txt globs them, and
# reads each member's source path from the link map. Each allowlisted
# object names its one non-test user.
phase_start "link audit"
UNLINKED_ALLOWLIST=(
  accel/energy        # bench/energy_table
  attacks/adc_attack  # bench/ablation_attacks, until it runs through the registry
  nn/metrics          # examples/quickstart
  nn/model_spec       # bench/table1_models
  thermal/heatmap     # bench/fig6_heatmap
)
AUDIT_DIR="$(cd "$BUILD_DIR" && pwd)/link_audit"
rm -rf "$AUDIT_DIR" && mkdir -p "$AUDIT_DIR"
OBJ_DIR="$(cd "$BUILD_DIR" && pwd)/src/CMakeFiles/safelight.dir"
AUDIT_OBJECTS=()
while IFS= read -r source; do
  AUDIT_OBJECTS+=("$OBJ_DIR/${source#src/}.o")
done < <(find src -name '*.cpp' ! -path src/cli/main.cpp | sort)
ar rcT "$AUDIT_DIR/audit.a" "${AUDIT_OBJECTS[@]}"
AUDIT_CXX="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$BUILD_DIR/CMakeCache.txt")"
AUDIT_FLAGS=(-pthread)
if [[ "$SANITIZE" == "ON" ]]; then
  AUDIT_FLAGS+=(-fsanitize=address,undefined)
fi
"$AUDIT_CXX" "${AUDIT_FLAGS[@]}" -o "$AUDIT_DIR/safelight" \
  "$OBJ_DIR/../safelight_cli.dir/cli/main.cpp.o" "$AUDIT_DIR/audit.a" \
  -Wl,-Map,"$AUDIT_DIR/safelight.map"
# Object path -> source path without extension (nn/metrics).
audit_key() { sed "s#^$OBJ_DIR/##; s#\.cpp\.o\$##" | sort -u; }
grep -o "$OBJ_DIR/[^ ()]*\.cpp\.o" "$AUDIT_DIR/safelight.map" \
  | audit_key >"$AUDIT_DIR/linked"
UNLINKED="$(printf '%s\n' "${AUDIT_OBJECTS[@]}" | audit_key \
  | comm -23 - "$AUDIT_DIR/linked")"
echo "objects safelight never links:"
sed 's/^/  /' <<<"$UNLINKED"
EXPECTED="$(printf '%s\n' "${UNLINKED_ALLOWLIST[@]}" | sort -u)"
if [[ "$UNLINKED" != "$EXPECTED" ]]; then
  echo "error: unlinked library objects differ from the allowlist" \
       "(+ never linked, delete or move it; - now links, drop it from" \
       "the allowlist):" >&2
  diff <(echo "$EXPECTED") <(echo "$UNLINKED") | grep '^[<>]' \
    | sed 's/^</-/; s/^>/+/' >&2 || true
  exit 1
fi
phase_end

# The suite runs as labelled shards (labels assigned per test binary in
# tests/CMakeLists.txt) so the timing summary shows where test time goes
# and cheap shards fail fast before the sweep-driving ones start. The
# fault shard pulls the plug on child `safelight` processes and proves the
# crash-resume contract (docs/testing.md).
SHARDS=(unit integration sweep-smoke fault dist serve)
if [[ "$SANITIZE" == "ON" ]]; then
  SHARDS=(unit integration fault dist serve)
fi
for shard in "${SHARDS[@]}"; do
  phase_start "ctest ($shard)"
  ctest --test-dir "$BUILD_DIR" -L "^${shard}$" --output-on-failure -j "$(nproc)"
  phase_end
done
# Every test must belong to exactly one shard; an unlabelled test would
# silently never run above.
UNLABELLED=$(ctest --test-dir "$BUILD_DIR" -LE '^(unit|integration|sweep-smoke|fault|dist|serve)$' -N | grep -E '^Total Tests:' | awk '{print $3}')
if [[ "$UNLABELLED" != "0" ]]; then
  echo "error: $UNLABELLED ctest case(s) carry no shard label" >&2
  exit 1
fi

if [[ "$SANITIZE" == "ON" ]]; then
  echo "== sanitize mode: skipping sweep-smoke shard and CLI/perfbench smokes =="
  echo "== all checks passed =="
  echo
  echo "== timing summary =="
  for i in "${!TIMING_NAMES[@]}"; do
    printf '  %-32s %4ss\n' "${TIMING_NAMES[$i]}" "${TIMING_SECS[$i]}"
  done
  exit 0
fi

phase_start "safelight list"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
SAFELIGHT="$(cd "$BUILD_DIR" && pwd)/src/safelight"
"$SAFELIGHT" list | tee "$SMOKE_DIR/list.log"
for experiment in susceptibility mitigation robust_compare detection campaign; do
  grep -q "^${experiment} " "$SMOKE_DIR/list.log"
done
# Unknown names must fail loudly (exit 2), listing what is registered.
if "$SAFELIGHT" run not_an_experiment 2>"$SMOKE_DIR/unknown.log"; then
  echo "error: unknown experiment name did not fail" >&2
  exit 1
fi
grep -q "registered:" "$SMOKE_DIR/unknown.log"
phase_end

phase_start "safelight run-all (tiny scale)"
export SAFELIGHT_SCALE=tiny
export SAFELIGHT_SEEDS=2
export SAFELIGHT_ZOO="$SMOKE_DIR/zoo"
export SAFELIGHT_OUT="$SMOKE_DIR/out"
# One process, five experiments, shared zoo; stdout carries the
# per-experiment timing summary CI surfaces in the log.
"$SAFELIGHT" run-all --json >"$SMOKE_DIR/run_all.log"
sed -n '/run summary/,$p' "$SMOKE_DIR/run_all.log"
for csv in fig7_susceptibility fig8_mitigation fig9_robust fig_detection \
           fig_detection_roc fig_campaign fig_campaign_phases; do
  test -s "$SMOKE_DIR/out/${csv}.csv"
done
for experiment in susceptibility mitigation robust_compare detection campaign; do
  for model in cnn1 resnet18 vgg16v; do
    test -s "$SMOKE_DIR/out/${experiment}_${model}.json"
  done
done
ls "$SMOKE_DIR/zoo/"*.sweep.csv >/dev/null     # pipeline stores written
ls "$SMOKE_DIR/zoo/"*.detect.csv >/dev/null    # detection stores written
ls "$SMOKE_DIR/zoo/"*.campaign.csv >/dev/null  # campaign stores written
check_store_keys_unique "$SMOKE_DIR/zoo"

# Second run must be served from the result stores (no re-evaluation):
# a full cached re-run of all five experiments finishes in a few seconds.
start=$(date +%s)
SAFELIGHT_OUT="$SMOKE_DIR/out_cached" "$SAFELIGHT" run-all >"$SMOKE_DIR/run_all_cached.log"
echo "cached run-all re-run: $(( $(date +%s) - start ))s"
cmp "$SMOKE_DIR/out/fig7_susceptibility.csv" \
    "$SMOKE_DIR/out_cached/fig7_susceptibility.csv"
phase_end

phase_start "fresh-zoo byte-identity (fig7)"
# A single-experiment run must produce the same bytes as `safelight run-all`
# — from a fresh zoo, so the equality is computational, not cache reuse.
SAFELIGHT_ZOO="$SMOKE_DIR/zoo_fresh" SAFELIGHT_OUT="$SMOKE_DIR/out_fresh" \
  "$SAFELIGHT" run susceptibility >"$SMOKE_DIR/fig7_fresh.log"
cmp "$SMOKE_DIR/out/fig7_susceptibility.csv" \
    "$SMOKE_DIR/out_fresh/fig7_susceptibility.csv"
echo "fresh-zoo run susceptibility CSV byte-identical to run-all"
phase_end

phase_start "thread-invariant training"
# Training fans its GEMMs and element-wise layers out over the pool; the
# trained bytes must not depend on how many threads there are. resnet18
# covers BatchNorm and the residual blocks; at default scale vgg16v's ReLU
# and MaxPool2d tensors are above the fan-out grain.
for threads in 1 4; do
  SAFELIGHT_ZOO="$SMOKE_DIR/zoo_threads$threads" \
    SAFELIGHT_OUT="$SMOKE_DIR/out_threads$threads" \
    "$SAFELIGHT" run susceptibility --model resnet18 --model vgg16v \
    --scale default --seeds 1 --threads "$threads" \
    >"$SMOKE_DIR/threads$threads.log"
done
ls "$SMOKE_DIR/zoo_threads1/"*.slw >/dev/null
for model in "$SMOKE_DIR/zoo_threads1/"*.slw; do
  cmp "$model" "$SMOKE_DIR/zoo_threads4/$(basename "$model")"
done
cmp "$SMOKE_DIR/out_threads1/fig7_susceptibility.csv" \
    "$SMOKE_DIR/out_threads4/fig7_susceptibility.csv"
echo "zoo entries and CSV byte-identical at --threads 1 and --threads 4"
phase_end

phase_start "distributed smoke (2 workers, clean + chaos, all sweep kinds)"
# The coordinator shards the sweep across 2 worker subprocesses from a
# fresh zoo; the result must be byte-identical to a single-process
# run (also fresh, so the equality is computational). cnn1-only keeps the
# phase cheap; the dist ctest shard covers the full semantics.
SAFELIGHT_ZOO="$SMOKE_DIR/zoo_dist_ref" SAFELIGHT_OUT="$SMOKE_DIR/out_dist_ref" \
  "$SAFELIGHT" run susceptibility --model cnn1 >"$SMOKE_DIR/dist_ref.log"
SAFELIGHT_ZOO="$SMOKE_DIR/zoo_dist" SAFELIGHT_OUT="$SMOKE_DIR/out_dist" \
  "$SAFELIGHT" run susceptibility --model cnn1 --workers 2 \
  >"$SMOKE_DIR/dist.log"
grep '\[dist\] summary:' "$SMOKE_DIR/dist.log"
cmp "$SMOKE_DIR/out_dist_ref/fig7_susceptibility.csv" \
    "$SMOKE_DIR/out_dist/fig7_susceptibility.csv"
# Forced-scalar leg: --backend scalar pins the whole fleet (coordinator
# and workers) to the portable kernel variant; the numerics contract says
# backend choice can never change a CSV byte, so the result must match
# the auto-dispatched reference exactly.
SAFELIGHT_ZOO="$SMOKE_DIR/zoo_dist_scalar" SAFELIGHT_OUT="$SMOKE_DIR/out_dist_scalar" \
  "$SAFELIGHT" run susceptibility --model cnn1 --workers 2 --backend scalar \
  >"$SMOKE_DIR/dist_scalar.log"
cmp "$SMOKE_DIR/out_dist_ref/fig7_susceptibility.csv" \
    "$SMOKE_DIR/out_dist_scalar/fig7_susceptibility.csv"
# Chaos leg: plug pulls armed inside the workers (crash on ~20% of cells,
# just before their rows are sent); retries must still converge on the
# same bytes, and the coordinator must append every key once.
SAFELIGHT_ZOO="$SMOKE_DIR/zoo_dist_chaos" SAFELIGHT_OUT="$SMOKE_DIR/out_dist_chaos" \
  "$SAFELIGHT" run susceptibility --model cnn1 --workers 2 --chaos 0.2 \
  --max-task-retries 1000 >"$SMOKE_DIR/dist_chaos.log"
grep '\[dist\] summary:' "$SMOKE_DIR/dist_chaos.log"
cmp "$SMOKE_DIR/out_dist_ref/fig7_susceptibility.csv" \
    "$SMOKE_DIR/out_dist_chaos/fig7_susceptibility.csv"
check_store_keys_unique "$SMOKE_DIR/zoo_dist_chaos"
# The detector sweeps run on the fleet through their declared cells too;
# each distributed run must dispatch tasks and match its in-process CSVs.
# robust_compare runs unpinned: its resolve runs the mitigation selection
# through the registry, whose sweeps the fleet evaluates in one hand-off,
# and the comparison sweeps follow in a second (rounds=2).
for experiment in detection campaign robust_compare; do
  SAFELIGHT_ZOO="$SMOKE_DIR/zoo_dist_ref" \
    SAFELIGHT_OUT="$SMOKE_DIR/out_dist_ref" "$SAFELIGHT" run "$experiment" \
    --model cnn1 >"$SMOKE_DIR/dist_ref_$experiment.log"
  SAFELIGHT_ZOO="$SMOKE_DIR/zoo_dist" SAFELIGHT_OUT="$SMOKE_DIR/out_dist" \
    "$SAFELIGHT" run "$experiment" --model cnn1 --workers 2 \
    >"$SMOKE_DIR/dist_$experiment.log"
  grep -E '\[dist\] summary: workers=2 tasks=[1-9]' \
    "$SMOKE_DIR/dist_$experiment.log"
done
grep -E '\[dist\] summary: .* rounds=2 ' "$SMOKE_DIR/dist_robust_compare.log"
check_store_keys_unique "$SMOKE_DIR/zoo_dist"
# Workers write no store: the coordinator is the canonical stores' only
# writer, so no per-worker store directory may appear.
STRAY_WORKER_STORES="$(find "$SMOKE_DIR" -path '*/dist/w*' -type d)"
if [[ -n "$STRAY_WORKER_STORES" ]]; then
  echo "error: per-worker store directories exist:" >&2
  echo "$STRAY_WORKER_STORES" >&2
  exit 1
fi
for csv in fig_detection fig_detection_roc fig_campaign_phases fig_campaign \
           fig9_robust; do
  cmp "$SMOKE_DIR/out_dist_ref/$csv.csv" "$SMOKE_DIR/out_dist/$csv.csv"
done
echo "distributed CSVs byte-identical to single-process reference"
phase_end

phase_start "telemetry smoke (2 workers, --trace/--metrics)"
# Armed observability must never perturb experiment output: the traced
# 2-worker run's CSV matches the single-process reference byte for byte,
# and the merged fleet trace + metrics JSON parse with the expected shape.
SAFELIGHT_ZOO="$SMOKE_DIR/zoo_dist_traced" SAFELIGHT_OUT="$SMOKE_DIR/out_dist_traced" \
  "$SAFELIGHT" run susceptibility --model cnn1 --workers 2 \
  --trace "$SMOKE_DIR/trace.json" --metrics "$SMOKE_DIR/metrics.json" \
  >"$SMOKE_DIR/dist_traced.log"
cmp "$SMOKE_DIR/out_dist_ref/fig7_susceptibility.csv" \
    "$SMOKE_DIR/out_dist_traced/fig7_susceptibility.csv"
echo "traced distributed CSV byte-identical to single-process reference"
if command -v python3 >/dev/null; then
  python3 - "$SMOKE_DIR/trace.json" "$SMOKE_DIR/metrics.json" \
    "$SMOKE_DIR/dist_traced.log" <<'EOF'
import json, re, sys
trace = json.load(open(sys.argv[1]))
spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
tracks = {e["pid"]: e["args"]["name"]
          for e in trace["traceEvents"] if e["ph"] == "M"}
names = {e["name"] for e in spans}
assert tracks.get(1) == "coordinator", tracks
assert any(n.startswith("worker w") for p, n in tracks.items() if p >= 2), tracks
assert {"dist.dispatch", "dist.append", "worker.task"} <= names, sorted(names)
metrics = json.load(open(sys.argv[2]))
assert metrics["schema"] == "safelight.metrics.v1", metrics.get("schema")
# One owner per task on a healthy fleet: exactly one dispatch per planned
# task (tasks= of the [dist] summary line).
tasks = sum(int(m) for m in re.findall(r"^\[dist\] summary:.* tasks=(\d+)",
                                       open(sys.argv[3]).read(), re.M))
assert metrics["counters"]["dist.dispatches"] == tasks, (
    tasks, metrics["counters"])
print(f"merged trace: {len(spans)} spans on {len(tracks)} tracks; "
      f"{len(metrics['counters'])} fleet counters")
EOF
else
  echo "python3 missing: trace/metrics JSON shape check skipped"
fi
phase_end

phase_start "serve smoke (daemon, curl, byte-identity)"
# The machine-readable listing `safelight serve` clients script against.
"$SAFELIGHT" list --json >"$SMOKE_DIR/list.json"
if command -v python3 >/dev/null; then
  python3 - "$SMOKE_DIR/list.json" <<'EOF'
import json, sys
listing = json.load(open(sys.argv[1]))
names = [e["name"] for e in listing["experiments"]]
assert names == ["susceptibility", "mitigation", "robust_compare",
                 "detection", "campaign"], names
assert "experiment" in listing["spec_fields"], listing["spec_fields"]
assert "cache_dir" not in listing["spec_fields"], listing["spec_fields"]
print(f"list --json: {len(names)} experiments, "
      f"{len(listing['spec_fields'])} spec fields")
EOF
fi
if command -v curl >/dev/null; then
  # Daemon on an ephemeral port against the warm smoke zoo; the serving
  # contract under test: HTTP result bytes == the run-all JSON document
  # already produced above for the same spec under the same environment.
  "$SAFELIGHT" serve --port 0 --slots 2 >"$SMOKE_DIR/serve.log" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 100); do
    grep -q "listening on" "$SMOKE_DIR/serve.log" 2>/dev/null && break
    sleep 0.1
  done
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$SMOKE_DIR/serve.log")"
  BASE="http://127.0.0.1:$PORT"
  curl -fsS "$BASE/healthz" | grep -q '"status": "ok"'

  # Bad specs answer 400 with the actionable unknown-field message.
  CODE=$(curl -s -o "$SMOKE_DIR/serve_bad.json" -w '%{http_code}' \
         -X POST "$BASE/v1/jobs" -d '{"experiment":"susceptibility","seedz":3}')
  [[ "$CODE" == "400" ]]
  grep -q "unknown field 'seedz'" "$SMOKE_DIR/serve_bad.json"

  # Submit, follow the NDJSON stream to the terminal event, fetch result.
  JOB=$(curl -fsS -X POST "$BASE/v1/jobs" \
        -d '{"experiment":"susceptibility","model":"cnn1"}' \
        | tr -d '\n' | sed -n 's/.*"job": "\([^"]*\)".*/\1/p')
  [[ -n "$JOB" ]]
  curl -fsS "$BASE/v1/jobs/$JOB/events" >"$SMOKE_DIR/serve_events.ndjson"
  head -1 "$SMOKE_DIR/serve_events.ndjson" | grep -q '"type":"queued"'
  tail -1 "$SMOKE_DIR/serve_events.ndjson" | grep -q '"type":"result"'
  curl -fsS "$BASE/v1/jobs/$JOB/result" >"$SMOKE_DIR/serve_result.json"
  cmp "$SMOKE_DIR/serve_result.json" "$SMOKE_DIR/out/susceptibility_cnn1.json"
  echo "serve result byte-identical to run --json output"
  # One cache for every tenant: the daemon sweeps the zoo's stores, which
  # run-all already warmed, so the job read every key (hits) and appended
  # no row (store.appends is reported, and is 0).
  METRICS_NOW=$(curl -fsS "$BASE/metrics" | tr -d '\n')
  grep -q '"store\.lookup_hits": [1-9]' <<<"$METRICS_NOW"
  if ! grep -qE '"store\.appends": 0([^0-9.]|$)' <<<"$METRICS_NOW"; then
    echo "error: serve job on a warmed zoo did not report" \
         '"store.appends": 0' >&2
    echo "$METRICS_NOW" >&2
    exit 1
  fi

  # Second tenant: submit + cooperative DELETE must terminalize the job.
  JOB2=$(curl -fsS -X POST "$BASE/v1/jobs" -d '{"experiment":"campaign"}' \
         | tr -d '\n' | sed -n 's/.*"job": "\([^"]*\)".*/\1/p')
  curl -fsS -X DELETE "$BASE/v1/jobs/$JOB2" >/dev/null
  for _ in $(seq 100); do
    STATE=$(curl -fsS "$BASE/v1/jobs/$JOB2" | tr -d '\n' \
            | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
    [[ "$STATE" == "cancelled" || "$STATE" == "done" ]] && break
    sleep 0.1
  done
  [[ "$STATE" == "cancelled" || "$STATE" == "done" ]]
  curl -fsS "$BASE/metrics" | grep -q '"serve.jobs.submitted": 2'

  # Graceful drain: SIGTERM -> cancel running slots, flush stores, exit 130.
  kill -TERM "$SERVE_PID"
  SERVE_RC=0
  wait "$SERVE_PID" || SERVE_RC=$?
  [[ "$SERVE_RC" == "130" ]]
  grep -q '\[serve\] stopped' "$SMOKE_DIR/serve.log"
  echo "daemon drained on SIGTERM (exit $SERVE_RC)"
  # Slots write the zoo's stores, never a store directory of their own.
  check_store_keys_unique "$SMOKE_DIR/zoo"
  if [[ -e "$SMOKE_DIR/zoo/serve" ]]; then
    echo "error: the daemon created $SMOKE_DIR/zoo/serve" >&2
    exit 1
  fi
else
  echo "curl missing: serve HTTP smoke skipped"
fi
phase_end

# Preserve the artifact bundle for CI upload (the EXIT trap removes
# $SMOKE_DIR; CI points SAFELIGHT_ARTIFACT_DIR somewhere persistent).
if [[ -n "${SAFELIGHT_ARTIFACT_DIR:-}" ]]; then
  mkdir -p "$SAFELIGHT_ARTIFACT_DIR"
  cp "$SMOKE_DIR/out/"*.csv "$SMOKE_DIR/out/"*.json "$SAFELIGHT_ARTIFACT_DIR/"
  # Canonical stores the coordinator wrote in the chaos'd distributed run:
  # the artifact a reviewer diffs against the clean run's stores to audit
  # that crashes and retries left every row intact and appended once.
  mkdir -p "$SAFELIGHT_ARTIFACT_DIR/dist_store"
  cp "$SMOKE_DIR/zoo_dist_chaos/"*.sweep.csv "$SAFELIGHT_ARTIFACT_DIR/dist_store/"
  cp "$SMOKE_DIR/dist.log" "$SMOKE_DIR/dist_chaos.log" "$SAFELIGHT_ARTIFACT_DIR/dist_store/"
  # Merged fleet trace + metrics from the telemetry smoke: load trace.json
  # in https://ui.perfetto.dev to inspect the CI run.
  cp "$SMOKE_DIR/trace.json" "$SMOKE_DIR/metrics.json" "$SAFELIGHT_ARTIFACT_DIR/"
  # Serving smoke evidence: daemon log (startup, drain), the NDJSON event
  # stream and the byte-identity result document.
  mkdir -p "$SAFELIGHT_ARTIFACT_DIR/serve"
  cp "$SMOKE_DIR/serve.log" "$SMOKE_DIR/serve_events.ndjson" \
     "$SMOKE_DIR/serve_result.json" "$SAFELIGHT_ARTIFACT_DIR/serve/" 2>/dev/null || true
fi

# perfbench smoke: the harness's own tests, then the serve-storm workload
# (concurrent clients against the daemon; results byte-identical to the
# CLI's; SIGTERM drain exits 130) for 2 s, untraced and traced. perfbench
# builds its own Release tree in .bench_build/; CMake reads the ccache
# launcher from the environment when it first configures that tree.
if command -v python3 >/dev/null; then
  phase_start "perfbench smoke (serve-storm)"
  python3 -m unittest discover -s perfbench/tests
  if command -v ccache >/dev/null; then
    export CMAKE_CXX_COMPILER_LAUNCHER=ccache
  fi
  PERFBENCH_LOG="$BUILD_DIR/perfbench_smoke.log"
  : >"$PERFBENCH_LOG"
  for trace in 0 1; do
    python3 perfbench/run.py --workload serve-storm --seed 1 --seconds 2 \
      --trace "$trace" | tee -a "$PERFBENCH_LOG"
    tail -1 "$PERFBENCH_LOG" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
assert result["correct"] and result["failed"] == 0, result'
  done
  phase_end
else
  echo "== perfbench smoke skipped (python3 missing) =="
fi

echo "== all checks passed =="
echo
echo "== timing summary =="
for i in "${!TIMING_NAMES[@]}"; do
  printf '  %-32s %4ss\n' "${TIMING_NAMES[$i]}" "${TIMING_SECS[$i]}"
done
if command -v ccache >/dev/null; then
  echo "  ccache: $(ccache -s | grep -E 'Hits|hit rate' | head -2 | tr -s ' ' | tr '\n' ' ' || true)"
fi
