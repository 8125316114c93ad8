// Process-wide metrics registry: counters, gauges, and geometric-bucket
// histograms with p50/p95/p99, rendered as an end-of-run summary table and
// a deterministic-schema JSON file.
//
// Hot sites look a metric up once (the reference is stable for the process
// lifetime) and then touch one atomic per update; every update gates on the
// same relaxed-atomic-load arming discipline as trace::Span and fault::ptp,
// so a disarmed metric site costs one relaxed load.
//
//   static metrics::Counter& hits = metrics::counter("store.lookup_hits");
//   hits.add();
//
// Arming follows the common/config precedence rule:
//
//     --metrics <file>  >  SAFELIGHT_METRICS=<file>  >  disarmed
//
// Histograms use fixed geometric buckets (4 per octave over 2^-32..2^32):
// recording is order-independent atomic bucket increments, quantiles are
// computed from bucket boundaries — deterministic given the same set of
// recorded values regardless of thread interleaving, and snapshots merge by
// adding bucket counts. That mergeability is what lets dist workers ship
// their registries over the NDJSON pipe (collection mode, armed by the
// --metrics path the coordinator passes them), one delta per evaluated
// cell, for the coordinator to ingest() into one fleet-wide registry.
//
// The JSON file has a fixed schema (sorted keys, fixed per-type fields) so
// tooling — perfbench/lib/layers.py — reads it instead of re-parsing logs;
// see tests/trace_test.cpp for the schema golden.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace safelight::metrics {

namespace detail {
extern std::atomic<bool> g_armed;
inline bool armed_relaxed() {
  return g_armed.load(std::memory_order_relaxed);
}
}  // namespace detail

/// Histogram bucket geometry: 4 buckets per octave (ratio 2^0.25 ≈ 1.19,
/// so quantiles carry ~9% relative error) spanning 2^-32 .. 2^32 — covers
/// nanosecond-scale seconds, GFLOP/s, and probe counts alike. Index 0 is
/// the underflow bucket (v < 2^-32, including non-positive values), index
/// kTotalBuckets-1 the overflow bucket.
inline constexpr int kBucketsPerOctave = 4;
inline constexpr int kMinExponent = -32;
inline constexpr int kMaxExponent = 32;
inline constexpr int kTotalBuckets =
    (kMaxExponent - kMinExponent) * kBucketsPerOctave + 2;

/// Bucket index of a value (always in [0, kTotalBuckets)).
int bucket_index(double v);

/// Deterministic representative of a bucket (geometric midpoint of its
/// boundaries; 0 for underflow, 2^kMaxExponent for overflow) — what
/// quantile queries return.
double bucket_value(int index);

/// Monotone counter. add() is one relaxed atomic add when armed, one
/// relaxed load when disarmed.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (detail::armed_relaxed()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  /// Unconditional add for snapshot merging (coordinator ingest).
  void merge(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void clear() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) {
    if (detail::armed_relaxed()) v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  /// Merge policy for fleet snapshots: keep the maximum (a gauge is a
  /// per-process instantaneous reading; max is the honest aggregate).
  void merge(double v);
  void clear() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Mergeable view of one histogram: total count/sum/min/max plus the
/// sparse non-empty buckets. quantile() answers p50/p95/p99 queries.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// bucket index -> count, non-empty buckets only.
  std::map<int, std::uint64_t> buckets;
};

/// q in [0, 1]; returns the deterministic bucket representative at that
/// rank, 0 on an empty histogram.
double quantile(const HistogramSnapshot& snapshot, double q);

/// Fixed-geometry histogram. record() is a handful of relaxed atomic
/// updates when armed, one relaxed load when disarmed.
class Histogram {
 public:
  void record(double v);
  HistogramSnapshot snapshot() const;
  void merge(const HistogramSnapshot& snapshot);
  void clear();

 private:
  std::atomic<std::uint64_t> buckets_[kTotalBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// Infinity sentinels so the CAS min/max loops need no first-record
  /// special case; snapshot() reports 0 while count is 0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Registry lookups: created on first use, the returned reference is
/// stable for the process lifetime (reset() zeroes values but never
/// destroys metrics, so call sites may cache `static` references).
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/// Point-in-time view of the whole registry, mergeable across processes.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

Snapshot snapshot();

/// Adds a (worker) snapshot into the live registry: counters and histogram
/// buckets accumulate, gauges keep the maximum.
void ingest(const Snapshot& snapshot);

/// Arms collection and installs the JSON file write_json() writes. Zeroes
/// all previously collected values. Throws std::invalid_argument on an
/// empty path.
void init(const std::string& path);

/// Arms collection with no output file (dist worker: the registry ships
/// over the pipe instead).
void arm_collection();

/// Arms from the resolved configuration (CLI > SAFELIGHT_METRICS env >
/// disarmed). Disarms when no path is set. With `collect_only` (the dist
/// worker) a set path arms arm_collection() instead: only the coordinator
/// writes the file.
void init_from_config(bool collect_only);

/// Disarms and zeroes every metric (references stay valid).
void reset();

bool armed();

/// True when an output file is installed (write_json() would write).
bool has_output();

/// Renders the registry as the deterministic-schema JSON document
/// ("safelight.metrics.v1": sorted keys; histograms carry count/sum/min/
/// max/p50/p95/p99). Exposed for tests; write_json() wraps it.
std::string to_json();

/// Writes to_json() to the init() path. Returns false (writing nothing)
/// when no output file is installed.
bool write_json();

/// Multi-line end-of-run summary table, every line "[metrics] ..."-
/// prefixed (fault::report() style). Empty string when nothing was
/// recorded.
std::string summary();

}  // namespace safelight::metrics
