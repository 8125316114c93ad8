#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"

namespace safelight::metrics {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

constexpr int kInnerBuckets = (kMaxExponent - kMinExponent) * kBucketsPerOctave;

struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::string path;
};

Registry& registry() {
  static Registry r;
  return r;
}

void zero_all() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) c->clear();
  for (auto& [name, g] : r.gauges) g->clear();
  for (auto& [name, h] : r.histograms) h->clear();
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

int bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // non-positive and NaN -> underflow
  const double e = (std::log2(v) - kMinExponent) * kBucketsPerOctave;
  if (e < 0.0) return 0;
  const int idx = static_cast<int>(e);
  if (idx >= kInnerBuckets) return kTotalBuckets - 1;
  return idx + 1;
}

double bucket_value(int index) {
  if (index <= 0) return 0.0;
  if (index >= kTotalBuckets - 1) return std::exp2(kMaxExponent);
  return std::exp2(kMinExponent + (index - 1 + 0.5) /
                                      static_cast<double>(kBucketsPerOctave));
}

double quantile(const HistogramSnapshot& snapshot, double q) {
  if (snapshot.count == 0) return 0.0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(snapshot.count)));
  rank = std::min(std::max<std::uint64_t>(rank, 1), snapshot.count);
  std::uint64_t cum = 0;
  for (const auto& [index, n] : snapshot.buckets) {
    cum += n;
    if (cum >= rank) {
      // Clamping to the observed range makes quantiles exact for constant
      // distributions and never reports a value outside what was recorded.
      return std::min(std::max(bucket_value(index), snapshot.min),
                      snapshot.max);
    }
  }
  return snapshot.max;
}

void Gauge::merge(double v) { atomic_max(v_, v); }

void Histogram::record(double v) {
  if (!detail::armed_relaxed()) return;
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  if (s.count == 0) return s;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  for (int i = 0; i < kTotalBuckets; ++i) {
    const std::uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) s.buckets[i] = n;
  }
  return s;
}

void Histogram::merge(const HistogramSnapshot& snapshot) {
  if (snapshot.count == 0) return;
  for (const auto& [index, n] : snapshot.buckets) {
    if (index >= 0 && index < kTotalBuckets) {
      buckets_[index].fetch_add(n, std::memory_order_relaxed);
    }
  }
  count_.fetch_add(snapshot.count, std::memory_order_relaxed);
  sum_.fetch_add(snapshot.sum, std::memory_order_relaxed);
  atomic_min(min_, snapshot.min);
  atomic_max(max_, snapshot.max);
}

void Histogram::clear() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Snapshot snapshot() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  Snapshot s;
  for (const auto& [name, c] : r.counters) s.counters[name] = c->value();
  for (const auto& [name, g] : r.gauges) s.gauges[name] = g->value();
  for (const auto& [name, h] : r.histograms) {
    s.histograms[name] = h->snapshot();
  }
  return s;
}

void ingest(const Snapshot& snapshot) {
  for (const auto& [name, v] : snapshot.counters) counter(name).merge(v);
  for (const auto& [name, v] : snapshot.gauges) gauge(name).merge(v);
  for (const auto& [name, h] : snapshot.histograms) histogram(name).merge(h);
}

void init(const std::string& path) {
  if (path.empty()) {
    throw std::invalid_argument("metrics::init requires a non-empty path");
  }
  zero_all();
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.path = path;
  }
  detail::g_armed.store(true, std::memory_order_relaxed);
}

void arm_collection() {
  zero_all();
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.path.clear();
  }
  detail::g_armed.store(true, std::memory_order_relaxed);
}

void init_from_config() {
  const std::string path = config::metrics_path();
  if (!path.empty()) {
    init(path);
  } else if (config::metrics_pipe()) {
    arm_collection();
  } else {
    reset();
  }
}

void reset() {
  detail::g_armed.store(false, std::memory_order_relaxed);
  zero_all();
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.path.clear();
}

bool armed() { return detail::armed_relaxed(); }

bool has_output() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  return !r.path.empty();
}

std::string to_json() {
  const Snapshot s = snapshot();
  JsonWriter json;
  json.begin_object();
  json.key("schema").value("safelight.metrics.v1");
  json.key("counters").begin_object();
  for (const auto& [name, v] : s.counters) json.key(name).value(v);
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, v] : s.gauges) json.key(name).value(v, 6);
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, h] : s.histograms) {
    json.key(name).begin_object();
    json.key("count").value(h.count);
    json.key("max").value(h.max, 6);
    json.key("min").value(h.min, 6);
    json.key("p50").value(quantile(h, 0.50), 6);
    json.key("p95").value(quantile(h, 0.95), 6);
    json.key("p99").value(quantile(h, 0.99), 6);
    json.key("sum").value(h.sum, 6);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return std::move(json).str() + "\n";
}

bool write_json() {
  std::string path;
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    path = r.path;
  }
  if (path.empty()) return false;
  const std::string text = to_json();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  require(out.good(), "cannot open metrics output file '" + path + "'");
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  require(out.good(), "failed writing metrics output file '" + path + "'");
  return true;
}

std::string summary() {
  const Snapshot s = snapshot();
  std::string out;
  if (!s.counters.empty()) {
    out += "[metrics] counters:\n";
    for (const auto& [name, v] : s.counters) {
      char line[160];
      std::snprintf(line, sizeof(line), "[metrics]   %-36s %llu\n",
                    name.c_str(), static_cast<unsigned long long>(v));
      out += line;
    }
  }
  if (!s.gauges.empty()) {
    out += "[metrics] gauges:\n";
    for (const auto& [name, v] : s.gauges) {
      char line[160];
      std::snprintf(line, sizeof(line), "[metrics]   %-36s %s\n",
                    name.c_str(), fmt_g(v).c_str());
      out += line;
    }
  }
  if (!s.histograms.empty()) {
    out += "[metrics] histograms:\n";
    for (const auto& [name, h] : s.histograms) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "[metrics]   %-36s count=%llu p50=%s p95=%s p99=%s "
                    "min=%s max=%s sum=%s\n",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    fmt_g(quantile(h, 0.50)).c_str(),
                    fmt_g(quantile(h, 0.95)).c_str(),
                    fmt_g(quantile(h, 0.99)).c_str(), fmt_g(h.min).c_str(),
                    fmt_g(h.max).c_str(), fmt_g(h.sum).c_str());
      out += line;
    }
  }
  return out;
}

}  // namespace safelight::metrics
