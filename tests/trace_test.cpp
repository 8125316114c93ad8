// Tests for the observability layer: common/trace (scoped spans, thread
// buffers, Chrome trace-event flush, worker-event ingest, the sweep span of
// a detection run), common/metrics
// (histogram bucket geometry, quantiles, snapshot merging, the
// safelight.metrics.v1 JSON schema), and common/log level gating.
//
// Both trace and metrics are process-global registries, so every test
// arms what it needs and ends with reset(). Metric names registered here
// persist for the process lifetime by design (reset() zeroes but never
// destroys, so call sites can cache static references) — tests therefore
// use distinct "t.*" names and never assert registry emptiness.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/experiment.hpp"
#include "test_util.hpp"

namespace safelight {
namespace {

// ---------------------------------------------------------------- spans

TEST(TraceSpan, DisarmedSpansRecordNothing) {
  trace::reset();
  EXPECT_FALSE(trace::armed());
  {
    trace::Span span("test", "noop");
    EXPECT_FALSE(span.active());
    span.arg("k", 1.0).arg("s", std::string("v"));  // no-ops, must not crash
  }
  EXPECT_TRUE(trace::drain().empty());
  EXPECT_EQ(trace::flush(), 0u);  // no output file installed either
}

TEST(TraceSpan, NestedSpansNestWithinTheParentInterval) {
  trace::reset();
  trace::arm_buffering();
  {
    trace::Span outer("test", "outer");
    {
      trace::Span inner("test", "inner");
      inner.arg("score", 2.5).arg("detector", std::string("spc"));
    }
  }
  std::vector<trace::RawEvent> events = trace::drain();
  ASSERT_EQ(events.size(), 2u);
  // Spans record at close, so the inner span lands first.
  const trace::RawEvent& inner = events[0];
  const trace::RawEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.tid, outer.tid);
  // Proper nesting: the child interval sits inside the parent interval.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
  ASSERT_EQ(inner.num_args.size(), 1u);
  EXPECT_EQ(inner.num_args[0].first, "score");
  EXPECT_DOUBLE_EQ(inner.num_args[0].second, 2.5);
  ASSERT_EQ(inner.str_args.size(), 1u);
  EXPECT_EQ(inner.str_args[0].first, "detector");
  EXPECT_EQ(inner.str_args[0].second, "spc");
  trace::reset();
}

TEST(TraceSpan, DetectionRunRecordsOneDefenseSweepSpan) {
  TempDir dir("trace_defense_sweep");
  core::ModelZoo zoo(dir.path());
  core::RunContext context(zoo);
  core::ExperimentSpec spec =
      core::ExperimentRegistry::global().default_spec("detection");
  spec.model = nn::ModelId::kCnn1;
  spec.scale = Scale::kTiny;
  spec.clean_runs = 1;
  spec.grid = attack::scenario_grid({attack::AttackVector::kHotspot},
                                    {attack::AttackTarget::kBothBlocks},
                                    {0.10}, 1, 100);
  // Train before arming, so the buffer holds the sweep's spans only.
  zoo.get_or_train(spec.resolved_setup(), spec.resolved_variant());

  trace::reset();
  trace::arm_buffering();
  core::ExperimentRegistry::global().run(spec, context);
  const std::vector<trace::RawEvent> events = trace::drain();
  trace::reset();
  std::size_t defense_sweeps = 0;
  for (const trace::RawEvent& event : events) {
    // Detector sweeps stay out of pipeline.sweep, the denominator of the
    // scenario busy ratio.
    EXPECT_NE(event.name, "pipeline.sweep");
    if (event.name != "defense.sweep") continue;
    ++defense_sweeps;
    EXPECT_EQ(event.cat, "defense");
    ASSERT_EQ(event.str_args.size(), 1u);
    EXPECT_EQ(event.str_args[0],
              (std::pair<std::string, std::string>{"variant", "Original"}));
    ASSERT_EQ(event.num_args.size(), 1u);
    EXPECT_EQ(event.num_args[0],
              (std::pair<std::string, double>{"cells", 2.0}));
  }
  EXPECT_EQ(defense_sweeps, 1u);
}

TEST(TraceFlush, MergesThreadBuffersIntoOneChromeDocument) {
  TempDir dir("trace_flush");
  const std::string path = dir.path() + "/trace.json";
  trace::reset();
  trace::init(path);
  { trace::Span span("test", "on_main"); }
  std::thread worker([] { trace::Span span("test", "on_worker"); });
  worker.join();
  EXPECT_TRUE(trace::has_output());
  EXPECT_EQ(trace::flush(), 2u);

  const JsonValue doc = JsonValue::parse(read_file_bytes(path));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  std::set<std::uint64_t> span_tids;
  std::size_t span_count = 0;
  std::size_t meta_count = 0;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    const std::string& ph = event.at("ph").as_string();
    if (ph == "X") {
      ++span_count;
      EXPECT_EQ(event.at("pid").as_uint(), 1u);  // local events are pid 1
      EXPECT_GE(event.at("ts").as_number(), 0.0);
      span_tids.insert(event.at("tid").as_uint());
    } else {
      ++meta_count;
      EXPECT_EQ(event.at("name").as_string(), "process_name");
      EXPECT_EQ(ph, "M");
    }
  }
  EXPECT_EQ(span_count, 2u);
  EXPECT_EQ(meta_count, 1u);  // the local "safelight" track
  // The main thread and the helper thread land on distinct tracks.
  EXPECT_EQ(span_tids.size(), 2u);
  // flush() consumed the buffers: a second flush writes an empty document.
  EXPECT_EQ(trace::flush(), 0u);
  trace::reset();
}

TEST(TraceIngest, ForeignEventsLandUnderTheirPid) {
  TempDir dir("trace_ingest");
  const std::string path = dir.path() + "/trace.json";
  trace::reset();
  trace::init(path);
  trace::RawEvent foreign;
  foreign.name = "worker.task";
  foreign.cat = "dist";
  foreign.start_ns = trace::now_ns();
  foreign.dur_ns = 1000;
  foreign.num_args.emplace_back("task", 3.0);
  trace::ingest(7, {foreign});
  trace::set_track_name(7, "worker w5");
  EXPECT_EQ(trace::flush(), 1u);

  const JsonValue doc = JsonValue::parse(read_file_bytes(path));
  bool saw_span = false;
  bool saw_track = false;
  for (const JsonValue& event : doc.at("traceEvents").as_array()) {
    if (event.at("ph").as_string() == "X") {
      EXPECT_EQ(event.at("name").as_string(), "worker.task");
      EXPECT_EQ(event.at("pid").as_uint(), 7u);
      EXPECT_DOUBLE_EQ(event.at("args").at("task").as_number(), 3.0);
      saw_span = true;
    } else if (event.at("pid").as_uint() == 7u) {
      EXPECT_EQ(event.at("args").at("name").as_string(), "worker w5");
      saw_track = true;
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_track);
  trace::reset();
}

// ----------------------------------------------------- histogram math

TEST(HistogramMath, BucketIndexInvertsBucketValue) {
  // Every inner bucket's representative (its geometric midpoint) maps back
  // to the bucket it represents.
  for (int i = 1; i < metrics::kTotalBuckets - 1; ++i) {
    EXPECT_EQ(metrics::bucket_index(metrics::bucket_value(i)), i)
        << "bucket " << i << " value " << metrics::bucket_value(i);
  }
  // Underflow: non-positive values, NaN, and anything below 2^-32.
  EXPECT_EQ(metrics::bucket_index(0.0), 0);
  EXPECT_EQ(metrics::bucket_index(-5.0), 0);
  EXPECT_EQ(metrics::bucket_index(std::nan("")), 0);
  EXPECT_EQ(metrics::bucket_index(std::exp2(-40)), 0);
  EXPECT_DOUBLE_EQ(metrics::bucket_value(0), 0.0);
  // Overflow above 2^32.
  EXPECT_EQ(metrics::bucket_index(std::exp2(40)), metrics::kTotalBuckets - 1);
  EXPECT_DOUBLE_EQ(metrics::bucket_value(metrics::kTotalBuckets - 1),
                   std::exp2(32));
  // Monotone in the value.
  EXPECT_LE(metrics::bucket_index(3.0), metrics::bucket_index(3.7));
  EXPECT_LT(metrics::bucket_index(1.0), metrics::bucket_index(100.0));
}

TEST(HistogramMath, QuantilesTrackAKnownDistribution) {
  metrics::reset();
  metrics::arm_collection();
  metrics::Histogram h;
  for (int v = 1; v <= 100; ++v) h.record(static_cast<double>(v));
  const metrics::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_NEAR(snap.sum, 5050.0, 1e-9);
  // 4 buckets/octave carry ~9% relative error; allow 2^0.25 ≈ 19% to keep
  // the bound boundary-proof.
  EXPECT_NEAR(metrics::quantile(snap, 0.50), 50.0, 50.0 * 0.19);
  EXPECT_NEAR(metrics::quantile(snap, 0.95), 95.0, 95.0 * 0.19);
  // Quantiles clamp to the observed range.
  EXPECT_LE(metrics::quantile(snap, 1.0), snap.max);
  EXPECT_GE(metrics::quantile(snap, 0.0), snap.min);

  // A constant distribution is exact: the [min, max] clamp collapses the
  // bucket representative onto the recorded value.
  metrics::Histogram constant;
  for (int i = 0; i < 10; ++i) constant.record(3.25);
  const metrics::HistogramSnapshot cs = constant.snapshot();
  EXPECT_DOUBLE_EQ(metrics::quantile(cs, 0.50), 3.25);
  EXPECT_DOUBLE_EQ(metrics::quantile(cs, 0.99), 3.25);

  // Empty histogram: 0, not NaN.
  EXPECT_DOUBLE_EQ(metrics::quantile(metrics::HistogramSnapshot{}, 0.5), 0.0);
  metrics::reset();
}

TEST(HistogramMath, SnapshotsMergeAdditively) {
  metrics::reset();
  metrics::arm_collection();
  metrics::Histogram a;
  metrics::Histogram b;
  a.record(1.0);
  a.record(2.0);
  b.record(100.0);
  a.merge(b.snapshot());
  const metrics::HistogramSnapshot merged = a.snapshot();
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.min, 1.0);
  EXPECT_DOUBLE_EQ(merged.max, 100.0);
  EXPECT_NEAR(merged.sum, 103.0, 1e-9);
  std::uint64_t bucket_total = 0;
  for (const auto& [index, count] : merged.buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, 3u);
  metrics::reset();
}

// ------------------------------------------------------------- metrics

TEST(MetricsArming, DisarmedUpdatesAreDropped) {
  metrics::reset();
  metrics::counter("t.arm.c").add(5);
  metrics::gauge("t.arm.g").set(2.0);
  metrics::histogram("t.arm.h").record(1.0);
  EXPECT_EQ(metrics::counter("t.arm.c").value(), 0u);
  EXPECT_DOUBLE_EQ(metrics::gauge("t.arm.g").value(), 0.0);
  EXPECT_EQ(metrics::histogram("t.arm.h").snapshot().count, 0u);
  metrics::arm_collection();
  metrics::counter("t.arm.c").add(5);
  EXPECT_EQ(metrics::counter("t.arm.c").value(), 5u);
  metrics::reset();  // zeroes, keeps the reference valid
  EXPECT_EQ(metrics::counter("t.arm.c").value(), 0u);
}

TEST(MetricsJson, SchemaIsStable) {
  metrics::reset();
  metrics::arm_collection();
  metrics::counter("t.schema.alpha").add(3);
  metrics::gauge("t.schema.beta").set(1.5);
  metrics::histogram("t.schema.gamma").record(4.0);

  const JsonValue doc = JsonValue::parse(metrics::to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "safelight.metrics.v1");
  EXPECT_EQ(doc.at("counters").at("t.schema.alpha").as_uint(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("t.schema.beta").as_number(), 1.5);
  // Every histogram carries exactly these fields — perfbench and the docs
  // recipe key on them.
  const auto& hist = doc.at("histograms").at("t.schema.gamma").as_object();
  const std::set<std::string> expected = {"count", "max", "min", "p50",
                                          "p95",   "p99", "sum"};
  std::set<std::string> actual;
  for (const auto& [key, value] : hist) actual.insert(key);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(hist.at("count").as_uint(), 1u);
  EXPECT_DOUBLE_EQ(hist.at("min").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(hist.at("max").as_number(), 4.0);

  // reset() zeroes values but keeps names registered: the schema (the key
  // set) survives, so repeated runs diff cleanly.
  metrics::reset();
  const JsonValue zeroed = JsonValue::parse(metrics::to_json());
  EXPECT_EQ(zeroed.at("counters").at("t.schema.alpha").as_uint(), 0u);
  EXPECT_EQ(zeroed.at("histograms").at("t.schema.gamma").at("count").as_uint(),
            0u);
}

TEST(MetricsJson, WriteJsonHonorsTheOutputPath) {
  TempDir dir("metrics_write");
  metrics::reset();
  EXPECT_FALSE(metrics::write_json());  // disarmed: no file, returns false
  metrics::init(dir.path() + "/m.json");
  EXPECT_TRUE(metrics::has_output());
  metrics::counter("t.file.c").add(1);
  EXPECT_TRUE(metrics::write_json());
  const JsonValue doc =
      JsonValue::parse(read_file_bytes(dir.path() + "/m.json"));
  EXPECT_EQ(doc.at("schema").as_string(), "safelight.metrics.v1");
  EXPECT_EQ(doc.at("counters").at("t.file.c").as_uint(), 1u);
  metrics::reset();
}

TEST(MetricsIngest, FleetSnapshotsAccumulate) {
  metrics::reset();
  metrics::arm_collection();
  metrics::counter("t.fleet.c").add(2);
  metrics::gauge("t.fleet.g").set(1.0);
  metrics::histogram("t.fleet.h").record(10.0);

  // A worker shipping an identical registry doubles counters and histogram
  // counts; the gauge keeps the maximum.
  metrics::ingest(metrics::snapshot());
  metrics::Snapshot after = metrics::snapshot();
  EXPECT_EQ(after.counters.at("t.fleet.c"), 4u);
  EXPECT_EQ(after.histograms.at("t.fleet.h").count, 2u);
  EXPECT_NEAR(after.histograms.at("t.fleet.h").sum, 20.0, 1e-9);
  EXPECT_DOUBLE_EQ(after.gauges.at("t.fleet.g"), 1.0);

  metrics::Snapshot bigger;
  bigger.gauges["t.fleet.g"] = 7.0;
  metrics::ingest(bigger);
  EXPECT_DOUBLE_EQ(metrics::snapshot().gauges.at("t.fleet.g"), 7.0);
  metrics::reset();
}

TEST(MetricsSummary, EveryLineCarriesThePrefix) {
  metrics::reset();
  metrics::arm_collection();
  metrics::counter("t.summary.c").add(1);
  std::istringstream lines(metrics::summary());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("[metrics]", 0), 0u) << line;
    ++count;
  }
  EXPECT_GT(count, 0u);
  metrics::reset();
}

// ----------------------------------------------------------------- log

TEST(LogLevel, SetLevelGatesEnabled) {
  log::set_level(log::Level::kWarn);
  EXPECT_TRUE(log::enabled(log::Level::kError));
  EXPECT_TRUE(log::enabled(log::Level::kWarn));
  EXPECT_FALSE(log::enabled(log::Level::kInfo));
  EXPECT_FALSE(log::enabled(log::Level::kDebug));
  // The env knob is read through config; an unknown name means info, since
  // diagnostics must never abort a run.
  ::setenv("SAFELIGHT_LOG_LEVEL", "debug", 1);
  log::reset();
  EXPECT_TRUE(log::enabled(log::Level::kDebug));
  ::setenv("SAFELIGHT_LOG_LEVEL", "chatty", 1);
  log::reset();
  EXPECT_TRUE(log::enabled(log::Level::kInfo));
  EXPECT_FALSE(log::enabled(log::Level::kDebug));
  // Back to the environment default (info): the historical [dist]/[store]
  // diagnostics stay byte-identical, debug stays hidden.
  ::unsetenv("SAFELIGHT_LOG_LEVEL");
  log::reset();
  EXPECT_TRUE(log::enabled(log::Level::kInfo));
  EXPECT_FALSE(log::enabled(log::Level::kDebug));
}

}  // namespace
}  // namespace safelight
