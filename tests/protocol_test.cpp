// The coordinator <-> worker wire (dist/protocol.hpp) and the spec
// document a task ships (core::spec_to_json / spec_from_json): bit-exact
// round trips, strict rejection of malformed lines, and seeded mutation
// suites over the task decoder and the cell-event decoder. Pure parsing, no processes — this file runs
// in the unit shard (and so under the ASan/UBSan CI job).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/experiment.hpp"
#include "dist/protocol.hpp"

namespace safelight {
namespace {

using dist::EventMessage;
using dist::TaskMessage;

/// A spec with every shipped field off its default, so a field the wire
/// drops or rounds shows up as a mismatch.
core::ExperimentSpec shipped_spec() {
  core::ExperimentSpec spec =
      core::ExperimentRegistry::global().default_spec("robust_compare");
  spec.model = nn::ModelId::kResNet18;
  spec.scale = Scale::kTiny;
  spec.seed_count = 7;
  spec.base_seed = 123456789012345ull;
  spec.variant = "l2+n4";
  spec.robust_variant = "l2+n3";
  spec.l2_strength = 1e-3f;  // no exact decimal form
  spec.clean_runs = 4;
  spec.max_workers = 3;
  spec.verbose = true;
  return spec;
}

TEST(DistProtocol, SpecRoundTripsThroughSpecJsonBitExactly) {
  const core::ExperimentSpec spec = shipped_spec();
  const std::string text = core::spec_to_json(spec);
  EXPECT_EQ(text.find('\n'), text.size() - 1) << "one line";
  const core::ExperimentSpec back = core::spec_from_json(text);
  EXPECT_EQ(back.experiment, spec.experiment);
  EXPECT_EQ(back.model, spec.model);
  EXPECT_EQ(back.scale, spec.scale);
  EXPECT_EQ(back.seed_count, spec.seed_count);
  EXPECT_EQ(back.base_seed, spec.base_seed);
  EXPECT_EQ(back.variant, spec.variant);
  EXPECT_EQ(back.robust_variant, spec.robust_variant);
  EXPECT_EQ(back.l2_strength, spec.l2_strength);  // exact float equality
  EXPECT_EQ(back.clean_runs, spec.clean_runs);
  EXPECT_EQ(back.max_workers, spec.max_workers);
  EXPECT_EQ(back.verbose, spec.verbose);
  // A second trip is a fixed point: nothing drifts on re-encoding.
  EXPECT_EQ(core::spec_to_json(back), text);
  // Integers a JSON number cannot carry exactly are refused, not rounded.
  core::ExperimentSpec huge = spec;
  huge.base_seed = (std::uint64_t{1} << 53) + 1;
  EXPECT_THROW(core::spec_to_json(huge), std::invalid_argument);

  // Every field spec_from_json accepts is written explicitly, so an
  // absent-field default (and with it the parser's environment) never
  // decides what the worker runs.
  const JsonValue written = JsonValue::parse(text);
  const JsonValue listing = JsonValue::parse(core::registry_listing_json());
  for (const JsonValue& field : listing.at("spec_fields").as_array()) {
    EXPECT_TRUE(written.has(field.as_string())) << field.as_string();
  }
}

/// spec_to_json(spec) must throw std::invalid_argument naming `field`.
void expect_unshippable(const core::ExperimentSpec& spec,
                        const std::string& field) {
  try {
    core::spec_to_json(spec);
    FAIL() << "spec_to_json shipped a spec with '" << field << "' set";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + field + "'"),
              std::string::npos)
        << e.what();
  }
}

// The fields spec_to_json does not write would silently fall back to their
// defaults in the worker, which then declares other cells or stores than
// the caller's spec: each one off its default is refused up front.
TEST(DistProtocol, SpecToJsonRefusesAGridItCannotShip) {
  core::ExperimentSpec spec = shipped_spec();
  spec.grid = std::vector<attack::AttackScenario>{};
  expect_unshippable(spec, "grid");
}

TEST(DistProtocol, SpecToJsonRefusesCampaignsItCannotShip) {
  core::ExperimentSpec spec = shipped_spec();
  spec.campaigns = attack::standard_campaigns();
  expect_unshippable(spec, "campaigns");
}

TEST(DistProtocol, SpecToJsonRefusesACorruptionConfigItCannotShip) {
  core::ExperimentSpec spec = shipped_spec();
  spec.corruption.actuation.park_spacing_fraction = 0.02;
  expect_unshippable(spec, "corruption");
}

TEST(DistProtocol, SpecToJsonRefusesASuiteConfigItCannotShip) {
  core::ExperimentSpec spec = shipped_spec();
  spec.suite.probe_data_seed += 1;
  expect_unshippable(spec, "suite");
}

TEST(DistProtocol, TaskRoundTripsThroughNdjsonBitExactly) {
  TaskMessage task;
  task.id = 42;
  task.experiment = "robust_compare";
  task.spec = core::spec_to_json(shipped_spec());
  task.sweep = 1;
  task.store = "resnet18_tiny_l2+n3_deadbeef_cafe.sweep.csv";
  // Ids are opaque to the wire: quotes, backslashes and newlines survive.
  task.cells = {"baseline", "hotspot/CONV+FC/f0.05/s1003", "clean/c0/b1000",
                "odd \"id\" \\ with\nnewline"};

  const std::string line = dist::encode_task(task);
  ASSERT_EQ(line.back(), '\n');
  ASSERT_EQ(line.find('\n'), line.size() - 1) << "task must be one line";

  const TaskMessage decoded = dist::decode_task(line);
  EXPECT_EQ(decoded.id, task.id);
  EXPECT_EQ(decoded.experiment, task.experiment);
  EXPECT_EQ(decoded.spec, task.spec);  // byte-identical embedded document
  EXPECT_EQ(decoded.sweep, task.sweep);
  EXPECT_EQ(decoded.store, task.store);
  EXPECT_EQ(decoded.cells, task.cells);
  EXPECT_EQ(core::spec_from_json(decoded.spec).l2_strength,
            shipped_spec().l2_strength);
}

TEST(DistProtocol, EventsRoundTrip) {
  // Cell rows carry doubles as %.17g text: decimal-inexact values, zero
  // and non-finite values all come back bit for bit, ids and keys intact.
  EventMessage cell;
  cell.type = EventMessage::Type::kCell;
  cell.task_id = 11;
  cell.cell = "odd \"id\" \\ with\nnewline";
  cell.rows = {{"hotspot/CONV+FC/f0.05/s1003/n64", 1.0 / 3.0},
               {"clean/c0/b1000/thermal/score", -0.0},
               {"clean/c0/b1000/thermal/latency", 1e300},
               {"k,with,commas", std::numeric_limits<double>::infinity()}};
  const std::string cell_line = dist::encode_event(cell);
  ASSERT_EQ(cell_line.find('\n'), cell_line.size() - 1);
  const EventMessage cell2 = dist::decode_event(cell_line);
  EXPECT_EQ(cell2.type, EventMessage::Type::kCell);
  EXPECT_EQ(cell2.task_id, 11u);
  EXPECT_EQ(cell2.cell, cell.cell);
  ASSERT_EQ(cell2.rows.size(), cell.rows.size());
  for (std::size_t r = 0; r < cell.rows.size(); ++r) {
    EXPECT_EQ(cell2.rows[r].first, cell.rows[r].first);
    EXPECT_EQ(std::memcmp(&cell2.rows[r].second, &cell.rows[r].second,
                          sizeof(double)),
              0)
        << cell.rows[r].first;
  }
  // A value in any spelling but the exact %.17g one is malformed: the text
  // the worker sends is the text the coordinator's store writes.
  EXPECT_THROW(dist::decode_event("{\"type\":\"cell\",\"id\":1,\"cell\":\"c\","
                                  "\"rows\":[[\"k\",\"0.50\"]]}"),
               std::invalid_argument);
  EXPECT_THROW(dist::decode_event("{\"type\":\"cell\",\"id\":1,\"cell\":\"c\","
                                  "\"rows\":[[\"k\",\"0.5\",\"0.5\"]]}"),
               std::invalid_argument);

  EventMessage done;
  done.type = EventMessage::Type::kDone;
  done.task_id = 7;
  done.evaluated = 3;
  const EventMessage done2 = dist::decode_event(dist::encode_event(done));
  EXPECT_EQ(done2.type, EventMessage::Type::kDone);
  EXPECT_EQ(done2.task_id, 7u);
  EXPECT_EQ(done2.evaluated, 3u);

  EventMessage fatal;
  fatal.type = EventMessage::Type::kFatal;
  fatal.task_id = 9;
  fatal.message = "fingerprint mismatch: \"a\" vs \"b\"\nsecond line";
  const EventMessage fatal2 = dist::decode_event(dist::encode_event(fatal));
  EXPECT_EQ(fatal2.type, EventMessage::Type::kFatal);
  EXPECT_EQ(fatal2.task_id, 9u);
  EXPECT_EQ(fatal2.message, fatal.message);  // newline survives as \n escape
}

TEST(DistProtocol, TelemetryEventsRoundTrip) {
  // Spans ship with absolute nanosecond timestamps and typed args; doubles
  // ride as %.17g strings, so even decimal-inexact values survive exactly.
  EventMessage shipped;
  shipped.type = EventMessage::Type::kTrace;
  trace::RawEvent span;
  span.name = "worker.task";
  span.cat = "dist";
  span.start_ns = 123456789012345ull;
  span.dur_ns = 987654321ull;
  span.tid = 3;
  span.num_args.emplace_back("gflops", 0.1 + 0.2);  // 0.30000000000000004
  span.str_args.emplace_back("variant", "l2+n3");
  shipped.spans.push_back(span);
  const EventMessage t2 = dist::decode_event(dist::encode_event(shipped));
  ASSERT_EQ(t2.type, EventMessage::Type::kTrace);
  ASSERT_EQ(t2.spans.size(), 1u);
  EXPECT_EQ(t2.spans[0].name, span.name);
  EXPECT_EQ(t2.spans[0].cat, span.cat);
  EXPECT_EQ(t2.spans[0].start_ns, span.start_ns);
  EXPECT_EQ(t2.spans[0].dur_ns, span.dur_ns);
  EXPECT_EQ(t2.spans[0].tid, span.tid);
  ASSERT_EQ(t2.spans[0].num_args.size(), 1u);
  EXPECT_EQ(t2.spans[0].num_args[0].first, "gflops");
  EXPECT_EQ(t2.spans[0].num_args[0].second, 0.1 + 0.2);  // exact equality
  ASSERT_EQ(t2.spans[0].str_args.size(), 1u);
  EXPECT_EQ(t2.spans[0].str_args[0].second, "l2+n3");

  // Metrics snapshots carry sparse histogram buckets so the coordinator
  // can merge them additively.
  EventMessage registry;
  registry.type = EventMessage::Type::kMetrics;
  registry.metrics.counters["gemm.calls"] = 11298;
  registry.metrics.gauges["pool.threads"] = 4.0;
  metrics::HistogramSnapshot hist;
  hist.count = 3;
  hist.sum = 0.1 + 0.2;
  hist.min = 0.1;
  hist.max = 0.15;
  hist.buckets[0] = 1;
  hist.buckets[115] = 2;
  registry.metrics.histograms["gemm.gflops"] = hist;
  const EventMessage m2 = dist::decode_event(dist::encode_event(registry));
  ASSERT_EQ(m2.type, EventMessage::Type::kMetrics);
  EXPECT_EQ(m2.metrics.counters.at("gemm.calls"), 11298u);
  EXPECT_EQ(m2.metrics.gauges.at("pool.threads"), 4.0);
  const metrics::HistogramSnapshot& h2 =
      m2.metrics.histograms.at("gemm.gflops");
  EXPECT_EQ(h2.count, hist.count);
  EXPECT_EQ(h2.sum, hist.sum);
  EXPECT_EQ(h2.min, hist.min);
  EXPECT_EQ(h2.max, hist.max);
  EXPECT_EQ(h2.buckets, hist.buckets);

  // An out-of-range bucket index is a protocol error, not a silent skip.
  EXPECT_THROW(
      dist::decode_event(
          "{\"type\":\"metrics\",\"counters\":{},\"gauges\":{},"
          "\"histograms\":{\"h\":{\"count\":1,\"sum\":\"1\",\"min\":\"1\","
          "\"max\":\"1\",\"buckets\":{\"99999\":1}}}}"),
      std::invalid_argument);
}

TEST(DistProtocol, ShutdownIsRecognizedAndMalformedLinesThrow) {
  EXPECT_TRUE(dist::is_shutdown(dist::encode_shutdown()));
  EXPECT_FALSE(dist::is_shutdown(dist::encode_event(EventMessage{})));
  EXPECT_THROW(dist::decode_task("{\"type\":\"shutdown\"}"),
               std::invalid_argument);
  EXPECT_THROW(dist::decode_task("{not json"), std::invalid_argument);
  EXPECT_THROW(dist::decode_event("{\"type\":\"task\"}"),
               std::invalid_argument);
  // Workers are this binary, so there is no handshake event.
  EXPECT_THROW(dist::decode_event("{\"type\":\"hello\",\"pid\":1}"),
               std::invalid_argument);
}

/// Runs `decode` on `line`. Anything malformed must surface as
/// std::invalid_argument; any other exception fails the test (a crash or a
/// sanitizer report fails it too).
template <typename Decode>
void decodes_or_throws_invalid_argument(const std::string& line,
                                        const Decode& decode) {
  try {
    decode(line);
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& error) {
    ADD_FAILURE() << "non-invalid_argument exception (" << error.what()
                  << ") for input: " << line;
  } catch (...) {
    ADD_FAILURE() << "non-standard exception for input: " << line;
  }
}

/// What the worker does with a line off its pipe: decode the task, then
/// parse the spec it carries.
void decode_like_a_worker(const std::string& line) {
  decodes_or_throws_invalid_argument(line, [](const std::string& text) {
    core::spec_from_json(dist::decode_task(text).spec);
  });
}

/// What the coordinator does with a line off a worker's pipe: decode the
/// event, whose cell rows head for a durable store.
void decode_like_a_coordinator(const std::string& line) {
  decodes_or_throws_invalid_argument(
      line, [](const std::string& text) { dist::decode_event(text); });
}

/// Every truncation of `text`, then `count` seeded single-byte flips,
/// deletions and duplications of it, each handed to `check`.
template <typename Check>
void mutate(const std::string& text, std::uint32_t seed, int count,
            const Check& check) {
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    check(text.substr(0, cut));
  }
  std::mt19937 rng(seed);
  for (int n = 0; n < count; ++n) {
    std::string mutated = text;
    const std::size_t at = rng() % mutated.size();
    switch (rng() % 3) {
      case 0:
        mutated[at] = static_cast<char>(mutated[at] ^ (1u << (rng() % 8)));
        break;
      case 1:
        mutated.erase(at, 1);
        break;
      default:
        mutated.insert(at, 1, mutated[at]);
        break;
    }
    check(mutated);
  }
}

TEST(DistProtocol, MutatedTaskLinesDecodeOrThrowInvalidArgument) {
  TaskMessage task;
  task.id = 7;
  task.experiment = "detection";
  core::ExperimentSpec spec = shipped_spec();
  spec.experiment = "detection";
  task.spec = core::spec_to_json(spec);
  task.sweep = 0;
  task.store = "cnn1_tiny_Original_0123abcd_e43e271b_5f1c.detect.csv";
  task.cells = {"clean/c0/b1000", "hotspot/CONV+FC/f0.1/s1001"};
  std::string line = dist::encode_task(task);
  line.pop_back();  // the worker's line reader strips the terminator
  // The unmutated line is valid end to end.
  EXPECT_NO_THROW(core::spec_from_json(dist::decode_task(line).spec));

  // Mutations of the whole line hit the NDJSON layer...
  mutate(line, 1u, 3000, decode_like_a_worker);
  // ...and mutations of the embedded spec, re-encoded into a well-formed
  // line, reach spec_from_json itself.
  mutate(task.spec, 2u, 3000, [&](const std::string& mutated_spec) {
    TaskMessage carrier = task;
    carrier.spec = mutated_spec;
    decode_like_a_worker(dist::encode_task(carrier));
  });
}

TEST(DistProtocol, MutatedCellEventLinesDecodeOrThrowInvalidArgument) {
  EventMessage cell;
  cell.type = EventMessage::Type::kCell;
  cell.task_id = 7;
  cell.cell = "hotspot/CONV+FC/f0.1/s1001";
  cell.rows = {{"hotspot/CONV+FC/f0.1/s1001/thermal/score", 0.8125},
               {"hotspot/CONV+FC/f0.1/s1001/thermal/probes", 12.0},
               {"hotspot/CONV+FC/f0.1/s1001/thermal/latency", 1.0 / 3.0}};
  std::string line = dist::encode_event(cell);
  line.pop_back();  // the coordinator strips the terminator
  // The unmutated line is valid.
  EXPECT_EQ(dist::decode_event(line).rows.size(), 3u);
  mutate(line, 3u, 3000, decode_like_a_coordinator);
}

}  // namespace
}  // namespace safelight
