// Coordinator <-> worker pipe protocol of the distributed sweep layer.
//
// One JSON document per line (NDJSON), written with common/json's compact
// writer and parsed back with JsonValue — no third-party dependency, and
// both directions are strict: an unknown type, a missing field or trailing
// garbage is a protocol error, not a silent skip.
//
// A task names an experiment, its spec, one of the sweeps the experiment
// declares (core::ExperimentInfo::sweeps, by index), that sweep's store file
// and the ids of the cells to fill. The spec travels whole (spec_to_json),
// so the worker rebuilds the very declaration the in-process run uses and
// its own environment cannot change it. Cells travel as ids because the
// declaration already knows what each id means; an undeclared id fails the
// task, and so does a store name the worker computes differently (it
// carries the weights checksum and the corruption and suite fingerprints).
//
// Coordinator -> worker commands:
//   {"type":"task", "id":N, "experiment":"detection",
//    "spec":"{\"experiment\":\"detection\",\"model\":\"cnn1\",...}",
//    "sweep":0, "store":"cnn1_tiny_Original_<sum>_<fp>_<fp>.detect.csv",
//    "cells":["clean/c0/b1000","hotspot/CONV+FC/f0.05/s1003", ...]}
//   {"type":"shutdown"}
//
// Worker -> coordinator events:
//   {"type":"heartbeat"}
//   {"type":"cell","id":N,"cell":"hotspot/CONV+FC/f0.05/s1003",
//    "rows":[["hotspot/CONV+FC/f0.05/s1003/n64","0.59375"], ...]}
//   {"type":"done","id":N,"evaluated":K}
//   {"type":"fatal","id":N,"message":"..."}
//   {"type":"trace","spans":[{"name":"...","cat":"...","start_ns":N,
//    "dur_ns":N,"tid":N,"num":{...},"str":{...}}, ...]}
//   {"type":"metrics","counters":{...},"gauges":{...},"histograms":{...}}
//
// A cell event carries one evaluated cell's store rows, value as the %.17g
// text the result store writes; the coordinator, the only writer of the
// canonical stores, appends them. A worker sends one per cell as soon as
// the cell is evaluated, so a crash loses at most the cell in flight.
//
// Telemetry events exist so an armed coordinator can merge the whole
// fleet's observability into one Chrome trace / one metrics registry: a
// worker armed for buffering (it was passed --trace) drains its span buffer
// after every task (and at shutdown), and one armed for metrics ships the
// delta of its registry since the last one right behind every cell event
// (and at shutdown); the coordinator adds the deltas up.
// Telemetry doubles ride as %.17g strings, which strtod reads back bit for
// bit.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace safelight::dist {

/// One shard of sweep work: evaluate `cells` of sweep `sweep` of
/// `experiment` under `spec` and send their rows back, under exactly the
/// keys and for exactly the store file `store` the in-process run uses.
struct TaskMessage {
  std::uint64_t id = 0;
  std::string experiment;  // registry key
  std::string spec;        // core::spec_to_json document
  std::size_t sweep = 0;   // index into the experiment's sweeps(spec)
  std::string store;       // store file name, no directory
  std::vector<std::string> cells;  // cell ids
};

/// Worker -> coordinator event.
struct EventMessage {
  enum class Type { kHeartbeat, kCell, kDone, kFatal, kTrace, kMetrics };
  Type type = Type::kHeartbeat;
  std::uint64_t task_id = 0;    // kCell / kDone / kFatal
  std::string cell;             // kCell: the evaluated cell's id
  /// kCell: the cell's (store key, value) rows. The decoder accepts a value
  /// only in the exact %.17g spelling of a double, so the text the worker
  /// sent is the text the coordinator's store writes.
  std::vector<std::pair<std::string, double>> rows;
  std::uint64_t evaluated = 0;  // kDone: cells the task evaluated
  std::string message;          // kFatal: exception text
  std::vector<trace::RawEvent> spans;  // kTrace: drained span buffer
  metrics::Snapshot metrics;           // kMetrics: worker registry delta
};

/// Encoders return one complete line including the trailing '\n'.
std::string encode_task(const TaskMessage& task);
std::string encode_shutdown();
std::string encode_event(const EventMessage& event);

/// True when `line` is a shutdown command. Malformed JSON still throws.
bool is_shutdown(const std::string& line);

/// Decoders throw std::invalid_argument (with the parse position or the
/// offending field) on anything malformed.
TaskMessage decode_task(const std::string& line);
EventMessage decode_event(const std::string& line);

}  // namespace safelight::dist
