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
//   {"type":"hello","pid":N,"backend":"avx512","kernel":"<16-hex digest>"}
//   {"type":"heartbeat"}
//   {"type":"done","id":N,"evaluated":K,"cached":M}
//   {"type":"fatal","id":N,"message":"..."}
//   {"type":"trace","spans":[{"name":"...","cat":"...","start_ns":N,
//    "dur_ns":N,"tid":N,"num":{...},"str":{...}}, ...]}
//   {"type":"metrics","counters":{...},"gauges":{...},"histograms":{...}}
//
// Telemetry events exist so an armed coordinator can merge the whole
// fleet's observability into one Chrome trace / one metrics registry: a
// worker in SAFELIGHT_TRACE_PIPE buffering mode drains its span buffer
// after every task (and at shutdown), and ships one metrics snapshot right
// before exiting. Telemetry doubles ride as %.17g strings, which strtod
// reads back bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace safelight::dist {

/// One shard of sweep work: fill `cells` of sweep `sweep` of
/// `experiment` under `spec`, recording results in the worker's own copy
/// of the store file `store`, under exactly the keys the in-process run
/// uses.
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
  enum class Type { kHello, kHeartbeat, kDone, kFatal, kTrace, kMetrics };
  Type type = Type::kHeartbeat;
  std::uint64_t pid = 0;        // kHello
  /// kHello: the worker's selected compute backend and its kernel-numerics
  /// fingerprint (nn::backend::kernel_fingerprint). The coordinator refuses
  /// a worker whose fingerprint differs from its own — a mismatched
  /// SAFELIGHT_DIST_BIN binary must fail the handshake, not merge results
  /// computed with different math. Decoded leniently (empty when absent)
  /// so a pre-registry binary's hello still parses and is rejected with an
  /// actionable error instead of the undecodable-line warn path.
  std::string backend;          // kHello
  std::string kernel;           // kHello
  std::uint64_t task_id = 0;    // kDone / kFatal
  std::uint64_t evaluated = 0;  // kDone: cells computed fresh
  std::uint64_t cached = 0;     // kDone: already present in the worker store
  std::string message;          // kFatal: exception text
  std::vector<trace::RawEvent> spans;  // kTrace: drained span buffer
  metrics::Snapshot metrics;           // kMetrics: worker registry snapshot
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
