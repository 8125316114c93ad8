#include "cli/cli.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "nn/backend.hpp"
#include "serve/server.hpp"

namespace safelight::cli {

namespace {

constexpr const char* kUsage =
    "usage: safelight <command> [flags]\n"
    "\n"
    "commands:\n"
    "  list [--json]        registered experiments (--json: machine-readable\n"
    "                       listing with the accepted spec fields)\n"
    "  run <experiment>     run one experiment over the paper models\n"
    "  run-all              run every registered experiment in one process\n"
    "  serve                long-running multi-tenant daemon: submit\n"
    "                       ExperimentSpec JSON over HTTP, stream NDJSON\n"
    "                       progress (docs/architecture.md \"Serving\")\n"
    "  worker               internal: distributed sweep worker (spawned by\n"
    "                       'run --workers N', speaks NDJSON on stdin/stdout;\n"
    "                       takes the flags below)\n"
    "  help                 this text\n"
    "\n"
    "flags (precedence: flag > SAFELIGHT_* env > default):\n"
    "  --model <name>       cnn1 | resnet18 | vgg16v (default: all three)\n"
    "  --scale <name>       tiny | default | full\n"
    "  --seeds <N>          placements per grid cell\n"
    "  --base-seed <N>      base placement seed\n"
    "  --out <dir>          CSV/JSON output directory\n"
    "  --zoo <dir>          trained-model and result-store cache directory\n"
    "  --threads <N>        worker threads\n"
    "  --backend <name>     gemm compute backend: auto (default; best\n"
    "                       variant this CPU supports) | scalar | avx2 |\n"
    "                       avx512 — results are bitwise-identical either\n"
    "                       way, only speed changes\n"
    "  --json               also write per-(experiment, model) JSON\n"
    "  --verbose            per-scenario progress output\n"
    "\n"
    "serving (safelight serve):\n"
    "  --port <N>           TCP port on 127.0.0.1 (0 = ephemeral; the bound\n"
    "                       port prints on startup)\n"
    "  --slots <N>          concurrent experiment slots\n"
    "  --queue-depth <N>    jobs allowed to wait beyond the running ones\n"
    "                       before new submissions get 429\n"
    "\n"
    "distributed execution (docs/architecture.md):\n"
    "  --workers <N>        shard sweeps across N worker subprocesses\n"
    "                       (0 = in-process, the default)\n"
    "  --heartbeat-timeout <s>   worker silence before a kill + retry\n"
    "  --max-task-retries <N>    failed attempts of a task in a row (no\n"
    "                       rows delivered) tolerated before quarantine\n"
    "  --chaos <p>          arm fault injection inside the workers with\n"
    "                       per-cell crash probability p (chaos testing;\n"
    "                       needs --workers)\n"
    "\n"
    "observability (docs/architecture.md \"Observability\"):\n"
    "  --trace <file>       write a merged Chrome trace-event JSON of the\n"
    "                       run (load in Perfetto / chrome://tracing);\n"
    "                       with --workers N the worker spans merge in\n"
    "  --metrics <file>     write the counters/gauges/histograms registry\n"
    "                       as JSON; a summary table prints to stderr\n"
    "\n"
    "fault injection (crash-consistency testing, docs/testing.md):\n"
    "  --fault-mode <m>     none | independent | run_length | uniform\n"
    "  --fault-point <p>    only pull the plug at this named point\n"
    "  --fault-n <N>        crash on the N-th matched hit (run_length),\n"
    "                       or draw the hit uniformly from [1, N] (uniform)\n"
    "  --fault-prob <p>     per-hit crash probability (independent)\n"
    "  --fault-seed <N>     seed of the injection draws\n"
    "\n"
    "exit codes: 0 ok, 1 runtime error, 2 usage error, 3 sweep incomplete\n"
    "(quarantined tasks), 42 injected crash, 130 cancelled (SIGINT/SIGTERM)\n";

struct CliOptions {
  std::vector<nn::ModelId> models;  // resolved; paper models when no --model
  bool json = false;
  bool verbose = false;
  double chaos = 0.0;  // worker-side per-cell crash probability
};

using core::banner;

/// Cooperative-cancellation flag shared with the experiment RunContext.
/// SIGINT (and request_cancel(), the test seam) sets it; sweeps then abort
/// between coarse work units via ExperimentCancelled — completed scenarios
/// are already flushed to the result stores, so the next identical run
/// resumes instead of restarting.
std::atomic<bool> g_cancel_requested{false};

extern "C" void handle_cancel_signal(int) {
  g_cancel_requested.store(true, std::memory_order_relaxed);
}

/// Installs the SIGINT and SIGTERM handlers for the duration of one
/// cli::run and always leaves the flag cleared for the next invocation
/// (embedders and tests call run() repeatedly in one process). SIGTERM —
/// what the coordinator, a supervisor or `kill` sends — gets the same
/// graceful treatment as Ctrl-C: finish the current scenario, flush the
/// stores, exit 130 with the resume hint.
class ScopedCancelScope {
 public:
  ScopedCancelScope() {
    previous_int_ = std::signal(SIGINT, handle_cancel_signal);
    previous_term_ = std::signal(SIGTERM, handle_cancel_signal);
  }
  ~ScopedCancelScope() {
    if (previous_int_ != SIG_ERR) std::signal(SIGINT, previous_int_);
    if (previous_term_ != SIG_ERR) std::signal(SIGTERM, previous_term_);
    g_cancel_requested.store(false, std::memory_order_relaxed);
  }

 private:
  void (*previous_int_)(int) = SIG_ERR;
  void (*previous_term_)(int) = SIG_ERR;
};

/// Strict decimal parse: digits only (std::stoull would wrap "-1" to a
/// huge positive and accept trailing garbage).
std::uint64_t nonnegative_int(const std::string& flag,
                              const std::string& value) {
  const bool digits_only =
      !value.empty() &&
      value.find_first_not_of("0123456789") == std::string::npos;
  if (!digits_only || value.size() > 19) {
    fail_argument("flag " + flag + " needs a non-negative integer (got '" +
                  value + "')");
  }
  return std::stoull(value);
}

std::size_t positive_int(const std::string& flag, const std::string& value) {
  const std::uint64_t parsed = nonnegative_int(flag, value);
  require(parsed >= 1, "flag " + flag + " must be >= 1 (got " + value + ")");
  return static_cast<std::size_t>(parsed);
}

/// Strict full-string parse of a double (no trailing garbage) for which
/// `valid` holds; `expected` completes the error's "flag <f> needs ...".
template <typename Valid>
double number(const std::string& flag, const std::string& value, Valid valid,
              const char* expected) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  require(end != value.c_str() && *end == '\0' && valid(parsed),
          "flag " + flag + " needs " + expected + " (got '" + value + "')");
  return parsed;
}

/// Parses flags into (config overrides, CLI options), consumes all args
/// after the command word, then arms fault injection, telemetry and the
/// compute backend from the result. Every command goes through here, the
/// coordinator-spawned `worker` too, whose --trace/--metrics buffer for the
/// event pipe instead of writing files.
/// Throws std::invalid_argument on unknown flags.
CliOptions parse_flags(const std::vector<std::string>& args,
                       std::size_t begin, bool worker) {
  CliOptions options;
  config::Overrides overrides;
  for (std::size_t i = begin; i < args.size(); ++i) {
    const std::string& flag = args[i];
    const auto value = [&]() -> const std::string& {
      require(i + 1 < args.size(), "flag " + flag + " needs a value");
      return args[++i];
    };
    if (flag == "--model") {
      // Deduplicated, order-preserving: a repeated --model would silently
      // double every CSV row of that model.
      const nn::ModelId model = nn::model_id_from_string(value());
      if (std::find(options.models.begin(), options.models.end(), model) ==
          options.models.end()) {
        options.models.push_back(model);
      }
    } else if (flag == "--scale") {
      overrides.scale = config::parse_scale(value());
    } else if (flag == "--seeds") {
      overrides.seed_count = positive_int(flag, value());
    } else if (flag == "--base-seed") {
      overrides.base_seed = nonnegative_int(flag, value());  // 0 is legal
    } else if (flag == "--out") {
      overrides.out_dir = value();
    } else if (flag == "--zoo") {
      overrides.zoo_dir = value();
    } else if (flag == "--threads") {
      overrides.threads = positive_int(flag, value());
    } else if (flag == "--backend") {
      const std::string& name = value();
      nn::backend::resolve(name);  // reject typos/unsupported at the boundary
      overrides.backend = name;
    } else if (flag == "--port") {
      const std::uint64_t port = nonnegative_int(flag, value());
      require(port <= 65535,
              "flag --port must be in [0, 65535] (got " +
                  std::to_string(port) + "); 0 binds an ephemeral port");
      overrides.serve_port = static_cast<std::uint16_t>(port);
    } else if (flag == "--slots") {
      overrides.serve_slots = positive_int(flag, value());
    } else if (flag == "--queue-depth") {
      overrides.serve_queue_depth =
          static_cast<std::size_t>(nonnegative_int(flag, value()));
    } else if (flag == "--workers") {
      overrides.workers =
          static_cast<std::size_t>(nonnegative_int(flag, value()));
    } else if (flag == "--heartbeat-timeout") {
      overrides.heartbeat_timeout_s = number(
          flag, value(), [](double v) { return v > 0.0; }, "a positive number");
    } else if (flag == "--max-task-retries") {
      overrides.max_task_retries = positive_int(flag, value());
    } else if (flag == "--chaos") {
      options.chaos = number(
          flag, value(), [](double v) { return v >= 0.0 && v < 1.0; },
          "a probability in [0, 1)");
    } else if (flag == "--fault-mode") {
      const std::string& mode = value();
      fault::parse_mode(mode);  // reject typos at the flag boundary
      overrides.fault_mode = mode;
    } else if (flag == "--fault-point") {
      overrides.fault_point = value();
    } else if (flag == "--fault-n") {
      overrides.fault_n = positive_int(flag, value());
    } else if (flag == "--fault-prob") {
      overrides.fault_prob = number(
          flag, value(), [](double v) { return v >= 0.0 && v <= 1.0; },
          "a probability in [0, 1]");
    } else if (flag == "--fault-seed") {
      overrides.fault_seed = nonnegative_int(flag, value());
    } else if (flag == "--trace") {
      overrides.trace_path = value();
    } else if (flag == "--metrics") {
      overrides.metrics_path = value();
    } else if (flag == "--json") {
      options.json = true;
    } else if (flag == "--verbose") {
      options.verbose = true;
    } else {
      fail_argument("unknown flag '" + flag + "' (see 'safelight help')");
    }
  }
  if (options.models.empty()) options.models = nn::paper_models();
  config::set_overrides(overrides);
  // Chaos is armed in dist workers only; without them it would silently
  // run an unperturbed sweep.
  require(options.chaos == 0.0 || config::workers() > 0,
          "flag --chaos needs --workers N (N >= 1): it arms fault injection "
          "inside the dist workers only");
  // Arm (or disarm) fault injection from the now-complete flag > env >
  // default resolution; every durable write below this point is a ptp site.
  fault::init_from_config();
  // Same precedence for the observability layer: every span/metric site
  // below this point is live (or a single relaxed load when disarmed).
  trace::init_from_config(/*buffer_only=*/worker);
  metrics::init_from_config(/*collect_only=*/worker);
  // The cached backend resolution may predate the overrides just installed
  // (run() is invoked repeatedly in one process by tests and embedders);
  // re-resolve, then report the choice through the armed telemetry.
  nn::backend::invalidate_cache();
  nn::backend::announce(options.verbose);
  return options;
}

// ---------------------------------------------------------------------------
// Per-experiment console rendering.
// ---------------------------------------------------------------------------

void render(const core::SusceptibilityReport& report) {
  std::printf("baseline accuracy: %s\n\n",
              core::pct(report.baseline_accuracy).c_str());
  core::TextTable table({"attack", "target", "fraction", "min", "median",
                         "max", "mean", "worst drop"});
  for (const auto& group : report.groups) {
    table.add_row({attack::to_string(group.vector),
                   attack::to_string(group.target), core::pct(group.fraction),
                   core::pct(group.accuracy.min),
                   core::pct(group.accuracy.median),
                   core::pct(group.accuracy.max),
                   core::pct(group.accuracy.mean),
                   core::pct(report.baseline_accuracy - group.accuracy.min)});
  }
  std::printf("%s", table.render().c_str());
}

void render(const core::MitigationReport& report) {
  core::TextTable table(
      {"variant", "clean acc", "min", "q1", "median", "q3", "max"});
  for (const auto& outcome : report.outcomes) {
    table.add_row({outcome.variant.name,
                   core::pct(outcome.baseline_accuracy),
                   core::pct(outcome.under_attack.min),
                   core::pct(outcome.under_attack.q1),
                   core::pct(outcome.under_attack.median),
                   core::pct(outcome.under_attack.q3),
                   core::pct(outcome.under_attack.max)});
  }
  std::printf("%s", table.render().c_str());
  const auto& best = report.best_robust();
  std::printf(
      "most robust variant: %s (median %s under attack; Original median "
      "%s)\n",
      best.variant.name.c_str(), core::pct(best.under_attack.median).c_str(),
      core::pct(report.outcome("Original").under_attack.median).c_str());
}

void render(const core::RobustComparisonReport& report) {
  std::printf("robust variant: %s | baselines: original %s, robust %s\n\n",
              report.robust_variant_name.c_str(),
              core::pct(report.original_baseline).c_str(),
              core::pct(report.robust_baseline).c_str());
  core::TextTable table({"attack", "fraction", "original [min..max]",
                         "robust [min..max]", "orig worst drop", "recovered"});
  for (const auto& cell : report.cells) {
    table.add_row(
        {attack::to_string(cell.vector), core::pct(cell.fraction),
         core::pct(cell.original.min) + ".." + core::pct(cell.original.max),
         core::pct(cell.robust.min) + ".." + core::pct(cell.robust.max),
         core::pct(cell.original_drop(report.original_baseline)),
         core::signed_pct(cell.recovered())});
  }
  std::printf("%s", table.render().c_str());
}

/// TPR over the attack runs at exactly intensity `fraction`.
double tpr_at(const core::DetectionReport& report, const std::string& detector,
              double fraction) {
  std::size_t total = 0;
  std::size_t flagged = 0;
  for (const auto& row : report.rows) {
    if (row.clean || row.detector != detector) continue;
    if (row.scenario.fraction != fraction) continue;
    ++total;
    if (row.flagged) ++flagged;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(flagged) / static_cast<double>(total);
}

std::string latency_cell(const core::DetectionReport& report,
                         const std::string& detector) {
  try {
    const BoxStats latency = report.detection_latency(detector);
    return fmt_double(latency.median, 1) + " probes";
  } catch (const std::invalid_argument&) {
    return "-";  // the detector flagged no attack run
  }
}

void render(const core::DetectionReport& report) {
  core::TextTable table({"detector", "FPR", "TPR@1%", "TPR@5%", "TPR@10%",
                         "AUC actuation", "AUC hotspot", "AUC all",
                         "median latency"});
  for (const std::string& detector : report.detectors) {
    table.add_row(
        {detector, core::pct(report.false_positive_rate(detector)),
         core::pct(tpr_at(report, detector, 0.01)),
         core::pct(tpr_at(report, detector, 0.05)),
         core::pct(tpr_at(report, detector, 0.10)),
         fmt_double(report.auc(detector, attack::AttackVector::kActuation), 3),
         fmt_double(report.auc(detector, attack::AttackVector::kHotspot), 3),
         fmt_double(report.auc(detector), 3), latency_cell(report, detector)});
  }
  std::printf("%s", table.render().c_str());
}

void render(const core::CampaignSweepReport& report) {
  core::TextTable table(
      {"campaign", "detector", "evasion rate", "latency", "worst drop"});
  for (const auto& result : report.campaigns) {
    double worst_drop = 0.0;
    bool has_active = false;
    for (std::size_t pi = 0; pi < result.phases.size(); ++pi) {
      worst_drop = std::max(worst_drop, result.accuracy_drop(pi));
      has_active = has_active || result.phases[pi].active;
    }
    for (const std::string& detector : result.detectors) {
      const std::size_t latency = result.detection_latency_checks(detector);
      // A dormant-only campaign (pure false-positive measurement) has no
      // active phase to evade.
      table.add_row(
          {result.campaign, detector,
           has_active ? core::pct(result.evasion_rate(detector)) : "-",
           latency == 0 ? "-" : std::to_string(latency) + " checks",
           core::pct(worst_drop)});
    }
  }
  std::printf("%s", table.render().c_str());
}

/// Per-model timing line. robust_compare gets its own phrasing: its window
/// includes the internal 11-variant mitigation sweep that selects the
/// robust variant (dominant on a cold cache), so no per-scenario count is
/// claimed there.
void print_timing(const core::ExperimentResult& result) {
  if (std::holds_alternative<core::RobustComparisonReport>(result.payload)) {
    std::printf(
        "[comparison + variant selection in %.1f s on %zu worker "
        "thread(s)]\n",
        result.wall_seconds, worker_count());
    return;
  }
  std::size_t units = 0;
  if (const auto* s =
          std::get_if<core::SusceptibilityReport>(&result.payload)) {
    units = s->rows.size();
  } else if (const auto* m =
                 std::get_if<core::MitigationReport>(&result.payload)) {
    units = m->outcomes.size() *
            attack::paper_scenario_grid(result.spec.seed_count,
                                        result.spec.base_seed)
                .size();
  } else if (const auto* d =
                 std::get_if<core::DetectionReport>(&result.payload)) {
    units = d->detectors.empty() ? 0 : d->rows.size() / d->detectors.size();
  } else {
    const auto& campaign =
        std::get<core::CampaignSweepReport>(result.payload);
    for (const auto& c : campaign.campaigns) units += c.phases.size();
  }
  std::printf("[%zu unit(s) in %.1f s on %zu worker thread(s)]\n", units,
              result.wall_seconds, worker_count());
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

int cmd_list(bool json) {
  if (json) {
    // Machine-readable twin of the table below: names, summaries, CSV
    // stems and the spec fields POST /v1/jobs accepts (schema-pinned in
    // experiment_test).
    std::printf("%s", core::registry_listing_json().c_str());
    return 0;
  }
  const auto& registry = core::ExperimentRegistry::global();
  core::TextTable table({"experiment", "summary", "seeds", "csv files"});
  for (const std::string& name : registry.names()) {
    const core::ExperimentInfo& info = registry.info(name);
    std::string files;
    for (const std::string& stem : info.csv_files) {
      if (!files.empty()) files += ", ";
      files += stem + ".csv";
    }
    table.add_row({info.name, info.summary,
                   std::to_string(info.default_seed_count), files});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

/// Runs `experiments` over `options.models` with one shared zoo: per
/// experiment, CSV rows of consecutive models append under one header and
/// JSON documents go next to them with --json.
int cmd_run(const std::vector<std::string>& experiments,
            const CliOptions& options) {
  const auto& registry = core::ExperimentRegistry::global();
  // Fail on a typo before any sweep starts, not after the first one ran.
  for (const std::string& name : experiments) registry.info(name);

  const Scale scale = config::scale();
  const std::string out_dir = config::out_dir();
  // Resolved before the zoo exists, so a bogus value fails before any work.
  const std::uint64_t base_seed = config::base_seed();
  core::ModelZoo zoo;
  core::RunContext context(zoo);
  context.cancel = &g_cancel_requested;
  context.progress = [&](const std::string& stage) {
    std::printf("  . %s\n", stage.c_str());
    std::fflush(stdout);
  };
  // --workers N: one fleet for the whole invocation takes the evaluate
  // stage of every registry run; everything else runs exactly as in
  // process, so the output is byte-identical to a single-process run.
  std::unique_ptr<dist::Fleet> fleet;
  if (config::workers() > 0) {
    dist::DistOptions dist_options;
    dist_options.workers = config::workers();
    dist_options.heartbeat_timeout_s = config::heartbeat_timeout_s();
    dist_options.max_task_retries = config::max_task_retries();
    dist_options.chaos_kill_prob = options.chaos;
    dist_options.chaos_seed = base_seed;
    dist_options.verbose = options.verbose;
    dist_options.cancel = &g_cancel_requested;
    fleet = std::make_unique<dist::Fleet>(zoo, dist_options);
    context.evaluate = std::bind_front(&dist::Fleet::evaluate, fleet.get());
  }

  struct ExperimentTiming {
    std::string experiment;
    double seconds = 0.0;
  };
  std::vector<ExperimentTiming> timings;
  bool any_quarantine = false;

  for (const std::string& name : experiments) {
    const core::ExperimentInfo& info = registry.info(name);
    const std::size_t seeds = config::seed_count(info.default_seed_count);
    banner(name + ": " + info.summary + " (" + to_string(scale) +
           " scale, " + std::to_string(seeds) + " placements)");

    // One writer per CSV document, shared by every model of the experiment.
    std::map<std::string, std::unique_ptr<CsvWriter>> writers;
    // Only the headline cells survive the per-model loop; full results
    // (all sweep rows) are dropped per model to keep run-all memory flat.
    std::vector<std::vector<std::string>> headline_rows;
    double experiment_seconds = 0.0;

    for (const nn::ModelId model : options.models) {
      core::ExperimentSpec spec = registry.default_spec(name);
      spec.model = model;
      spec.scale = scale;
      spec.seed_count = seeds;
      spec.base_seed = base_seed;
      spec.cache_dir = zoo.directory();
      spec.verbose = options.verbose;

      std::printf("\n--- %s (%s on %s) ---\n",
                  nn::to_string(model).c_str(), to_string(scale).c_str(),
                  spec.resolved_setup().dataset_family.c_str());
      std::fflush(stdout);

      trace::Span run_span("experiment", name);
      run_span.arg("model", nn::to_string(model))
          .arg("scale", to_string(scale));
      core::ExperimentResult result;
      try {
        result = registry.run(spec, context);
      } catch (const dist::QuarantinedError& error) {
        log::error("dist",
                   "%s/%s incomplete: %zu task(s) quarantined; "
                   "skipping report assembly for this model",
                   name.c_str(), nn::to_string(model).c_str(),
                   error.tasks.size());
        any_quarantine = true;
        continue;
      }
      run_span.arg("wall_seconds", result.wall_seconds);
      experiment_seconds += result.wall_seconds;
      print_timing(result);
      std::visit([](const auto& report) { render(report); }, result.payload);

      for (const core::CsvDocument& doc : result.to_csv()) {
        auto it = writers.find(doc.file_stem);
        if (it == writers.end()) {
          it = writers
                   .emplace(doc.file_stem,
                            std::make_unique<CsvWriter>(
                                out_dir + "/" + doc.file_stem + ".csv",
                                doc.header))
                   .first;
        }
        for (const auto& row : doc.rows) it->second->row(row);
      }
      if (options.json) {
        const std::string path =
            out_dir + "/" + name + "_" + nn::to_string(model) + ".json";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        fault::ptp("cli.json.write");  // crash: truncated (empty) JSON file
        out << result.to_json();
        require(out.good(), "failed to write " + path);
      }
      if (name == "susceptibility") {
        const auto& report = result.as<core::SusceptibilityReport>();
        headline_rows.push_back(
            {nn::to_string(model), core::pct(report.baseline_accuracy),
             core::pct(report.worst_drop(attack::AttackVector::kHotspot,
                                         attack::AttackTarget::kBothBlocks,
                                         0.10))});
      }
    }

    if (name == "susceptibility") {
      banner("Headline (paper SIV: 7.49% / 26.4% / 80.46% drops)");
      core::TextTable headline(
          {"model", "baseline", "worst drop @ 10% hotspot CONV+FC"});
      for (const auto& row : headline_rows) headline.add_row(row);
      std::printf("%s", headline.render().c_str());
    }
    if (name == "robust_compare") {
      std::printf(
          "\npaper reference: recoveries up to 5.4%% / 21.2%% / 30.7%% at "
          "10%%,\n2.09%% / 7.07%% / 35.54%% at 5%%, 1.1%% / 6.64%% / 9.07%% "
          "at 1%%\n");
    }
    std::string files;
    for (const auto& [stem, writer] : writers) {
      if (!files.empty()) files += ", ";
      files += writer->path();
    }
    std::printf("\nCSV written to %s\n", files.c_str());
    timings.push_back({name, experiment_seconds});
  }

  if (fleet) fleet->finish();
  if (experiments.size() > 1) {
    banner("run summary");
    core::TextTable summary({"experiment", "wall seconds"});
    for (const auto& timing : timings) {
      summary.add_row({timing.experiment, fmt_double(timing.seconds, 1)});
    }
    std::printf("%s", summary.render().c_str());
  }
  // 3 = the sweep ran but quarantined tasks were left out; a caller that
  // treats this as success would trust incomplete CSVs.
  return any_quarantine ? 3 : 0;
}

/// `safelight serve`: the resident multi-tenant daemon. One shared zoo,
/// N slots, an HTTP/NDJSON front end (src/serve); SIGINT/SIGTERM drain
/// gracefully through the same ScopedCancelScope flag the sweeps poll.
int cmd_serve() {
  // GET /metrics must answer even without --metrics <file>: arm bare
  // collection, but never clobber an output file the flags installed.
  if (!metrics::armed()) metrics::arm_collection();
  serve::ServeOptions serve_options;
  serve_options.port = config::serve_port();
  serve_options.slots = config::serve_slots();
  serve_options.queue_depth = config::serve_queue_depth();
  serve_options.zoo_dir = config::zoo_dir();
  serve_options.stop = &g_cancel_requested;
  serve::Server server(serve_options);
  return server.serve();
}

/// `safelight worker`: the coordinator-spawned end of the distributed
/// protocol, configured by its command line alone (parse_flags). stdin
/// carries task commands, the *original* stdout carries events; stdout is
/// re-pointed at stderr immediately so stray prints from experiment code
/// cannot corrupt the event stream.
int cmd_worker() {
  dist::WorkerOptions worker;
  worker.zoo_dir = config::zoo_dir();
  worker.protocol_in = 0;
  worker.protocol_out = ::dup(1);
  require(worker.protocol_out >= 0, "worker: dup(stdout) failed");
  ::dup2(2, 1);
  // Four beats per timeout window, so one late beat never reads as a hang.
  worker.heartbeat_interval_s =
      std::clamp(config::heartbeat_timeout_s() / 4.0, 0.02, 1.0);
  worker.cancel = &g_cancel_requested;
  return dist::run_worker(worker);
}

}  // namespace

void request_cancel() {
  g_cancel_requested.store(true, std::memory_order_relaxed);
}

int run(const std::vector<std::string>& args) {
  ScopedCancelScope cancel_scope;
  // An armed fault run reports every point's hit count on the way out (a
  // pulled plug _Exits before reaching this, exactly like a real crash).
  struct ReportScope {
    ~ReportScope() {
      if (fault::armed()) std::fprintf(stderr, "%s", fault::report().c_str());
    }
  } report_scope;
  // Observability flush on every exit path (success, usage error,
  // cancellation): a cancelled traced run still leaves a loadable partial
  // trace. Workers arm in buffering mode (no output file), so both writes
  // no-op there and the pipe stays the only telemetry channel.
  struct TelemetryScope {
    ~TelemetryScope() {
      if (trace::has_output()) trace::flush();
      if (metrics::has_output()) {
        metrics::write_json();
        const std::string table = metrics::summary();
        if (!table.empty()) std::fprintf(stderr, "%s", table.c_str());
      }
    }
  } telemetry_scope;
  try {
    if (args.empty() || args[0] == "help" || args[0] == "--help" ||
        args[0] == "-h") {
      std::printf("%s", kUsage);
      return args.empty() ? 2 : 0;
    }
    const std::string& command = args[0];
    if (command == "list") {
      require(args.size() == 1 || (args.size() == 2 && args[1] == "--json"),
              "'safelight list' takes no flags except --json");
      return cmd_list(args.size() == 2);
    }
    if (command == "serve") {
      parse_flags(args, 1, /*worker=*/false);
      return cmd_serve();
    }
    if (command == "run") {
      require(args.size() >= 2 && args[1].rfind("--", 0) != 0,
              "'safelight run' needs an experiment name (try "
              "'safelight list')");
      const CliOptions options = parse_flags(args, 2, /*worker=*/false);
      return cmd_run({args[1]}, options);
    }
    if (command == "run-all") {
      const CliOptions options = parse_flags(args, 1, /*worker=*/false);
      return cmd_run(core::ExperimentRegistry::global().names(), options);
    }
    if (command == "worker") {
      parse_flags(args, 1, /*worker=*/true);
      return cmd_worker();
    }
    fail_argument("unknown command '" + command +
                  "' (see 'safelight help')");
  } catch (const core::ExperimentCancelled& error) {
    log::warn(nullptr,
              "%s (completed scenarios stay cached; rerun the same "
              "command to resume)",
              error.what());
    return 130;  // 128 + SIGINT, the conventional interrupted-run code
  } catch (const std::invalid_argument& error) {
    log::error(nullptr, "%s", error.what());
    return 2;
  } catch (const std::exception& error) {
    log::error(nullptr, "safelight: %s", error.what());
    return 1;
  }
}

}  // namespace safelight::cli
