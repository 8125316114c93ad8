#include "core/experiment.hpp"

#include <chrono>
#include <cstdio>
#include <set>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "core/pipeline.hpp"

namespace safelight::core {

namespace {

std::string scenario_vector_cell(const DetectionRow& row) {
  return row.clean ? "" : attack::to_string(row.scenario.vector);
}

std::string scenario_target_cell(const DetectionRow& row) {
  return row.clean ? "" : attack::to_string(row.scenario.target);
}

std::string scenario_fraction_cell(const DetectionRow& row) {
  return row.clean ? "0" : fmt_double(row.scenario.fraction, 2);
}

std::string scenario_seed_cell(const DetectionRow& row) {
  return row.clean ? "" : std::to_string(row.scenario.seed);
}

// ---------------------------------------------------------------------------
// CSV serialization. Row formats are golden-pinned at tiny scale; change
// them only together with tests/golden/.
// ---------------------------------------------------------------------------

std::vector<CsvDocument> csv_of(const ExperimentSpec& spec,
                                const SusceptibilityReport& report) {
  CsvDocument doc;
  doc.file_stem = "fig7_susceptibility";
  doc.header = {"model", "vector",   "target",  "fraction",
                "seed",  "accuracy", "baseline"};
  const std::string model = nn::to_string(spec.model);
  for (const auto& row : report.rows) {
    doc.rows.push_back({model, attack::to_string(row.scenario.vector),
                        attack::to_string(row.scenario.target),
                        fmt_double(row.scenario.fraction, 2),
                        std::to_string(row.scenario.seed),
                        fmt_double(row.accuracy, 4),
                        fmt_double(report.baseline_accuracy, 4)});
  }
  return {doc};
}

std::vector<CsvDocument> csv_of(const ExperimentSpec& spec,
                                const MitigationReport& report) {
  CsvDocument doc;
  doc.file_stem = "fig8_mitigation";
  doc.header = {"model", "variant", "baseline", "min", "q1",
                "median", "q3",     "max",      "mean"};
  const std::string model = nn::to_string(spec.model);
  for (const auto& outcome : report.outcomes) {
    doc.rows.push_back({model, outcome.variant.name,
                        fmt_double(outcome.baseline_accuracy, 4),
                        fmt_double(outcome.under_attack.min, 4),
                        fmt_double(outcome.under_attack.q1, 4),
                        fmt_double(outcome.under_attack.median, 4),
                        fmt_double(outcome.under_attack.q3, 4),
                        fmt_double(outcome.under_attack.max, 4),
                        fmt_double(outcome.under_attack.mean, 4)});
  }
  return {doc};
}

std::vector<CsvDocument> csv_of(const ExperimentSpec& spec,
                                const RobustComparisonReport& report) {
  CsvDocument doc;
  doc.file_stem = "fig9_robust";
  doc.header = {"model",      "robust_variant", "vector",
                "fraction",   "orig_min",       "orig_max",
                "robust_min", "robust_max",     "recovered_worst_case"};
  const std::string model = nn::to_string(spec.model);
  for (const auto& cell : report.cells) {
    doc.rows.push_back(
        {model, report.robust_variant_name, attack::to_string(cell.vector),
         fmt_double(cell.fraction, 2), fmt_double(cell.original.min, 4),
         fmt_double(cell.original.max, 4), fmt_double(cell.robust.min, 4),
         fmt_double(cell.robust.max, 4), fmt_double(cell.recovered(), 4)});
  }
  return {doc};
}

std::vector<CsvDocument> csv_of(const ExperimentSpec& spec,
                                const DetectionReport& report) {
  CsvDocument scores;
  scores.file_stem = "fig_detection";
  scores.header = {"model",    "run",   "clean",   "vector",
                   "target",   "fraction", "seed", "detector",
                   "score",    "flagged",  "probes", "first_flag_probe"};
  const std::string model = nn::to_string(spec.model);
  for (const auto& row : report.rows) {
    scores.rows.push_back(
        {model, row.run_id, row.clean ? "1" : "0", scenario_vector_cell(row),
         scenario_target_cell(row), scenario_fraction_cell(row),
         scenario_seed_cell(row), row.detector, fmt_double(row.score, 6),
         row.flagged ? "1" : "0", std::to_string(row.probes),
         std::to_string(row.first_flag_probe)});
  }

  CsvDocument roc;
  roc.file_stem = "fig_detection_roc";
  roc.header = {"model", "detector", "threshold", "tpr", "fpr"};
  for (const std::string& detector : report.detectors) {
    const RocCurve curve = report.roc(detector);
    for (const auto& point : curve.points) {
      roc.rows.push_back({model, detector, fmt_double(point.threshold, 6),
                          fmt_double(point.tpr, 4), fmt_double(point.fpr, 4)});
    }
  }
  return {scores, roc};
}

std::vector<CsvDocument> csv_of(const ExperimentSpec& spec,
                                const CampaignSweepReport& report) {
  CsvDocument phases;
  phases.file_stem = "fig_campaign_phases";
  phases.header = {"model",  "campaign", "phase",    "name", "active",
                   "checks", "accuracy", "baseline", "drop"};
  CsvDocument cells;
  cells.file_stem = "fig_campaign";
  cells.header = {"model", "campaign", "phase",   "check",
                  "detector", "score", "flagged"};
  const std::string model = nn::to_string(spec.model);
  for (const auto& result : report.campaigns) {
    for (std::size_t pi = 0; pi < result.phases.size(); ++pi) {
      const auto& phase = result.phases[pi];
      phases.rows.push_back(
          {model, result.campaign, std::to_string(pi), phase.name,
           phase.active ? "1" : "0", std::to_string(phase.checks),
           fmt_double(phase.accuracy, 4),
           fmt_double(result.baseline_accuracy, 4),
           fmt_double(result.accuracy_drop(pi), 4)});
    }
    for (const auto& cell : result.cells) {
      cells.rows.push_back({model, result.campaign, std::to_string(cell.phase),
                            std::to_string(cell.check), cell.detector,
                            fmt_double(cell.score, 6),
                            cell.flagged ? "1" : "0"});
    }
  }
  return {phases, cells};
}

// ---------------------------------------------------------------------------
// JSON serialization. Deterministic by construction: fixed key order, fixed
// double precision, no wall-clock or cache-hit fields (those stay on
// stdout); the susceptibility document is golden-pinned at tiny scale.
// ---------------------------------------------------------------------------

void box_stats_json(JsonWriter& json, const BoxStats& stats) {
  json.begin_object();
  json.key("min").value(stats.min);
  json.key("q1").value(stats.q1);
  json.key("median").value(stats.median);
  json.key("q3").value(stats.q3);
  json.key("max").value(stats.max);
  json.key("mean").value(stats.mean);
  json.end_object();
}

void json_of(JsonWriter& json, const SusceptibilityReport& report) {
  json.key("baseline_accuracy").value(report.baseline_accuracy);
  json.key("rows").begin_array();
  for (const auto& row : report.rows) {
    json.begin_object();
    json.key("vector").value(attack::to_string(row.scenario.vector));
    json.key("target").value(attack::to_string(row.scenario.target));
    json.key("fraction").value(row.scenario.fraction, 2);
    json.key("seed").value(static_cast<std::uint64_t>(row.scenario.seed));
    json.key("accuracy").value(row.accuracy);
    json.end_object();
  }
  json.end_array();
  json.key("groups").begin_array();
  for (const auto& group : report.groups) {
    json.begin_object();
    json.key("vector").value(attack::to_string(group.vector));
    json.key("target").value(attack::to_string(group.target));
    json.key("fraction").value(group.fraction, 2);
    json.key("accuracy");
    box_stats_json(json, group.accuracy);
    json.key("worst_drop").value(report.baseline_accuracy -
                                 group.accuracy.min);
    json.end_object();
  }
  json.end_array();
}

void json_of(JsonWriter& json, const MitigationReport& report) {
  json.key("original_baseline").value(report.original_baseline);
  json.key("best_robust").value(report.best_robust().variant.name);
  json.key("outcomes").begin_array();
  for (const auto& outcome : report.outcomes) {
    json.begin_object();
    json.key("variant").value(outcome.variant.name);
    json.key("baseline_accuracy").value(outcome.baseline_accuracy);
    json.key("under_attack");
    box_stats_json(json, outcome.under_attack);
    json.end_object();
  }
  json.end_array();
}

void json_of(JsonWriter& json, const RobustComparisonReport& report) {
  json.key("robust_variant").value(report.robust_variant_name);
  json.key("original_baseline").value(report.original_baseline);
  json.key("robust_baseline").value(report.robust_baseline);
  json.key("cells").begin_array();
  for (const auto& cell : report.cells) {
    json.begin_object();
    json.key("vector").value(attack::to_string(cell.vector));
    json.key("fraction").value(cell.fraction, 2);
    json.key("original");
    box_stats_json(json, cell.original);
    json.key("robust");
    box_stats_json(json, cell.robust);
    json.key("original_drop").value(
        cell.original_drop(report.original_baseline));
    json.key("recovered").value(cell.recovered());
    json.end_object();
  }
  json.end_array();
}

void json_of(JsonWriter& json, const DetectionReport& report) {
  json.key("variant").value(report.variant);
  json.key("clean_runs").value(report.clean_runs);
  json.key("detectors").begin_array();
  for (const std::string& name : report.detectors) json.value(name);
  json.end_array();
  json.key("rows").begin_array();
  for (const auto& row : report.rows) {
    json.begin_object();
    json.key("run").value(row.run_id);
    json.key("clean").value(row.clean);
    if (!row.clean) {
      json.key("vector").value(attack::to_string(row.scenario.vector));
      json.key("target").value(attack::to_string(row.scenario.target));
      json.key("fraction").value(row.scenario.fraction, 2);
      json.key("seed").value(static_cast<std::uint64_t>(row.scenario.seed));
    }
    json.key("detector").value(row.detector);
    json.key("score").value(row.score);
    json.key("flagged").value(row.flagged);
    json.key("probes").value(row.probes);
    json.key("first_flag_probe").value(row.first_flag_probe);
    json.end_object();
  }
  json.end_array();
  json.key("roc").begin_array();
  for (const std::string& detector : report.detectors) {
    const RocCurve curve = report.roc(detector);
    json.begin_object();
    json.key("detector").value(detector);
    json.key("auc").value(curve.auc);
    json.key("points").begin_array();
    for (const auto& point : curve.points) {
      json.begin_object();
      json.key("threshold").value(point.threshold);
      json.key("tpr").value(point.tpr, 4);
      json.key("fpr").value(point.fpr, 4);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
}

void json_of(JsonWriter& json, const CampaignSweepReport& report) {
  json.key("variant").value(report.variant);
  json.key("campaigns").begin_array();
  for (const auto& result : report.campaigns) {
    bool has_active = false;
    for (const auto& phase : result.phases) {
      has_active = has_active || phase.active;
    }
    json.begin_object();
    json.key("campaign").value(result.campaign);
    json.key("campaign_id").value(result.campaign_id);
    json.key("baseline_accuracy").value(result.baseline_accuracy);
    json.key("phases").begin_array();
    for (std::size_t pi = 0; pi < result.phases.size(); ++pi) {
      const auto& phase = result.phases[pi];
      json.begin_object();
      json.key("name").value(phase.name);
      json.key("active").value(phase.active);
      json.key("checks").value(phase.checks);
      json.key("accuracy").value(phase.accuracy);
      json.key("drop").value(result.accuracy_drop(pi));
      json.end_object();
    }
    json.end_array();
    json.key("detectors").begin_array();
    for (const std::string& detector : result.detectors) {
      json.begin_object();
      json.key("detector").value(detector);
      json.key("evasion_rate");
      // A dormant-only campaign has no active phase to evade.
      if (has_active) {
        json.value(result.evasion_rate(detector));
      } else {
        json.null_value();
      }
      json.key("latency_checks")
          .value(result.detection_latency_checks(detector));
      json.end_object();
    }
    json.end_array();
    json.key("cells").begin_array();
    for (const auto& cell : result.cells) {
      json.begin_object();
      json.key("phase").value(cell.phase);
      json.key("check").value(cell.check);
      json.key("detector").value(cell.detector);
      json.key("score").value(cell.score);
      json.key("flagged").value(cell.flagged);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
}

}  // namespace

ExperimentSetup ExperimentSpec::resolved_setup() const {
  return experiment_setup(model, scale);
}

VariantSpec ExperimentSpec::resolved_variant() const {
  return variant_by_name(variant, l2_strength);
}

void ExperimentSpec::validate() const {
  require(seed_count >= 1,
          "ExperimentSpec: seed_count must be >= 1 (got " +
              std::to_string(seed_count) +
              "); start from ExperimentRegistry::default_spec(\"" +
              experiment + "\") or set it explicitly");
  require(clean_runs >= 1,
          "ExperimentSpec: clean_runs must be >= 1 — the detection sweep "
          "needs clean deployments for its ROC negative class");
  // Unknown variant names throw here (with the valid names listed) instead
  // of deep inside a sweep after minutes of training.
  variant_by_name(variant, l2_strength);
  if (!robust_variant.empty()) variant_by_name(robust_variant, l2_strength);
}

RunContext::RunContext(ModelZoo& zoo)
    : evaluate([this](const ExperimentSpec& resolved,
                      const ExperimentSetup& setup,
                      const std::vector<PreparedSweep>& prepared) {
        evaluate_sweeps(resolved, setup, *this, prepared);
      }),
      zoo_(&zoo) {}

ExperimentResult ExperimentRegistry::run(const ExperimentSpec& spec,
                                         RunContext& context) const {
  const ExperimentInfo& entry = info(spec.experiment);
  spec.validate();
  context.throw_if_cancelled(spec.experiment);
  const auto start = std::chrono::steady_clock::now();
  const ExperimentSpec resolved =
      entry.resolve ? entry.resolve(spec, context) : spec;
  const std::vector<CellSweep> sweeps = entry.sweeps(resolved);
  const ExperimentSetup setup = resolved.resolved_setup();
  std::vector<PreparedSweep> prepared;
  prepared.reserve(sweeps.size());
  // (store, cell id) pairs already pending: two sweeps of one store (e.g.
  // robust_compare pinned to Original) hand each cell over once.
  std::set<std::pair<const ResultStore*, std::string>> handed;
  for (std::size_t s = 0; s < sweeps.size(); ++s) {
    context.throw_if_cancelled(spec.experiment);
    const std::string stage = setup.tag() + " / " + sweeps[s].variant.name;
    context.note(spec.experiment + ": sweep " + stage);
    if (resolved.verbose) {
      std::printf("[%s] %s\n", spec.experiment.c_str(), stage.c_str());
      std::fflush(stdout);
    }
    PreparedSweep& sweep = prepared.emplace_back(
        prepare_sweep(resolved, setup, context, sweeps[s], s));
    std::erase_if(sweep.pending, [&](std::size_t i) {
      return !handed.emplace(sweep.store.get(), sweeps[s].cells[i].id).second;
    });
  }
  context.evaluate(resolved, setup, prepared);
  std::vector<std::vector<SweptCell>> swept;
  swept.reserve(prepared.size());
  for (const PreparedSweep& sweep : prepared) {
    swept.push_back(collect_sweep(sweep));
  }

  ExperimentResult result;
  result.experiment = spec.experiment;
  result.spec = spec;
  result.payload = entry.assemble(resolved, sweeps, swept);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

void ExperimentRegistry::add(ExperimentInfo info) {
  require(!info.name.empty(), "ExperimentRegistry: experiment needs a name");
  require(static_cast<bool>(info.sweeps) && static_cast<bool>(info.assemble),
          "ExperimentRegistry: experiment '" + info.name +
              "' needs sweeps and assemble functions");
  require(!contains(info.name),
          "ExperimentRegistry: experiment '" + info.name +
              "' is already registered");
  experiments_.push_back(std::move(info));
}

std::vector<std::string> ExperimentRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(experiments_.size());
  for (const auto& entry : experiments_) out.push_back(entry.name);
  return out;
}

bool ExperimentRegistry::contains(const std::string& name) const {
  for (const auto& entry : experiments_) {
    if (entry.name == name) return true;
  }
  return false;
}

const ExperimentInfo& ExperimentRegistry::info(const std::string& name) const {
  for (const auto& entry : experiments_) {
    if (entry.name == name) return entry;
  }
  std::string known;
  for (const auto& entry : experiments_) {
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  fail_argument("ExperimentRegistry: unknown experiment '" + name +
                "' (registered: " + known + ")");
}

ExperimentSpec ExperimentRegistry::default_spec(const std::string& name) const {
  const ExperimentInfo& entry = info(name);
  ExperimentSpec spec;
  spec.experiment = entry.name;
  spec.seed_count = entry.default_seed_count;
  return spec;
}

ExperimentRegistry& ExperimentRegistry::global() {
  static ExperimentRegistry* registry = [] {
    auto* r = new ExperimentRegistry();
    r->add({"susceptibility",
            "attack grid vs. the Original variant (Fig. 7)",
            /*default_seed_count=*/10,
            {"fig7_susceptibility"},
            susceptibility_sweeps,
            assemble_susceptibility});
    r->add({"mitigation",
            "all 11 training variants under the attack grid (Fig. 8)",
            /*default_seed_count=*/3,
            {"fig8_mitigation"},
            mitigation_sweeps,
            assemble_mitigation});
    r->add({"robust_compare",
            "most robust variant vs. Original, CONV+FC attacks (Fig. 9)",
            /*default_seed_count=*/5,
            {"fig9_robust"},
            robust_compare_sweeps,
            assemble_robust_compare,
            resolve_robust_compare});
    r->add({"detection",
            "runtime detector ROC sweep over clean runs + the attack grid",
            /*default_seed_count=*/3,
            {"fig_detection", "fig_detection_roc"},
            detection_sweeps,
            assemble_detection});
    r->add({"campaign",
            "adaptive multi-phase red-team campaigns vs. the defense suite",
            /*default_seed_count=*/1,
            {"fig_campaign_phases", "fig_campaign"},
            campaign_sweeps,
            assemble_campaign});
    return r;
  }();
  return *registry;
}

std::vector<CsvDocument> ExperimentResult::to_csv() const {
  return std::visit([this](const auto& report) { return csv_of(spec, report); },
                    payload);
}

std::string ExperimentResult::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("experiment").value(experiment);
  json.key("model").value(nn::to_string(spec.model));
  json.key("scale").value(to_string(spec.scale));
  json.key("seed_count").value(spec.seed_count);
  json.key("base_seed").value(static_cast<std::uint64_t>(spec.base_seed));
  json.key("report").begin_object();
  std::visit([&json](const auto& report) { json_of(json, report); }, payload);
  json.end_object();
  json.end_object();
  return std::move(json).str();
}

}  // namespace safelight::core
