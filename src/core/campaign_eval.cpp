#include "core/campaign_eval.hpp"

#include "core/experiment.hpp"

#include <cstdio>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"

namespace safelight::core {

namespace {

/// One fan-out unit: a phase of one campaign.
struct PhaseTask {
  std::size_t campaign = 0;
  std::size_t phase = 0;
};

/// Accuracy store key of a composite (or "baseline" for the clean
/// deployment): composite-id based, so campaigns sharing a composite (a
/// burst equal to a ramp's peak) share the cached entry.
std::string accuracy_key(const std::string& composite_id,
                         std::size_t eval_count) {
  return "acc/" + composite_id + "/n" + std::to_string(eval_count);
}

std::string score_key(const std::string& campaign_id, std::size_t phase,
                      std::size_t check, const std::string& detector) {
  return campaign_id + "/p" + std::to_string(phase) + "/k" +
         std::to_string(check) + "/" + detector + "/score";
}

/// Per-thread campaign engine: one conditioned private deployment hosting
/// both the accuracy evaluator (prefix-cache aware) and a calibrated
/// detector suite. Calibration is deterministic in (setup, weights, suite
/// config, base_seed), so every thread's suite is identical and results
/// never depend on which thread evaluated which phase.
class CampaignEvaluator {
 public:
  /// `spec` supplies the suite config, calibration seed, corruption
  /// physics and verbosity.
  CampaignEvaluator(const ExperimentSetup& setup,
                    std::unique_ptr<nn::Sequential> model,
                    const VariantSpec& variant, const ExperimentSpec& spec)
      : setup_(setup),
        model_(std::move(model)),
        corruption_(spec.corruption),
        verbose_(spec.verbose),
        evaluator_(setup, *model_, variant.name, "", spec.corruption),
        suite_(setup, spec.suite) {
    const defense::DeploymentView clean{
        *model_, evaluator_.executor(), nullptr,
        seed_combine(spec.base_seed, 0xCA11B)};
    suite_.calibrate(clean);
  }

  /// Accuracy of the clean deployment (the sweep's baseline cell).
  double baseline_accuracy() { return evaluator_.baseline_accuracy(); }

  /// Evaluates one phase: an active phase's accuracy (through the
  /// composite-id cache) plus `phase.checks` full suite checks against the
  /// deployment. A dormant phase runs clean; its accuracy is the baseline.
  void run_phase(const attack::CampaignSchedule& schedule,
                 std::size_t phase_index, ResultStore& store) {
    const attack::CampaignPhase& phase = schedule.phases[phase_index];
    const std::string campaign_id = schedule.id();

    // The composite corrupts the deployment once; the accuracy measurement
    // and every check of the phase then observe the same compromised state
    // (evaluate_applied does not touch the weights).
    std::vector<attack::BlockThermalState> telemetry;
    std::vector<std::pair<std::string, double>> rows;
    if (phase.active()) {
      evaluator_.apply_composite(phase.attack);
      telemetry = defense::composite_telemetry(setup_.accelerator,
                                               phase.attack, corruption_);
      const std::string acc_key =
          accuracy_key(phase.attack.id(), setup_.eval_count);
      if (!store.contains(acc_key)) {
        store.put(acc_key, evaluator_.evaluate_applied(phase.attack.id()));
      }
    } else {
      evaluator_.restore_clean();
    }
    const defense::DeploymentView view{
        *model_, evaluator_.executor(),
        telemetry.empty() ? nullptr : &telemetry, 0};
    for (std::size_t check = 0; check < phase.checks; ++check) {
      defense::DeploymentView check_view = view;
      check_view.probe_seed = defense::probe_seed_of(
          score_key(campaign_id, phase_index, check, "suite"));
      const std::vector<defense::DetectionResult> results =
          suite_.check_all(check_view);
      for (const defense::DetectionResult& r : results) {
        rows.emplace_back(
            score_key(campaign_id, phase_index, check, r.detector), r.score);
        if (verbose_) {
          std::printf("  [campaign] %-24s p%zu k%zu %-16s score %.4f%s\n",
                      schedule.name.c_str(), phase_index, check,
                      r.detector.c_str(), r.score,
                      r.flagged ? "  FLAGGED" : "");
          std::fflush(stdout);
        }
      }
    }
    evaluator_.restore_clean();
    store.put(rows);
  }

 private:
  ExperimentSetup setup_;
  std::unique_ptr<nn::Sequential> model_;
  attack::CorruptionConfig corruption_;
  bool verbose_;
  AttackEvaluator evaluator_;
  defense::DetectorSuite suite_;
};

}  // namespace

const CampaignCell* CampaignResult::cell(std::size_t phase, std::size_t check,
                                         const std::string& detector) const {
  for (const CampaignCell& c : cells) {
    if (c.phase == phase && c.check == check && c.detector == detector) {
      return &c;
    }
  }
  return nullptr;
}

double CampaignResult::accuracy_drop(std::size_t phase) const {
  require(phase < phases.size(), "CampaignResult: phase out of range");
  return baseline_accuracy - phases[phase].accuracy;
}

bool CampaignResult::phase_flagged(std::size_t phase,
                                   const std::string& detector) const {
  require(phase < phases.size(), "CampaignResult: phase out of range");
  for (std::size_t check = 0; check < phases[phase].checks; ++check) {
    const CampaignCell* c = cell(phase, check, detector);
    if (c != nullptr && c->flagged) return true;
  }
  return false;
}

double CampaignResult::evasion_rate(const std::string& detector) const {
  std::size_t active = 0;
  std::size_t evaded = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (!phases[i].active) continue;
    ++active;
    if (!phase_flagged(i, detector)) ++evaded;
  }
  require(active > 0,
          "CampaignResult: no active phase to compute an evasion rate over");
  return static_cast<double>(evaded) / static_cast<double>(active);
}

std::size_t CampaignResult::detection_latency_checks(
    const std::string& detector) const {
  std::size_t first_active = phases.size();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (phases[i].active) {
      first_active = i;
      break;
    }
  }
  std::size_t elapsed = 0;
  for (std::size_t i = first_active; i < phases.size(); ++i) {
    for (std::size_t check = 0; check < phases[i].checks; ++check) {
      ++elapsed;
      if (!phases[i].active) continue;  // a dormant flag is a false positive
      const CampaignCell* c = cell(i, check, detector);
      if (c != nullptr && c->flagged) return elapsed;
    }
  }
  return 0;
}

namespace {

/// The schedules a campaign sweep runs: the spec's, or the standard set.
std::vector<attack::CampaignSchedule> campaigns_of(
    const ExperimentSpec& spec) {
  return spec.campaigns.empty() ? attack::standard_campaigns()
                                : spec.campaigns;
}

}  // namespace

std::vector<CellSweep> campaign_sweeps(const ExperimentSpec& spec) {
  const ExperimentSetup setup = spec.resolved_setup();
  const VariantSpec variant = spec.resolved_variant();
  auto campaigns =
      std::make_shared<const std::vector<attack::CampaignSchedule>>(
          campaigns_of(spec));
  require(!campaigns->empty(), "campaign: need >= 1 campaign");
  const std::vector<std::string> detector_names =
      defense::DetectorSuite(setup, spec.suite).names();

  // Cell 0 is the clean baseline (a dormant phase's accuracy); cell i > 0
  // is phase tasks[i - 1], filling its (check, detector) scores and, when
  // active, its composite's accuracy.
  std::vector<SweepCell> cells{
      {"baseline", {accuracy_key("baseline", setup.eval_count)}}};
  auto tasks = std::make_shared<std::vector<PhaseTask>>();
  std::set<std::string> distinct_ids;
  for (std::size_t ci = 0; ci < campaigns->size(); ++ci) {
    const attack::CampaignSchedule& schedule = (*campaigns)[ci];
    schedule.validate();
    const std::string campaign_id = schedule.id();
    require(distinct_ids.insert(campaign_id).second,
            "campaign: duplicate campaign '" + campaign_id + "'");
    for (std::size_t pi = 0; pi < schedule.phases.size(); ++pi) {
      const attack::CampaignPhase& phase = schedule.phases[pi];
      SweepCell cell{campaign_id + "/p" + std::to_string(pi), {}};
      for (std::size_t check = 0; check < phase.checks; ++check) {
        for (const std::string& name : detector_names) {
          cell.keys.push_back(score_key(campaign_id, pi, check, name));
        }
      }
      if (phase.active()) {
        cell.keys.push_back(accuracy_key(phase.attack.id(), setup.eval_count));
      }
      cells.push_back(std::move(cell));
      tasks->push_back({ci, pi});
    }
  }

  std::string suffix = "_";  // "_" + fp trips a GCC 12 -Wrestrict bug
  suffix += defense::config_fingerprint(spec.suite) + ".campaign.csv";
  return {cell_sweep<CampaignEvaluator>(
      variant, suffix, std::move(cells),
      [setup, variant, spec](std::unique_ptr<nn::Sequential> model) {
        return std::make_unique<CampaignEvaluator>(setup, std::move(model),
                                                   variant, spec);
      },
      [campaigns, tasks = std::shared_ptr<const std::vector<PhaseTask>>(tasks),
       eval_count = setup.eval_count](CampaignEvaluator& evaluator,
                                      std::size_t i, ResultStore& store) {
        if (i == 0) {
          store.put(accuracy_key("baseline", eval_count),
                    evaluator.baseline_accuracy());
          return;
        }
        const PhaseTask& task = (*tasks)[i - 1];
        evaluator.run_phase((*campaigns)[task.campaign], task.phase, store);
      })};
}

ExperimentResult run_campaign_experiment(const ExperimentSpec& spec,
                                         RunContext& context) {
  spec.validate();  // callers may invoke this runner without the registry
  const ExperimentSetup setup = spec.resolved_setup();
  const VariantSpec variant = spec.resolved_variant();
  const std::vector<attack::CampaignSchedule> campaigns = campaigns_of(spec);
  context.note("campaign: sweep " + setup.tag() + " / " + variant.name);

  // Names and default thresholds for report assembly; workers calibrate
  // their own identical suites.
  defense::DetectorSuite reference(setup, spec.suite);
  const std::vector<std::string> detector_names = reference.names();
  const std::vector<SweptCell> swept =
      sweep_cells(spec, context, campaign_sweeps(spec).at(0));

  // Assemble in campaign/phase order; execution order never leaks out.
  CampaignSweepReport report;
  report.variant = variant.name;
  report.campaigns.reserve(campaigns.size());
  const double baseline = swept[0].values[0];
  std::size_t i = 1;
  for (std::size_t ci = 0; ci < campaigns.size(); ++ci) {
    const attack::CampaignSchedule& schedule = campaigns[ci];
    CampaignResult result;
    result.campaign = schedule.name;
    result.campaign_id = schedule.id();
    result.detectors = detector_names;
    result.baseline_accuracy = baseline;
    for (std::size_t pi = 0; pi < schedule.phases.size(); ++pi, ++i) {
      const attack::CampaignPhase& phase = schedule.phases[pi];
      const SweptCell& swept_phase = swept[i];
      if (swept_phase.fresh) {
        ++report.evaluated;
      } else {
        ++report.cache_hits;
      }
      CampaignPhaseOutcome outcome;
      outcome.name = phase.name;
      outcome.active = phase.active();
      outcome.checks = phase.checks;
      outcome.accuracy =
          phase.active() ? swept_phase.values.back() : baseline;
      result.phases.push_back(outcome);
      for (std::size_t check = 0; check < phase.checks; ++check) {
        for (std::size_t d = 0; d < detector_names.size(); ++d) {
          CampaignCell cell;
          cell.phase = pi;
          cell.check = check;
          cell.detector = detector_names[d];
          cell.score = swept_phase.values[check * detector_names.size() + d];
          cell.flagged =
              cell.score > reference.detector(cell.detector).threshold();
          cell.from_cache = !swept_phase.fresh;
          result.cells.push_back(std::move(cell));
        }
      }
    }
    report.campaigns.push_back(std::move(result));
  }

  ExperimentResult result;
  result.payload = std::move(report);
  return result;
}

}  // namespace safelight::core
