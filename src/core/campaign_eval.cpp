#include "core/campaign_eval.hpp"

#include "core/experiment.hpp"

#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "common/error.hpp"
#include "common/trace.hpp"
#include "core/pipeline.hpp"

namespace safelight::core {

namespace {

/// Accuracy store key of a composite (or "baseline" for the clean
/// deployment), which is also the id of its accuracy cell: composite-id
/// based, so campaigns sharing a composite (a burst equal to a ramp's
/// peak) share one cell and one stored entry.
std::string accuracy_key(const std::string& composite_id,
                         std::size_t eval_count) {
  return "acc/" + composite_id + "/n" + std::to_string(eval_count);
}

std::string phase_cell_id(const std::string& campaign_id, std::size_t phase) {
  return campaign_id + "/p" + std::to_string(phase);
}

std::string score_key(const std::string& campaign_id, std::size_t phase,
                      std::size_t check, const std::string& detector) {
  return phase_cell_id(campaign_id, phase) + "/k" + std::to_string(check) +
         "/" + detector + "/score";
}

/// Evaluates one accuracy cell: the deployment's accuracy under
/// `composite`, or the clean baseline when it is null.
void measure_accuracy(Deployment& deployment,
                      const attack::CompositeScenario* composite,
                      ResultStore& store) {
  AttackEvaluator& evaluator = deployment.evaluator;
  const std::string id = composite ? composite->id() : "baseline";
  trace::Span accuracy_span("campaign", "campaign.accuracy");
  if (accuracy_span.active()) accuracy_span.arg("composite", id);
  store.put(accuracy_key(id, evaluator.setup().eval_count),
            composite ? evaluator.evaluate_composite(*composite)
                      : evaluator.baseline_accuracy());
}

/// Evaluates one phase cell: `phase.checks` full suite checks against the
/// deployment while the phase runs. An active phase's composite corrupts
/// the deployment once and every check observes that compromised state; a
/// dormant phase runs clean.
void check_phase(Deployment& deployment,
                 const attack::CampaignSchedule& schedule,
                 std::size_t phase_index, bool verbose,
                 ResultStore& store) {
  const attack::CampaignPhase& phase = schedule.phases[phase_index];
  const std::string campaign_id = schedule.id();
  trace::Span phase_span("campaign", "campaign.phase");
  if (phase_span.active()) {
    phase_span.arg("campaign", schedule.name)
        .arg("phase", static_cast<double>(phase_index))
        .arg("active", static_cast<double>(phase.active()));
  }
  AttackEvaluator& evaluator = deployment.evaluator;
  const std::vector<attack::BlockThermalState>* thermal = nullptr;
  if (phase.active()) {
    thermal = &evaluator.apply_composite(phase.attack).thermal;
  } else {
    evaluator.restore_clean();
  }
  std::vector<std::pair<std::string, double>> rows;
  for (std::size_t check = 0; check < phase.checks; ++check) {
    const defense::DeploymentView view{
        *deployment.model, evaluator.executor(), thermal,
        defense::probe_seed_of(
            score_key(campaign_id, phase_index, check, "suite"))};
    for (const defense::DetectionResult& r :
         deployment.suite->check_all(view)) {
      rows.emplace_back(score_key(campaign_id, phase_index, check, r.detector),
                        r.score);
      if (verbose) {
        std::printf("  [campaign] %-24s p%zu k%zu %-16s score %.4f%s\n",
                    schedule.name.c_str(), phase_index, check,
                    r.detector.c_str(), r.score, r.flagged ? "  FLAGGED" : "");
        std::fflush(stdout);
      }
    }
  }
  evaluator.restore_clean();
  store.put(rows);
}

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
  auto campaigns =
      std::make_shared<const std::vector<attack::CampaignSchedule>>(
          campaigns_of(spec));
  require(!campaigns->empty(), "campaign: need >= 1 campaign");
  const std::vector<std::string> detector_names =
      defense::DetectorSuite(setup, spec.suite).names();

  // Cell 0 is the clean baseline, then one accuracy cell per distinct
  // active composite in first-use order, then one cell per phase holding
  // its (check, detector) scores; evaluations[i] fills cells[i].
  std::vector<SweepCell> cells{
      {"baseline", {accuracy_key("baseline", setup.eval_count)}}};
  auto evaluations = std::make_shared<
      std::vector<std::function<void(Deployment&, ResultStore&)>>>();
  evaluations->push_back([](Deployment& deployment, ResultStore& store) {
    measure_accuracy(deployment, nullptr, store);
  });
  std::set<std::string> campaign_ids;
  std::set<std::string> accuracy_ids;
  for (std::size_t ci = 0; ci < campaigns->size(); ++ci) {
    const attack::CampaignSchedule& schedule = (*campaigns)[ci];
    schedule.validate();
    require(campaign_ids.insert(schedule.id()).second,
            "campaign: duplicate campaign '" + schedule.id() + "'");
    for (std::size_t pi = 0; pi < schedule.phases.size(); ++pi) {
      const attack::CampaignPhase& phase = schedule.phases[pi];
      if (!phase.active()) continue;
      std::string id = accuracy_key(phase.attack.id(), setup.eval_count);
      if (accuracy_ids.insert(id).second) {
        cells.push_back({id, {id}});
        evaluations->push_back([campaigns, ci, pi](Deployment& deployment,
                                                   ResultStore& store) {
          measure_accuracy(deployment, &(*campaigns)[ci].phases[pi].attack,
                           store);
        });
      }
    }
  }
  for (std::size_t ci = 0; ci < campaigns->size(); ++ci) {
    const attack::CampaignSchedule& schedule = (*campaigns)[ci];
    const std::string campaign_id = schedule.id();
    for (std::size_t pi = 0; pi < schedule.phases.size(); ++pi) {
      SweepCell cell{phase_cell_id(campaign_id, pi), {}};
      for (std::size_t check = 0; check < schedule.phases[pi].checks;
           ++check) {
        for (const std::string& name : detector_names) {
          cell.keys.push_back(score_key(campaign_id, pi, check, name));
        }
      }
      cells.push_back(std::move(cell));
      evaluations->push_back(
          [campaigns, ci, pi, verbose = spec.verbose](Deployment& deployment,
                                                      ResultStore& store) {
            check_phase(deployment, (*campaigns)[ci], pi, verbose, store);
          });
    }
  }

  std::string suffix = "_";  // "_" + fp trips a GCC 12 -Wrestrict bug
  suffix += defense::config_fingerprint(spec.suite) + ".campaign.csv";
  return {{spec.resolved_variant(), suffix, std::move(cells),
           /*detectors=*/true,
           [evaluations](Deployment& deployment, std::size_t i,
                         ResultStore& store) {
             (*evaluations)[i](deployment, store);
           }}};
}

ExperimentResult::Payload assemble_campaign(
    const ExperimentSpec& spec, const std::vector<CellSweep>& sweeps,
    const std::vector<std::vector<SweptCell>>& swept_sweeps) {
  const ExperimentSetup setup = spec.resolved_setup();
  const std::vector<attack::CampaignSchedule> campaigns = campaigns_of(spec);

  // Names and default thresholds for report assembly; each deployment
  // calibrates its own identical suite.
  defense::DetectorSuite reference(setup, spec.suite);
  const std::vector<std::string> detector_names = reference.names();
  const CellSweep& sweep = sweeps.at(0);
  const std::vector<SweptCell>& swept = swept_sweeps.at(0);
  std::map<std::string, const SweptCell*> by_id;
  for (std::size_t i = 0; i < swept.size(); ++i) {
    by_id.emplace(sweep.cells[i].id, &swept[i]);
  }

  // Assemble in campaign/phase order; execution order never leaks out. A
  // phase's accuracy is its composite's cell (the baseline when dormant).
  CampaignSweepReport report;
  report.variant = sweep.variant.name;
  report.campaigns.reserve(campaigns.size());
  const double baseline = swept[0].values[0];
  for (const attack::CampaignSchedule& schedule : campaigns) {
    CampaignResult result;
    result.campaign = schedule.name;
    result.campaign_id = schedule.id();
    result.detectors = detector_names;
    result.baseline_accuracy = baseline;
    for (std::size_t pi = 0; pi < schedule.phases.size(); ++pi) {
      const attack::CampaignPhase& phase = schedule.phases[pi];
      const SweptCell& swept_phase =
          *by_id.at(phase_cell_id(result.campaign_id, pi));
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
          phase.active()
              ? by_id.at(accuracy_key(phase.attack.id(), setup.eval_count))
                    ->values[0]
              : baseline;
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

  return report;
}

}  // namespace safelight::core
