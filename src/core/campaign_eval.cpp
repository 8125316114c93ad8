#include "core/campaign_eval.hpp"

#include "core/experiment.hpp"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/evaluation.hpp"
#include "core/result_store.hpp"

namespace safelight::core {

namespace {

/// One fan-out unit: a phase of one campaign.
struct PhaseTask {
  std::size_t campaign = 0;
  std::size_t phase = 0;
};

/// Probe seed of one (campaign, phase, check) cell, derived from its full
/// key so every check reads independent sensor noise and a cached score is
/// a pure function of the key.
std::uint64_t probe_seed_of(const std::string& key) {
  Fingerprint fp;
  fp.mix_bytes(key.data(), key.size());
  return splitmix64(fp.value());
}

/// Accuracy store key of a phase: composite-id based, so campaigns sharing
/// a composite (a burst equal to a ramp's peak) share the cached entry.
std::string accuracy_key(const attack::CampaignPhase& phase,
                         std::size_t eval_count) {
  return "acc/" + (phase.active() ? phase.attack.id() : "baseline") + "/n" +
         std::to_string(eval_count);
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
  /// `spec` must outlive the evaluator; it supplies the suite config,
  /// calibration seed, corruption physics and verbosity.
  CampaignEvaluator(const ExperimentSetup& setup,
                    std::unique_ptr<nn::Sequential> model,
                    const VariantSpec& variant, const ExperimentSpec& spec)
      : setup_(setup),
        model_(std::move(model)),
        spec_(spec),
        evaluator_(setup, *model_, variant.name, "", spec.corruption),
        suite_(setup, spec.suite) {
    const defense::DeploymentView clean{
        *model_, evaluator_.executor(), nullptr,
        seed_combine(spec_.base_seed, 0xCA11B)};
    suite_.calibrate(clean);
  }

  /// Evaluates one phase: accuracy (through the composite-id cache) plus
  /// `phase.checks` full suite checks against the compromised deployment.
  void run_phase(const attack::CampaignSchedule& schedule,
                 const std::string& campaign_id, std::size_t phase_index,
                 ResultStore& store) {
    const attack::CampaignPhase& phase = schedule.phases[phase_index];

    // The composite corrupts the deployment once; the accuracy measurement
    // and every check of the phase then observe the same compromised state
    // (evaluate_applied does not touch the weights).
    std::vector<attack::BlockThermalState> telemetry;
    if (phase.active()) {
      evaluator_.apply_composite(phase.attack);
      telemetry = defense::composite_telemetry(setup_.accelerator,
                                               phase.attack, spec_.corruption);
    } else {
      evaluator_.restore_clean();
    }
    const std::string acc_key = accuracy_key(phase, setup_.eval_count);
    if (!store.contains(acc_key)) {
      const double accuracy =
          phase.active() ? evaluator_.evaluate_applied(phase.attack.id())
                         : evaluator_.baseline_accuracy();
      store.put(acc_key, accuracy);
    }
    const defense::DeploymentView view{
        *model_, evaluator_.executor(),
        telemetry.empty() ? nullptr : &telemetry, 0};
    for (std::size_t check = 0; check < phase.checks; ++check) {
      defense::DeploymentView check_view = view;
      check_view.probe_seed = probe_seed_of(
          score_key(campaign_id, phase_index, check, "suite"));
      const std::vector<defense::DetectionResult> results =
          suite_.check_all(check_view);
      for (const defense::DetectionResult& r : results) {
        store.put(score_key(campaign_id, phase_index, check, r.detector),
                  r.score);
        if (spec_.verbose) {
          std::printf("  [campaign] %-24s p%zu k%zu %-16s score %.4f%s\n",
                      schedule.name.c_str(), phase_index, check,
                      r.detector.c_str(), r.score,
                      r.flagged ? "  FLAGGED" : "");
          std::fflush(stdout);
        }
      }
    }
    evaluator_.restore_clean();
  }

 private:
  ExperimentSetup setup_;
  std::unique_ptr<nn::Sequential> model_;
  const ExperimentSpec& spec_;
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

/// The sweep proper, in the unified-API shape: spec in, typed report out.
CampaignSweepReport campaign_impl(const ExperimentSpec& spec,
                                  RunContext& context) {
  const ExperimentSetup setup = spec.resolved_setup();
  ModelZoo& zoo = context.zoo();
  const VariantSpec variant = spec.resolved_variant();
  const std::vector<attack::CampaignSchedule> campaigns =
      spec.campaigns.empty() ? attack::standard_campaigns() : spec.campaigns;
  context.note("campaign: sweep " + setup.tag() + " / " + variant.name);

  const auto start = std::chrono::steady_clock::now();
  require(!campaigns.empty(), "campaign: need >= 1 campaign");
  std::vector<std::string> campaign_ids;
  campaign_ids.reserve(campaigns.size());
  std::set<std::string> distinct_ids;
  for (const attack::CampaignSchedule& schedule : campaigns) {
    schedule.validate();
    campaign_ids.push_back(schedule.id());
    require(distinct_ids.insert(campaign_ids.back()).second,
            "campaign: duplicate campaign '" +
                campaign_ids.back() + "'");
  }

  // Train (or load) on the calling thread; workers only load cache entries.
  auto model = zoo.get_or_train(setup, variant, spec.verbose);
  const std::string checksum = weights_checksum(*model);

  // Names and default thresholds for report assembly; workers calibrate
  // their own identical suites.
  defense::DetectorSuite reference(setup, spec.suite);
  const std::vector<std::string> detector_names = reference.names();

  std::string csv_path;
  if (!spec.cache_dir.empty()) {
    std::filesystem::create_directories(spec.cache_dir);
    csv_path = spec.cache_dir + "/" + setup.tag() + "_" + variant.name + "_" +
               checksum + "_" + attack::config_fingerprint(spec.corruption) +
               "_" + defense::config_fingerprint(spec.suite) + ".campaign.csv";
  }
  ResultStore store(csv_path);

  // Pending phases: any missing key (accuracy or a score cell) re-evaluates
  // the whole phase — an interrupt can land between the per-cell flushes,
  // and a partially stored phase must re-check rather than crash assembly.
  const auto fully_stored = [&](std::size_t ci, std::size_t pi) {
    const attack::CampaignPhase& phase = campaigns[ci].phases[pi];
    if (!store.contains(accuracy_key(phase, setup.eval_count))) return false;
    for (std::size_t check = 0; check < phase.checks; ++check) {
      for (const std::string& name : detector_names) {
        if (!store.contains(score_key(campaign_ids[ci], pi, check, name))) {
          return false;
        }
      }
    }
    return true;
  };
  std::vector<PhaseTask> pending;
  for (std::size_t ci = 0; ci < campaigns.size(); ++ci) {
    for (std::size_t pi = 0; pi < campaigns[ci].phases.size(); ++pi) {
      if (!fully_stored(ci, pi)) pending.push_back({ci, pi});
    }
  }

  parallel_claim<CampaignEvaluator>(
      pending.size(), spec.max_workers,
      [&] {
        // Phase evaluation corrupts and restores model weights, so every
        // thread deploys a private copy (a zoo cache load).
        return std::make_unique<CampaignEvaluator>(
            setup, zoo.get_or_train(setup, variant, false), variant, spec);
      },
      [&](CampaignEvaluator& evaluator, std::size_t p) {
        const PhaseTask& task = pending[p];
        evaluator.run_phase(campaigns[task.campaign],
                            campaign_ids[task.campaign], task.phase, store);
      });

  // Assemble in campaign/phase order; execution order never leaks out.
  std::set<std::pair<std::size_t, std::size_t>> fresh;
  for (const PhaseTask& task : pending) {
    fresh.insert({task.campaign, task.phase});
  }
  CampaignSweepReport report;
  report.variant = variant.name;
  report.evaluated = pending.size();
  report.campaigns.reserve(campaigns.size());
  const std::string baseline_key = "acc/baseline/n" +
                                   std::to_string(setup.eval_count);
  for (std::size_t ci = 0; ci < campaigns.size(); ++ci) {
    const attack::CampaignSchedule& schedule = campaigns[ci];
    CampaignResult result;
    result.campaign = schedule.name;
    result.campaign_id = campaign_ids[ci];
    result.detectors = detector_names;
    if (const auto cached = store.lookup(baseline_key)) {
      result.baseline_accuracy = *cached;
    } else {
      // Every phase was active, so no dormant phase stored the baseline:
      // one clean evaluation fills it in. *model is still unconditioned:
      // every phase ran on a private copy.
      AttackEvaluator evaluator(setup, *model, variant.name, "",
                                spec.corruption);
      result.baseline_accuracy = evaluator.baseline_accuracy();
      store.put(baseline_key, result.baseline_accuracy);
    }
    for (std::size_t pi = 0; pi < schedule.phases.size(); ++pi) {
      const attack::CampaignPhase& phase = schedule.phases[pi];
      const bool from_cache = fresh.count({ci, pi}) == 0;
      if (from_cache) ++report.cache_hits;
      const auto accuracy = store.lookup(accuracy_key(phase, setup.eval_count));
      SAFELIGHT_ASSERT(accuracy.has_value(),
                       "campaign sweep: accuracy missing after fan-out");
      CampaignPhaseOutcome outcome;
      outcome.name = phase.name;
      outcome.active = phase.active();
      outcome.checks = phase.checks;
      outcome.accuracy = *accuracy;
      result.phases.push_back(outcome);
      for (std::size_t check = 0; check < phase.checks; ++check) {
        for (const std::string& name : detector_names) {
          const auto score =
              store.lookup(score_key(campaign_ids[ci], pi, check, name));
          SAFELIGHT_ASSERT(score.has_value(),
                           "campaign sweep: score missing after fan-out");
          CampaignCell cell;
          cell.phase = pi;
          cell.check = check;
          cell.detector = name;
          cell.score = *score;
          cell.flagged = *score > reference.detector(name).threshold();
          cell.from_cache = from_cache;
          result.cells.push_back(std::move(cell));
        }
      }
    }
    report.campaigns.push_back(std::move(result));
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

}  // namespace

ExperimentResult run_campaign_experiment(const ExperimentSpec& spec,
                                         RunContext& context) {
  spec.validate();  // callers may invoke this runner without the registry
  ExperimentResult result;
  result.payload = campaign_impl(spec, context);
  return result;
}

}  // namespace safelight::core
