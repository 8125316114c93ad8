// Runtime attack detection walk-through.
//
// Deploys CNN_1 on the accelerator, calibrates the detector suite (canary
// probes, read-out range monitor, thermal sentinels) on the clean
// deployment, then checks it against a clean re-check and a 10 % hotspot
// attack — and finishes with a miniature detection sweep that reports each
// detector's false-positive rate and AUC.
//
// Usage: attack_detection [cnn1|resnet18|vgg16v] [seeds]
// Defaults: cnn1, 2 seeds, tiny scale (override with SAFELIGHT_SCALE).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/config.hpp"
#include "common/csv.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "nn/serialize.hpp"

namespace sl = safelight;

namespace {

void print_results(const std::vector<sl::defense::DetectionResult>& results) {
  sl::core::TextTable table({"detector", "score", "verdict", "latency"});
  for (const auto& r : results) {
    table.add_row({r.detector, sl::fmt_double(r.score, 4),
                   r.flagged ? "FLAGGED" : "clean",
                   r.flagged ? std::to_string(r.first_flag_probe) + "/" +
                                   std::to_string(r.probes) + " probes"
                             : "-"});
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string model_name = argc > 1 ? argv[1] : "cnn1";
  const std::size_t seeds =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 2;

  const sl::nn::ModelId id = sl::nn::model_id_from_string(model_name);
  const sl::Scale scale = sl::config::scale() == sl::Scale::kDefault
                              ? sl::Scale::kTiny  // examples stay fast
                              : sl::config::scale();
  const sl::core::ExperimentSetup setup = sl::core::experiment_setup(id, scale);

  std::printf("SafeLight attack detection: %s at %s scale\n",
              model_name.c_str(), sl::to_string(scale).c_str());

  // Deploy: train/load, condition onto the MR banks, snapshot clean state.
  sl::core::ModelZoo zoo;
  auto model = zoo.get_or_train(setup, sl::core::variant_by_name("Original"),
                                /*verbose=*/true);
  sl::accel::OnnExecutor executor(setup.accelerator);
  executor.condition_weights(*model);
  sl::accel::WeightStationaryMapping mapping(*model, setup.accelerator);
  const auto clean_snapshot = sl::nn::snapshot_state(*model);

  // Calibrate the suite on the known-good deployment.
  sl::defense::DetectorSuite suite(setup);
  suite.calibrate({*model, executor, nullptr, /*probe_seed=*/1});

  std::printf("\n== clean re-check ==\n");
  print_results(suite.check_all({*model, executor, nullptr, 2}));

  // Implant a 10 % hotspot attack and re-check.
  sl::attack::AttackScenario scenario;
  scenario.vector = sl::attack::AttackVector::kHotspot;
  scenario.target = sl::attack::AttackTarget::kBothBlocks;
  scenario.fraction = 0.10;
  scenario.seed = 1234;
  sl::attack::apply_attack(mapping, scenario, {});
  const auto telemetry =
      sl::defense::scenario_telemetry(setup.accelerator, scenario);

  std::printf("== under 10%% hotspot attack (%s) ==\n",
              scenario.id().c_str());
  print_results(suite.check_all({*model, executor, &telemetry, 3}));
  sl::nn::restore_state(*model, clean_snapshot);

  // Miniature detection sweep: clean runs + both vectors at 5 %/10 %.
  std::printf("== detection sweep (%zu placements per cell) ==\n", seeds);
  const auto& registry = sl::core::ExperimentRegistry::global();
  sl::core::ExperimentSpec spec = registry.default_spec("detection");
  spec.model = id;
  spec.scale = scale;
  spec.clean_runs = 4;
  spec.cache_dir = zoo.directory();
  spec.grid = sl::attack::scenario_grid(
      {sl::attack::AttackVector::kActuation,
       sl::attack::AttackVector::kHotspot},
      {sl::attack::AttackTarget::kBothBlocks}, {0.05, 0.10}, seeds);
  sl::core::RunContext context(zoo);
  const sl::core::DetectionReport report =
      registry.run(spec, context).as<sl::core::DetectionReport>();

  sl::core::TextTable table({"detector", "FPR", "TPR", "AUC"});
  for (const std::string& detector : report.detectors) {
    table.add_row({detector,
                   sl::core::pct(report.false_positive_rate(detector)),
                   sl::core::pct(report.true_positive_rate(detector)),
                   sl::fmt_double(report.auc(detector), 3)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
