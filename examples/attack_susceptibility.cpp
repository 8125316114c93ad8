// Susceptibility sweep on one model (paper §IV / Fig. 7, abbreviated).
//
// Usage: attack_susceptibility [cnn1|resnet18|vgg16v] [seeds]
// Defaults: cnn1, 3 seeds, tiny scale (override with SAFELIGHT_SCALE).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/config.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"

namespace sl = safelight;

int main(int argc, char** argv) {
  const std::string model_name = argc > 1 ? argv[1] : "cnn1";
  const std::size_t seeds =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 3;

  const auto& registry = sl::core::ExperimentRegistry::global();
  sl::core::ExperimentSpec spec = registry.default_spec("susceptibility");
  spec.model = sl::nn::model_id_from_string(model_name);
  spec.scale = sl::config::scale() == sl::Scale::kDefault
                   ? sl::Scale::kTiny  // examples stay fast
                   : sl::config::scale();
  spec.seed_count = seeds;
  spec.verbose = true;

  std::printf("SafeLight susceptibility: %s at %s scale, %zu seeds\n",
              model_name.c_str(), sl::to_string(spec.scale).c_str(), seeds);

  sl::core::ModelZoo zoo;
  spec.cache_dir = zoo.directory();
  sl::core::RunContext context(zoo);
  const sl::core::SusceptibilityReport report =
      registry.run(spec, context).as<sl::core::SusceptibilityReport>();

  std::printf("\nbaseline accuracy: %.2f%%\n\n",
              report.baseline_accuracy * 100.0);
  sl::core::TextTable table(
      {"attack", "target", "fraction", "min", "median", "max", "worst drop"});
  for (const auto& group : report.groups) {
    table.add_row({sl::attack::to_string(group.vector),
                   sl::attack::to_string(group.target),
                   sl::core::pct(group.fraction),
                   sl::core::pct(group.accuracy.min),
                   sl::core::pct(group.accuracy.median),
                   sl::core::pct(group.accuracy.max),
                   sl::core::pct(report.baseline_accuracy -
                                 group.accuracy.min)});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
