// The unified experiment API (core/experiment.hpp) in ~60 lines:
// look up an experiment in the registry, build a validated spec, run it
// with a progress callback, and serialize the typed result to CSV + JSON.
//
// Usage: experiment_api [experiment] [model]
// Defaults: susceptibility, cnn1, tiny scale (override with SAFELIGHT_SCALE).
// `safelight list` prints the registered experiment names.

#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "core/experiment.hpp"

namespace sl = safelight;

int main(int argc, char** argv) {
  const std::string experiment = argc > 1 ? argv[1] : "susceptibility";
  const std::string model_name = argc > 2 ? argv[2] : "cnn1";

  const auto& registry = sl::core::ExperimentRegistry::global();

  // 1. A spec pre-filled with the experiment's paper defaults; unknown
  //    experiment or model names throw with the valid names listed.
  sl::core::ExperimentSpec spec = registry.default_spec(experiment);
  spec.model = sl::nn::model_id_from_string(model_name);
  spec.scale = sl::config::scale() == sl::Scale::kDefault
                   ? sl::Scale::kTiny  // examples stay fast
                   : sl::config::scale();
  spec.seed_count = 2;
  spec.clean_runs = 3;  // detection only; other experiments ignore it

  // 2. A run context: the shared model zoo plus optional progress hook.
  sl::core::ModelZoo zoo;
  spec.cache_dir = zoo.directory();  // reuse results across runs
  sl::core::RunContext context(zoo);
  context.progress = [](const std::string& stage) {
    std::printf("  -> %s\n", stage.c_str());
  };

  // 3. Run. The registry validates the spec, dispatches, and stamps
  //    wall-clock timing; the result owns the typed report.
  std::printf("running '%s' on %s at %s scale...\n", experiment.c_str(),
              model_name.c_str(), sl::to_string(spec.scale).c_str());
  const sl::core::ExperimentResult result = registry.run(spec, context);
  std::printf("done in %.1f s\n\n", result.wall_seconds);

  // 4a. Uniform CSV serialization — the same documents `safelight run`
  //     writes.
  for (const sl::core::CsvDocument& doc : result.to_csv()) {
    std::printf("%s.csv: %zu column(s), %zu row(s)\n", doc.file_stem.c_str(),
                doc.header.size(), doc.rows.size());
  }

  // 4b. Uniform JSON serialization (deterministic; golden-pinned).
  const std::string json = result.to_json();
  std::printf("JSON document: %zu bytes\n", json.size());

  // 4c. Typed access when you know the experiment you asked for.
  if (experiment == "susceptibility") {
    const auto& report = result.as<sl::core::SusceptibilityReport>();
    std::printf("baseline accuracy: %.1f%%\n",
                report.baseline_accuracy * 100.0);
  }
  return 0;
}
