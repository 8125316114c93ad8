// Mitigation demo (paper §V/§VI): trains the Original model and one
// L2 + noise-aware variant, then compares them under escalating hotspot
// attacks.
//
// Usage: robust_training [cnn1|resnet18|vgg16v] [variant]
// Default: cnn1 l2+n3 (the paper's most robust CNN_1 configuration).

#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "core/evaluation.hpp"
#include "core/report.hpp"
#include "core/zoo.hpp"

namespace sl = safelight;

int main(int argc, char** argv) {
  const std::string model_name = argc > 1 ? argv[1] : "cnn1";
  const std::string variant_name = argc > 2 ? argv[2] : "l2+n3";

  const sl::nn::ModelId id = sl::nn::model_id_from_string(model_name);
  const sl::Scale scale = sl::config::scale() == sl::Scale::kDefault
                              ? sl::Scale::kTiny
                              : sl::config::scale();
  const sl::core::ExperimentSetup setup = sl::core::experiment_setup(id, scale);

  sl::core::ModelZoo zoo;
  std::printf("SafeLight robust training: %s, variant %s (%s scale)\n",
              model_name.c_str(), variant_name.c_str(),
              sl::to_string(scale).c_str());

  auto original =
      zoo.get_or_train(setup, sl::core::variant_by_name("Original"), true);
  auto robust =
      zoo.get_or_train(setup, sl::core::variant_by_name(variant_name), true);

  sl::core::AttackEvaluator original_eval(setup, *original, "Original", "");
  sl::core::AttackEvaluator robust_eval(setup, *robust, variant_name, "");

  std::printf("\nbaselines: original %.2f%%, %s %.2f%%\n\n",
              original_eval.baseline_accuracy() * 100.0,
              variant_name.c_str(),
              robust_eval.baseline_accuracy() * 100.0);

  sl::core::TextTable table(
      {"attack", "fraction", "original", variant_name, "recovered"});
  for (auto vector : {sl::attack::AttackVector::kActuation,
                      sl::attack::AttackVector::kHotspot}) {
    for (double fraction : {0.01, 0.05, 0.10}) {
      sl::attack::AttackScenario scenario;
      scenario.vector = vector;
      scenario.target = sl::attack::AttackTarget::kBothBlocks;
      scenario.fraction = fraction;
      scenario.seed = 42;
      const double acc_original = original_eval.evaluate_scenario(scenario);
      const double acc_robust = robust_eval.evaluate_scenario(scenario);
      table.add_row({sl::attack::to_string(vector),
                     sl::core::pct(fraction),
                     sl::core::pct(acc_original),
                     sl::core::pct(acc_robust),
                     sl::core::signed_pct(acc_robust - acc_original)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}
