// Tests for the SafeLight core: experiment scaling, variants, zoo,
// attack evaluator, mitigation-report selection and report rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "core/evaluation.hpp"
#include "core/mitigation.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/zoo.hpp"
#include "nn/serialize.hpp"
#include "test_util.hpp"

namespace safelight::core {
namespace {

// ---------------------------------------------------------------- scaling

TEST(ExperimentScale, Cnn1KeepsFullCrosslightBlocks) {
  const ExperimentSetup setup =
      experiment_setup(nn::ModelId::kCnn1, Scale::kDefault);
  // CNN_1 fits in one pass at paper scale; the blocks stay full size.
  EXPECT_EQ(setup.accelerator.conv.units, 99u);  // ~100, rounded from target
  EXPECT_EQ(setup.accelerator.fc.units, 60u);
  EXPECT_EQ(setup.dataset_family, "digits");
}

TEST(ExperimentScale, PassPressurePreserved) {
  // The reduced models must see the paper's multi-pass mapping pressure.
  struct Expectation {
    nn::ModelId id;
    double conv_passes_target;
    double fc_passes_target;
  };
  const Expectation expectations[] = {
      {nn::ModelId::kResNet18, 117.5, 0.0038},
      {nn::ModelId::kVgg16v, 97.5, 88.6},
  };
  for (const auto& e : expectations) {
    const ExperimentSetup setup = experiment_setup(e.id, Scale::kDefault);
    auto model = nn::make_model(e.id, setup.model_config);
    accel::WeightStationaryMapping mapping(*model, setup.accelerator);
    const double conv_passes =
        static_cast<double>(mapping.passes(accel::BlockKind::kConv));
    EXPECT_NEAR(conv_passes, e.conv_passes_target,
                e.conv_passes_target * 0.35)
        << nn::to_string(e.id);
    if (e.fc_passes_target > 1.0) {
      const double fc_passes =
          static_cast<double>(mapping.passes(accel::BlockKind::kFc));
      EXPECT_NEAR(fc_passes, e.fc_passes_target, e.fc_passes_target * 0.35)
          << nn::to_string(e.id);
    }
  }
}

TEST(ExperimentScale, AcceleratorForRejectsEmptyModel) {
  EXPECT_THROW(accelerator_for(nn::ModelId::kCnn1, 0, 0),
               std::invalid_argument);
}

TEST(ExperimentScale, BankWidthsNeverShrink) {
  for (nn::ModelId id :
       {nn::ModelId::kCnn1, nn::ModelId::kResNet18, nn::ModelId::kVgg16v}) {
    for (Scale scale : {Scale::kTiny, Scale::kDefault}) {
      const ExperimentSetup setup = experiment_setup(id, scale);
      EXPECT_EQ(setup.accelerator.conv.mrs_per_bank, 20u);
      EXPECT_EQ(setup.accelerator.fc.mrs_per_bank, 150u);
    }
  }
}

TEST(ExperimentScale, TagEncodesModelAndScale) {
  EXPECT_EQ(experiment_setup(nn::ModelId::kCnn1, Scale::kTiny).tag(),
            "cnn1_tiny");
  EXPECT_EQ(experiment_setup(nn::ModelId::kVgg16v, Scale::kDefault).tag(),
            "vgg16v_default");
}

TEST(ExperimentScale, DatasetsMatchModelShapes) {
  for (nn::ModelId id :
       {nn::ModelId::kCnn1, nn::ModelId::kResNet18, nn::ModelId::kVgg16v}) {
    const ExperimentSetup setup = experiment_setup(id, Scale::kTiny);
    const nn::Dataset train = make_train_data(setup);
    const nn::Dataset test = make_test_data(setup);
    auto model = nn::make_model(id, setup.model_config);
    EXPECT_EQ(train.sample_shape()[0], setup.model_config.in_channels);
    EXPECT_EQ(train.sample_shape()[1], setup.model_config.image_size);
    // Disjoint seeds for train/test.
    EXPECT_NE(setup.train_data.seed, setup.test_data.seed);
    // The model accepts the data.
    auto [images, labels] = test.batch(0, 2);
    EXPECT_EQ(model->forward(images, false).dim(1), 10u);
  }
}

// ---------------------------------------------------------------- variants

TEST(Variants, PaperListHasElevenEntries) {
  const auto variants = paper_variants();
  ASSERT_EQ(variants.size(), 11u);
  EXPECT_EQ(variants[0].name, "Original");
  EXPECT_EQ(variants[1].name, "L2_reg");
  EXPECT_EQ(variants[2].name, "l2+n1");
  EXPECT_EQ(variants[10].name, "l2+n9");
}

TEST(Variants, SigmaLadderMatchesPaper) {
  const auto variants = paper_variants();
  for (int i = 1; i <= 9; ++i) {
    const auto& v = variants[static_cast<std::size_t>(i + 1)];
    EXPECT_NEAR(v.noise_sigma, 0.1 * i, 1e-6);
    EXPECT_GT(v.weight_decay, 0.0f);  // all noise variants include L2
  }
  EXPECT_EQ(variants[0].noise_sigma, 0.0f);
  EXPECT_EQ(variants[0].weight_decay, 0.0f);
  EXPECT_EQ(variants[1].noise_sigma, 0.0f);
}

TEST(Variants, LookupByName) {
  EXPECT_FLOAT_EQ(variant_by_name("l2+n5").noise_sigma, 0.5f);
  EXPECT_TRUE(variant_by_name("Original").is_original());
  EXPECT_THROW(variant_by_name("l2+n10"), std::invalid_argument);
}

TEST(Variants, ApplyVariantSetsTrainingKnobs) {
  nn::TrainConfig base;
  base.epochs = 7;
  const nn::TrainConfig config =
      apply_variant(base, variant_by_name("l2+n3"));
  EXPECT_EQ(config.epochs, 7u);
  EXPECT_GT(config.weight_decay, 0.0f);
  EXPECT_FLOAT_EQ(config.noise.sigma, 0.3f);
  EXPECT_EQ(config.noise.mode, nn::NoiseMode::kRelativeToStd);
}

// ---------------------------------------------------------------- zoo

TEST(Zoo, TrainsOnceThenLoads) {
  TempDir dir("zoo");
  const ExperimentSetup setup =
      experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  ModelZoo zoo(dir.path());
  const VariantSpec variant = variant_by_name("Original");
  EXPECT_FALSE(zoo.has_entry(setup, variant));
  auto first = zoo.get_or_train(setup, variant);
  EXPECT_TRUE(zoo.has_entry(setup, variant));
  auto second = zoo.get_or_train(setup, variant);
  // Loaded weights identical to trained weights.
  const auto a = nn::snapshot_state(*first);
  const auto b = nn::snapshot_state(*second);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(nn::max_abs_diff(a[i], b[i]), 0.0f);
  }
}

TEST(Zoo, CorruptEntryTriggersRetrain) {
  TempDir dir("zoo_corrupt");
  const ExperimentSetup setup =
      experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  ModelZoo zoo(dir.path());
  const VariantSpec variant = variant_by_name("Original");
  zoo.get_or_train(setup, variant);
  // Truncate the cache file.
  const std::string path = zoo.entry_path(setup, variant);
  std::filesystem::resize_file(path, 64);
  EXPECT_FALSE(zoo.has_entry(setup, variant));
  EXPECT_NO_THROW(zoo.get_or_train(setup, variant));
  EXPECT_TRUE(zoo.has_entry(setup, variant));
}

TEST(Zoo, VariantsCachedSeparately) {
  TempDir dir("zoo_variants");
  const ExperimentSetup setup =
      experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  ModelZoo zoo(dir.path());
  zoo.get_or_train(setup, variant_by_name("Original"));
  EXPECT_FALSE(zoo.has_entry(setup, variant_by_name("L2_reg")));
  EXPECT_NE(zoo.entry_path(setup, variant_by_name("Original")),
            zoo.entry_path(setup, variant_by_name("L2_reg")));
}

// ---------------------------------------------------------------- evaluator

TEST(Evaluator, BaselineStableAndScenarioDegrades) {
  TempDir dir("eval");
  const ExperimentSetup setup =
      experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  ModelZoo zoo(dir.path());
  auto model = zoo.get_or_train(setup, variant_by_name("Original"));
  AttackEvaluator evaluator(setup, *model, "Original", "");

  const double baseline = evaluator.baseline_accuracy();
  EXPECT_GT(baseline, 0.3);  // tiny model has learned something

  attack::AttackScenario scenario;
  scenario.vector = attack::AttackVector::kHotspot;
  scenario.target = attack::AttackTarget::kBothBlocks;
  scenario.fraction = 0.10;
  scenario.seed = 5;
  const double attacked = evaluator.evaluate_scenario(scenario);
  EXPECT_LT(attacked, baseline + 1e-9);
  EXPECT_GT(evaluator.last_stats().corrupted_weights, 0u);

  // Model restored after evaluation: baseline unchanged.
  EXPECT_NEAR(evaluator.baseline_accuracy(), baseline, 1e-12);
}

TEST(Evaluator, LastStatsDescribeTheMostRecentCall) {
  TempDir dir("eval_stats");
  const ExperimentSetup setup =
      experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  ModelZoo zoo(dir.path());
  auto model = zoo.get_or_train(setup, variant_by_name("Original"));
  AttackEvaluator evaluator(setup, *model, "Original", "");

  attack::AttackScenario hot;
  hot.vector = attack::AttackVector::kHotspot;
  hot.target = attack::AttackTarget::kBothBlocks;
  hot.fraction = 0.10;
  hot.seed = 5;
  attack::AttackScenario none = hot;
  none.fraction = 0.0;

  const double first = evaluator.evaluate_scenario(hot);
  ASSERT_GT(evaluator.last_stats().corrupted_weights, 0u);
  evaluator.evaluate_scenario(none);
  EXPECT_EQ(evaluator.last_stats().corrupted_weights, 0u);
  // Repeating a scenario evaluates it again: its stats replace the last
  // call's, and the accuracy matches the first evaluation.
  EXPECT_EQ(evaluator.evaluate_scenario(hot), first);
  EXPECT_GT(evaluator.last_stats().corrupted_weights, 0u);
}

TEST(Evaluator, RejectsCacheDir) {
  TempDir dir("eval_cache_dir");
  const ExperimentSetup setup =
      experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  auto model = nn::make_model(setup.model, setup.model_config);
  // Results persist only through the cell engine's stores.
  EXPECT_THROW(AttackEvaluator(setup, *model, "Original", dir.path()),
               std::invalid_argument);
}

TEST(Evaluator, ChecksumChangesWithWeights) {
  const ExperimentSetup setup =
      experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
  auto a = nn::make_model(setup.model, setup.model_config);
  const std::string checksum_a = weights_checksum(*a);
  EXPECT_EQ(checksum_a.size(), 16u);
  a->params()[0]->value[0] += 1.0f;
  EXPECT_NE(weights_checksum(*a), checksum_a);
}

// ------------------------------------------------------------- mitigation

/// Builds a VariantOutcome with the distribution knobs best_robust ranks on.
VariantOutcome outcome_of(const std::string& name, double median,
                          double min) {
  VariantOutcome outcome;
  outcome.variant.name = name;
  outcome.under_attack.n = 3;
  outcome.under_attack.median = median;
  outcome.under_attack.min = min;
  return outcome;
}

TEST(Mitigation, BestRobustPrefersHigherMedian) {
  MitigationReport report;
  report.outcomes.push_back(outcome_of("Original", 0.99, 0.99));
  report.outcomes.push_back(outcome_of("l2+n1", 0.70, 0.10));
  report.outcomes.push_back(outcome_of("l2+n2", 0.80, 0.05));
  EXPECT_EQ(report.best_robust().variant.name, "l2+n2");
}

TEST(Mitigation, BestRobustBreaksMedianTiesByWorstCase) {
  MitigationReport report;
  report.outcomes.push_back(outcome_of("l2+n1", 0.80, 0.10));
  report.outcomes.push_back(outcome_of("l2+n2", 0.80, 0.30));
  report.outcomes.push_back(outcome_of("l2+n3", 0.80, 0.20));
  EXPECT_EQ(report.best_robust().variant.name, "l2+n2");
}

TEST(Mitigation, BestRobustBreaksFullTiesByName) {
  // Identical distributions: the lexicographically smallest name wins,
  // independent of sweep order.
  MitigationReport forward;
  forward.outcomes.push_back(outcome_of("l2+n1", 0.80, 0.20));
  forward.outcomes.push_back(outcome_of("l2+n2", 0.80, 0.20));
  EXPECT_EQ(forward.best_robust().variant.name, "l2+n1");

  MitigationReport reversed;
  reversed.outcomes.push_back(outcome_of("l2+n2", 0.80, 0.20));
  reversed.outcomes.push_back(outcome_of("l2+n1", 0.80, 0.20));
  EXPECT_EQ(reversed.best_robust().variant.name, "l2+n1");
}

TEST(Mitigation, BestRobustIgnoresOriginalAndRejectsEmpty) {
  MitigationReport original_only;
  original_only.outcomes.push_back(outcome_of("Original", 0.99, 0.99));
  EXPECT_THROW(original_only.best_robust(), std::invalid_argument);

  MitigationReport empty;
  EXPECT_THROW(empty.best_robust(), std::invalid_argument);
}

TEST(Mitigation, OutcomeLookupByNameThrowsOnUnknown) {
  MitigationReport report;
  report.outcomes.push_back(outcome_of("L2_reg", 0.85, 0.40));
  EXPECT_EQ(report.outcome("L2_reg").under_attack.min, 0.40);
  EXPECT_THROW(report.outcome("l2+n9"), std::invalid_argument);
  EXPECT_THROW(report.outcome(""), std::invalid_argument);
}

// ---------------------------------------------------------------- report

TEST(Report, TableAlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Report, TableRejectsRaggedRows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(table.add_row({"one", "two", "three"}), std::invalid_argument);
  EXPECT_THROW(table.add_row({}), std::invalid_argument);
  EXPECT_EQ(table.row_count(), 0u);  // rejected rows are not kept
}

TEST(Report, TableRendersHeaderOnlyWithZeroRows) {
  TextTable table({"alpha", "beta"});
  const std::string out = table.render();
  EXPECT_EQ(table.row_count(), 0u);
  // Header line + underline, nothing else.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Report, TableAutoSizesToWideCells) {
  TextTable table({"k", "v"});
  const std::string wide(40, 'x');
  table.add_row({wide, "1"});
  table.add_row({"s", "2"});
  const std::string out = table.render();

  // Every line is padded to the widest cell: the header line, the
  // underline and both rows all span the 40-char column.
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < out.size()) {
    const std::size_t nl = out.find('\n', pos);
    lines.push_back(out.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_GE(lines[1].size(), wide.size());  // underline spans the column
  EXPECT_NE(lines[2].find(wide), std::string::npos);
  // The short row is padded out to the same column width.
  EXPECT_EQ(lines[3].find('2'), lines[2].find('1'));
}

TEST(Report, PercentFormatting) {
  EXPECT_EQ(pct(0.05), "5.0%");
  EXPECT_EQ(pct(1.0, 0), "100%");
  EXPECT_EQ(signed_pct(0.0321), "+3.21%");
  EXPECT_EQ(signed_pct(-0.004), "-0.40%");
}

}  // namespace
}  // namespace safelight::core
