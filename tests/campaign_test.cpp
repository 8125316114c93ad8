// Tests for the campaign subsystem: composite scenario identity and
// validation (order invariance, disjoint placement, zero-fraction
// rejection), schedule bookkeeping, evasion-rate/latency math on hand-built
// outcomes, executor hook stacking, and the end-to-end campaign sweep —
// cached, resumable, and demonstrably able to evade detectors that flag
// the static grid.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "accel/executor.hpp"
#include "attacks/campaign.hpp"
#include "common/rng.hpp"
#include "core/evaluation.hpp"
#include "core/experiment.hpp"
#include "core/zoo.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "test_util.hpp"

namespace safelight {
namespace {

using attack::AttackScenario;
using attack::AttackTarget;
using attack::AttackVector;
using attack::CampaignSchedule;
using attack::CompositeScenario;
using attack::PlacementPolicy;

core::ExperimentSetup tiny_setup() {
  return core::experiment_setup(nn::ModelId::kCnn1, Scale::kTiny);
}

/// The cross-block disjoint composite used throughout: actuation in CONV
/// stacked with a hotspot in FC.
CompositeScenario cross_block_composite() {
  CompositeScenario composite;
  composite.placement = PlacementPolicy::kDisjointBlocks;
  composite.components.push_back(
      {AttackVector::kActuation, AttackTarget::kConvBlock, 0.10, 42});
  composite.components.push_back(
      {AttackVector::kHotspot, AttackTarget::kFcBlock, 0.10, 43});
  return composite;
}

// ------------------------------------------------------------ composite id

TEST(CompositeScenario, IdIsStableAndOrderInvariant) {
  const CompositeScenario composite = cross_block_composite();
  EXPECT_EQ(composite.id(),
            "composite[actuation/CONV/f0.1/s42+hotspot/FC/f0.1/s43]/dj");

  CompositeScenario reordered = composite;
  std::swap(reordered.components[0], reordered.components[1]);
  EXPECT_EQ(reordered.id(), composite.id());

  // Canonical component order is shared too (the application order).
  const auto canonical = composite.canonical_components();
  const auto canonical_reordered = reordered.canonical_components();
  ASSERT_EQ(canonical.size(), canonical_reordered.size());
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    EXPECT_EQ(canonical[i].id(), canonical_reordered[i].id());
  }
}

TEST(CompositeScenario, IdSeparatesDistinctComposites) {
  const CompositeScenario base = cross_block_composite();

  CompositeScenario other_fraction = base;
  other_fraction.components[0].fraction = 0.05;
  EXPECT_NE(other_fraction.id(), base.id());

  CompositeScenario other_seed = base;
  other_seed.components[1].seed = 99;
  EXPECT_NE(other_seed.id(), base.id());

  CompositeScenario other_placement = base;
  other_placement.placement = PlacementPolicy::kOverlapping;
  EXPECT_NE(other_placement.id(), base.id());

  CompositeScenario fewer = base;
  fewer.components.pop_back();
  EXPECT_NE(fewer.id(), base.id());
}

// ---------------------------------------------------------- validation

TEST(CompositeScenario, ValidatesComponentsAndRejectsZeroFraction) {
  CompositeScenario empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  CompositeScenario composite = cross_block_composite();
  EXPECT_NO_THROW(composite.validate());

  // A zero-fraction component is a validation error in composites (it
  // contributes nothing but splits the cache key space).
  composite.components[1].fraction = 0.0;
  EXPECT_THROW(composite.validate(), std::invalid_argument);

  composite.components[1].fraction = 1.5;  // component validation runs too
  EXPECT_THROW(composite.validate(), std::invalid_argument);
}

TEST(CompositeScenario, DisjointPlacementHonoured) {
  // CONV + FC: disjoint, fine.
  EXPECT_NO_THROW(cross_block_composite().validate());

  // Two components on the same block collide.
  CompositeScenario same_block;
  same_block.placement = PlacementPolicy::kDisjointBlocks;
  same_block.components.push_back(
      {AttackVector::kActuation, AttackTarget::kConvBlock, 0.05, 1});
  same_block.components.push_back(
      {AttackVector::kHotspot, AttackTarget::kConvBlock, 0.05, 2});
  EXPECT_THROW(same_block.validate(), std::invalid_argument);

  // kBothBlocks claims both blocks: nothing may stack on top of it.
  CompositeScenario both_then_fc;
  both_then_fc.placement = PlacementPolicy::kDisjointBlocks;
  both_then_fc.components.push_back(
      {AttackVector::kActuation, AttackTarget::kBothBlocks, 0.05, 1});
  both_then_fc.components.push_back(
      {AttackVector::kHotspot, AttackTarget::kFcBlock, 0.05, 2});
  EXPECT_THROW(both_then_fc.validate(), std::invalid_argument);

  // The same collisions are allowed under the overlapping policy.
  same_block.placement = PlacementPolicy::kOverlapping;
  both_then_fc.placement = PlacementPolicy::kOverlapping;
  EXPECT_NO_THROW(same_block.validate());
  EXPECT_NO_THROW(both_then_fc.validate());
}

TEST(ScenarioGrid, RejectsZeroFractionCells) {
  EXPECT_THROW(attack::scenario_grid({AttackVector::kActuation},
                                     {AttackTarget::kBothBlocks}, {0.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(
      attack::scenario_grid({AttackVector::kHotspot},
                            {AttackTarget::kConvBlock}, {0.05, 0.0}, 2),
      std::invalid_argument);
}

// ------------------------------------------------------------- schedules

TEST(CampaignSchedule, BookkeepingAndFactories) {
  const CampaignSchedule ramp = attack::ramp_campaign(
      "ramp", cross_block_composite(), {0.1, 0.5, 1.0}, /*checks_per_phase=*/2);
  EXPECT_EQ(ramp.phases.size(), 3u);
  EXPECT_EQ(ramp.total_checks(), 6u);
  EXPECT_EQ(ramp.active_phase_count(), 3u);
  EXPECT_EQ(ramp.first_active_phase(), 0u);
  // Scaling multiplied every component fraction.
  EXPECT_DOUBLE_EQ(ramp.phases[0].attack.components[0].fraction, 0.01);
  EXPECT_DOUBLE_EQ(ramp.phases[1].attack.components[1].fraction, 0.05);
  EXPECT_DOUBLE_EQ(ramp.phases[2].attack.components[0].fraction, 0.10);

  const CampaignSchedule burst = attack::burst_campaign(
      "burst", cross_block_composite(), /*lead_dormant=*/2,
      /*trail_dormant=*/1, /*burst_checks=*/3);
  EXPECT_EQ(burst.phases.size(), 4u);
  EXPECT_EQ(burst.total_checks(), 6u);
  EXPECT_EQ(burst.active_phase_count(), 1u);
  EXPECT_EQ(burst.first_active_phase(), 2u);
  EXPECT_FALSE(burst.phases[0].active());
  EXPECT_TRUE(burst.phases[2].active());

  // Ids are stable, prefix-readable, and separate differing schedules.
  EXPECT_EQ(ramp.id().rfind("campaign/ramp/", 0), 0u);
  CampaignSchedule tweaked = ramp;
  tweaked.phases[1].checks = 7;
  EXPECT_NE(tweaked.id(), ramp.id());
  CampaignSchedule reordered = ramp;
  std::swap(reordered.phases[0].attack.components[0],
            reordered.phases[0].attack.components[1]);
  EXPECT_EQ(reordered.id(), ramp.id());  // canonical component order
}

TEST(CampaignSchedule, ValidationRejectsMalformedSchedules) {
  CampaignSchedule schedule;
  EXPECT_THROW(schedule.validate(), std::invalid_argument);  // no name
  schedule.name = "s";
  EXPECT_THROW(schedule.validate(), std::invalid_argument);  // no phases
  schedule.phases.push_back({"", {}, 1});
  EXPECT_THROW(schedule.validate(), std::invalid_argument);  // unnamed phase
  schedule.phases[0].name = "p";
  schedule.phases[0].checks = 0;
  EXPECT_THROW(schedule.validate(), std::invalid_argument);  // zero checks
  schedule.phases[0].checks = 1;
  EXPECT_NO_THROW(schedule.validate());  // dormant-only schedule is valid
  schedule.phases[0].attack.components.push_back(
      {AttackVector::kActuation, AttackTarget::kConvBlock, 0.0, 1});
  EXPECT_THROW(schedule.validate(), std::invalid_argument);  // zero fraction
}

// ----------------------------------------------------- hook stack plumbing

TEST(ExecutorHooks, StackPushPopAndMutatingQuery) {
  accel::OnnExecutor executor(accel::AcceleratorConfig::crosslight());
  EXPECT_FALSE(executor.has_readout_hook());

  auto noop = [](nn::Tensor&, accel::BlockKind, float) {};
  executor.push_readout_hook(noop, accel::ReadoutHookKind::kObserving);
  EXPECT_TRUE(executor.has_readout_hook());
  EXPECT_FALSE(executor.has_mutating_readout_hook());

  executor.push_readout_hook(noop, accel::ReadoutHookKind::kMutating);
  EXPECT_EQ(executor.readout_hook_count(), 2u);
  EXPECT_TRUE(executor.has_mutating_readout_hook());

  executor.pop_readout_hook();  // LIFO: the mutating one goes first
  EXPECT_FALSE(executor.has_mutating_readout_hook());
  EXPECT_EQ(executor.readout_hook_count(), 1u);

  // set_readout_hook replaces the whole stack (compatibility contract).
  executor.set_readout_hook(noop);
  EXPECT_EQ(executor.readout_hook_count(), 1u);
  EXPECT_TRUE(executor.has_mutating_readout_hook());
  executor.set_readout_hook(nullptr);
  EXPECT_FALSE(executor.has_readout_hook());
  EXPECT_THROW(executor.pop_readout_hook(), std::invalid_argument);
}

TEST(ExecutorHooks, StackedHooksRunInPushOrder) {
  Rng rng(11);
  nn::Sequential model;
  model.emplace<nn::Flatten>();
  model.emplace<nn::Linear>(4, 2, rng);
  accel::OnnExecutor executor(accel::AcceleratorConfig::crosslight());
  executor.condition_weights(model);
  nn::Tensor x({1, 4}, {0.1f, -0.2f, 0.3f, -0.4f});

  std::vector<int> order;
  executor.push_readout_hook(
      [&order](nn::Tensor&, accel::BlockKind, float) { order.push_back(1); },
      accel::ReadoutHookKind::kObserving);
  executor.push_readout_hook(
      [&order](nn::Tensor&, accel::BlockKind, float) { order.push_back(2); },
      accel::ReadoutHookKind::kObserving);
  (void)executor.forward(model, x);
  ASSERT_EQ(order.size(), 2u);  // one mapped layer, two hooks
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

// -------------------------------------------- evasion/latency arithmetic

/// Hand-built two-detector campaign outcome:
///   phase 0 "dormant"  (1 check, inactive)
///   phase 1 "stealth"  (2 checks, active)  — d1 never flags, d2 flags k1
///   phase 2 "burst"    (1 check, active)   — d1 flags, d2 flags
core::CampaignResult hand_built_result() {
  core::CampaignResult result;
  result.campaign = "hand";
  result.baseline_accuracy = 0.9;
  result.detectors = {"d1", "d2"};
  result.phases = {{"dormant", false, 1, 0.9},
                   {"stealth", true, 2, 0.85},
                   {"burst", true, 1, 0.5}};
  auto cell = [](std::size_t phase, std::size_t check,
                 const std::string& detector, bool flagged) {
    core::CampaignCell c;
    c.phase = phase;
    c.check = check;
    c.detector = detector;
    c.score = flagged ? 1.0 : 0.0;
    c.flagged = flagged;
    return c;
  };
  result.cells = {cell(0, 0, "d1", false), cell(0, 0, "d2", false),
                  cell(1, 0, "d1", false), cell(1, 0, "d2", false),
                  cell(1, 1, "d1", false), cell(1, 1, "d2", true),
                  cell(2, 0, "d1", true),  cell(2, 0, "d2", true)};
  return result;
}

TEST(CampaignResult, EvasionRateAndLatencyMath) {
  const core::CampaignResult result = hand_built_result();

  EXPECT_DOUBLE_EQ(result.accuracy_drop(0), 0.0);
  EXPECT_NEAR(result.accuracy_drop(1), 0.05, 1e-12);
  EXPECT_NEAR(result.accuracy_drop(2), 0.4, 1e-12);

  EXPECT_FALSE(result.phase_flagged(1, "d1"));
  EXPECT_TRUE(result.phase_flagged(1, "d2"));
  EXPECT_TRUE(result.phase_flagged(2, "d1"));

  // d1 evaded the stealth phase (1 of 2 active); d2 evaded nothing.
  EXPECT_DOUBLE_EQ(result.evasion_rate("d1"), 0.5);
  EXPECT_DOUBLE_EQ(result.evasion_rate("d2"), 0.0);

  // Checks count from the first active phase: stealth k0, k1, burst k0.
  EXPECT_EQ(result.detection_latency_checks("d2"), 2u);
  EXPECT_EQ(result.detection_latency_checks("d1"), 3u);
  EXPECT_EQ(result.detection_latency_checks("unknown"), 0u);  // never flagged

  // No active phase -> evasion rate is undefined.
  core::CampaignResult dormant_only;
  dormant_only.phases = {{"dormant", false, 1, 0.9}};
  EXPECT_THROW(dormant_only.evasion_rate("d1"), std::invalid_argument);
}

TEST(CampaignResult, DormantFlagIsFalsePositiveNotDetection) {
  core::CampaignResult result = hand_built_result();
  // A flag during the dormant phase must affect neither metric: there is no
  // attack to detect.
  for (core::CampaignCell& c : result.cells) {
    if (c.phase == 0) c.flagged = true;
  }
  EXPECT_DOUBLE_EQ(result.evasion_rate("d1"), 0.5);
  EXPECT_EQ(result.detection_latency_checks("d1"), 3u);
}

// -------------------------------------------------- composite evaluation

TEST(CompositeEvaluation, OrderInvariantAndAtLeastWorstComponent) {
  TempDir dir("composite_eval");
  const core::ExperimentSetup setup = tiny_setup();
  core::ModelZoo zoo(dir.path());
  auto model = zoo.get_or_train(setup, core::variant_by_name("Original"));
  core::AttackEvaluator evaluator(setup, *model, "Original", "");

  const CompositeScenario composite = cross_block_composite();
  CompositeScenario reordered = composite;
  std::swap(reordered.components[0], reordered.components[1]);

  // One-pass application is order-invariant down to the weight bytes
  // (canonical component order), not just in the cached accuracy.
  evaluator.apply_composite(composite);
  const std::string checksum_a = core::weights_checksum(*model);
  EXPECT_LT(evaluator.first_dirty_layer(), model->size());
  evaluator.apply_composite(reordered);
  const std::string checksum_b = core::weights_checksum(*model);
  evaluator.restore_clean();
  EXPECT_EQ(checksum_a, checksum_b);

  // The composite costs at least (within noise of the tiny eval subset)
  // what its worst component costs alone: stacking an attack never heals
  // the deployment.
  const double baseline = evaluator.baseline_accuracy();
  double worst_component_drop = 0.0;
  for (const AttackScenario& component : composite.components) {
    worst_component_drop = std::max(
        worst_component_drop, baseline - evaluator.evaluate_scenario(component));
  }
  const double composite_drop =
      baseline - evaluator.evaluate_composite(composite);
  EXPECT_GE(composite_drop + 0.02, worst_component_drop);
  EXPECT_GT(composite_drop, 0.05);  // and it genuinely hurts
}

// ------------------------------------------------------- campaign sweep

TEST(CampaignSweep, CachedResumableAndEvadesAStaticGridDetector) {
  TempDir dir("campaign_sweep");
  core::ModelZoo zoo(dir.path());

  // The evasive schedule: the hotspot heaters start at 1 % of the nominal
  // victim population — banks warm up (the thermal sentinel can see it) but
  // the post-compensation shift corrupts no weight yet, so read-out
  // detectors have nothing to read — then escalate to the static grid's
  // full 10 % intensity.
  CompositeScenario hotspot_all;
  hotspot_all.components.push_back(
      {AttackVector::kHotspot, AttackTarget::kBothBlocks, 0.10, 42});
  const CampaignSchedule creep =
      attack::ramp_campaign("creep", hotspot_all, {0.01, 1.0});

  // A second campaign shares its burst composite with creep's peak phase
  // via the composite-id accuracy cache.
  const CampaignSchedule burst =
      attack::burst_campaign("ambush", hotspot_all, /*lead_dormant=*/1,
                             /*trail_dormant=*/0);

  const auto& registry = core::ExperimentRegistry::global();
  core::ExperimentSpec spec = registry.default_spec("campaign");
  spec.model = nn::ModelId::kCnn1;
  spec.scale = Scale::kTiny;
  spec.campaigns = {creep, burst};
  spec.cache_dir = dir.path();
  core::RunContext context(zoo);
  const auto first =
      registry.run(spec, context).as<core::CampaignSweepReport>();
  ASSERT_EQ(first.campaigns.size(), 2u);
  EXPECT_EQ(first.evaluated, 4u);  // 2 + 2 phases
  EXPECT_EQ(first.cache_hits, 0u);

  const core::CampaignResult& evasive = first.campaigns[0];
  ASSERT_EQ(evasive.phases.size(), 2u);
  EXPECT_TRUE(evasive.phases[0].active);

  // The acceptance demonstration: the range monitor flags the full-strength
  // burst — the same (vector, intensity) cell it reliably flags in the
  // static fig_detection grid — but misses the active low-intensity creep
  // phase entirely. The static grid's ROC numbers overstate it against an
  // adaptive attacker.
  EXPECT_TRUE(evasive.phase_flagged(1, "range_monitor"));
  EXPECT_FALSE(evasive.phase_flagged(0, "range_monitor"));
  EXPECT_GT(evasive.evasion_rate("range_monitor"), 0.0);
  EXPECT_TRUE(evasive.phase_flagged(1, "canary"));
  EXPECT_FALSE(evasive.phase_flagged(0, "canary"));

  // The thermal sentinel sees the heaters before any weight corrupts: this
  // is exactly why the subsystem fields a *suite*.
  EXPECT_TRUE(evasive.phase_flagged(0, "thermal_sentinel"));
  EXPECT_EQ(evasive.detection_latency_checks("thermal_sentinel"), 1u);
  EXPECT_EQ(evasive.detection_latency_checks("range_monitor"), 2u);

  // The burst attack costs accuracy; the creep phase does not (yet).
  EXPECT_GT(evasive.accuracy_drop(1), 0.05);
  EXPECT_NEAR(evasive.accuracy_drop(0), 0.0, 0.02);

  // Resume: a fresh sweep (new process in real life) re-evaluates nothing
  // and reproduces every number exactly.
  const auto second =
      registry.run(spec, context).as<core::CampaignSweepReport>();
  EXPECT_EQ(second.evaluated, 0u);
  EXPECT_EQ(second.cache_hits, 4u);
  for (std::size_t ci = 0; ci < first.campaigns.size(); ++ci) {
    const auto& a = first.campaigns[ci];
    const auto& b = second.campaigns[ci];
    ASSERT_EQ(a.cells.size(), b.cells.size());
    EXPECT_DOUBLE_EQ(a.baseline_accuracy, b.baseline_accuracy);
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.cells[i].score, b.cells[i].score);
      EXPECT_EQ(a.cells[i].flagged, b.cells[i].flagged);
      EXPECT_TRUE(b.cells[i].from_cache);
    }
    for (std::size_t pi = 0; pi < a.phases.size(); ++pi) {
      EXPECT_DOUBLE_EQ(a.phases[pi].accuracy, b.phases[pi].accuracy);
    }
  }

  // The two campaigns' full-strength phases share one accuracy entry (the
  // composite id is the key, not the campaign).
  EXPECT_DOUBLE_EQ(first.campaigns[0].phases[1].accuracy,
                   first.campaigns[1].phases[1].accuracy);

  // Duplicate campaign ids are rejected (they would collide in the store).
  spec.campaigns = {creep, creep};
  EXPECT_THROW(registry.run(spec, context), std::invalid_argument);
}

}  // namespace
}  // namespace safelight
