// Ablation benches for the design choices called out in DESIGN.md:
//   A1. actuation payload: park distance sweep (stuck-at-zero .. stuck-at-max)
//   A2. hotspot heater overdrive power sweep
//   A3. tuning-circuit compensation capacity sweep
//   A4. DAC resolution sweep (deployment quantization)
// All on CNN_1 (fast, full CrossLight-sized blocks). The scenario sweeps
// (A1/A2/A3/A5/A7) run through the scenario sweep with the ablated
// CorruptionConfig — the sweep fingerprints the config into its result
// store, so every knob setting caches separately and re-runs are instant.

#include <cstdio>

#include "attacks/adc_attack.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/zoo.hpp"

namespace sl = safelight;

int main() {
  const sl::Scale scale = sl::bench::bench_scale();
  sl::bench::banner("Ablations (CNN_1, " + sl::to_string(scale) + " scale)");
  sl::core::ModelZoo zoo;
  const auto setup = sl::core::experiment_setup(sl::nn::ModelId::kCnn1, scale);
  // Train up front (verbose) so the pipeline sweeps below only load.
  zoo.get_or_train(setup, sl::core::variant_by_name("Original"),
                   /*verbose=*/true);
  const std::size_t seeds = sl::bench::seed_count(3);

  // Mean accuracy across placements for one ablated corruption config,
  // evaluated through the parallel scenario sweep on the CONV+FC target.
  const sl::core::RunContext context(zoo);
  const auto sweep_mean = [&](const std::string& variant,
                              sl::attack::AttackVector vector, double fraction,
                              std::uint64_t base_seed,
                              const sl::attack::CorruptionConfig& corruption) {
    sl::core::ExperimentSpec spec;
    spec.model = setup.model;
    spec.scale = scale;
    spec.cache_dir = zoo.directory();
    spec.corruption = corruption;
    const auto grid = sl::attack::scenario_grid(
        {vector}, {sl::attack::AttackTarget::kBothBlocks}, {fraction}, seeds,
        base_seed);
    return sl::mean_of(sl::core::scenario_accuracies(sl::core::sweep_cells(
        spec, context,
        sl::core::scenario_sweep(spec, setup,
                                 sl::core::variant_by_name(variant), grid))));
  };

  sl::CsvWriter csv(sl::bench::out_dir() + "/ablation_attacks.csv",
                    {"ablation", "knob", "value", "mean_accuracy"});

  // ---- A1: actuation park distance ---------------------------------
  {
    std::printf("\nA1: actuation park distance (fraction of channel spacing)\n");
    sl::core::TextTable table(
        {"park fraction", "stuck |w| (CONV)", "mean acc @10% CONV+FC"});
    for (double park : {0.02, 0.1, 0.25, 0.5, 1.0}) {
      sl::attack::CorruptionConfig corruption;
      corruption.actuation.park_spacing_fraction = park;
      const double acc = sweep_mean("Original",
                                    sl::attack::AttackVector::kActuation, 0.10,
                                    3000, corruption);
      const double stuck = sl::attack::stuck_weight_magnitude(
          setup.accelerator, sl::accel::BlockKind::kConv, park);
      table.add_row({sl::fmt_double(park, 2), sl::fmt_double(stuck, 3),
                     sl::core::pct(acc)});
      csv.row({"A1_park_fraction", "park", sl::fmt_double(park, 2),
               sl::fmt_double(acc, 4)});
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "small park ~= stuck-at-zero (ring stays near resonance), large park\n"
        "~= stuck-at-max: both corrupt, stuck-at-max is the harsher payload.\n");
  }

  // ---- A2: heater overdrive power -----------------------------------
  {
    std::printf("\nA2: hotspot heater overdrive power\n");
    sl::core::TextTable table({"overdrive (mW)", "mean acc @5% CONV+FC"});
    for (double mw : {10.0, 25.0, 45.0, 80.0}) {
      sl::attack::CorruptionConfig corruption;
      corruption.hotspot.heater_overdrive_mw = mw;
      const double acc = sweep_mean("Original",
                                    sl::attack::AttackVector::kHotspot, 0.05,
                                    4000, corruption);
      table.add_row({sl::fmt_double(mw, 0), sl::core::pct(acc)});
      csv.row({"A2_overdrive_mw", "mw", sl::fmt_double(mw, 0),
               sl::fmt_double(acc, 4)});
    }
    std::printf("%s", table.render().c_str());
  }

  // ---- A3: tuning compensation capacity -----------------------------
  {
    std::printf("\nA3: tuning-circuit compensation capacity\n");
    sl::core::TextTable table({"compensation (K)", "mean acc @5% CONV+FC"});
    for (double comp : {0.0, 3.0, 10.0, 25.0, 60.0}) {
      sl::attack::CorruptionConfig corruption;
      corruption.hotspot.tuning_compensation_k = comp;
      const double acc = sweep_mean("Original",
                                    sl::attack::AttackVector::kHotspot, 0.05,
                                    5000, corruption);
      table.add_row({sl::fmt_double(comp, 1), sl::core::pct(acc)});
      csv.row({"A3_compensation_k", "kelvin", sl::fmt_double(comp, 1),
               sl::fmt_double(acc, 4)});
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "a hardware counter-measure would need tens of Kelvin of extra\n"
        "compensation range to neutralize hotspot HTs (cf. paper SV: costly).\n");
  }

  // ---- A4: DAC resolution --------------------------------------------
  {
    std::printf("\nA4: DAC resolution (clean deployment, no attack)\n");
    sl::core::TextTable table({"DAC bits", "clean accuracy"});
    for (unsigned bits : {2u, 4u, 6u, 8u, 10u}) {
      auto fresh = zoo.get_or_train(setup, sl::core::variant_by_name("Original"));
      sl::core::ExperimentSetup variant_setup = setup;
      variant_setup.accelerator.dac_bits = bits;
      sl::accel::OnnExecutor executor(variant_setup.accelerator);
      executor.condition_weights(*fresh);
      const double acc = executor.evaluate(
          *fresh, sl::core::make_test_data(setup).take(setup.eval_count));
      table.add_row({std::to_string(bits), sl::core::pct(acc)});
      csv.row({"A4_dac_bits", "bits", std::to_string(bits),
               sl::fmt_double(acc, 4)});
    }
    std::printf("%s", table.render().c_str());
  }

  // ---- A5: trigger probability (partially triggered HT population) ---
  {
    std::printf("\nA5: trigger probability of the implanted HT population\n");
    sl::core::TextTable table(
        {"trigger prob", "mean acc @10% actuation CONV+FC"});
    for (double prob : {0.1, 0.3, 0.6, 1.0}) {
      sl::attack::CorruptionConfig corruption;
      corruption.actuation.trigger.trigger_probability = prob;
      const double acc = sweep_mean("Original",
                                    sl::attack::AttackVector::kActuation, 0.10,
                                    6000, corruption);
      table.add_row({sl::fmt_double(prob, 1), sl::core::pct(acc)});
      csv.row({"A5_trigger_prob", "prob", sl::fmt_double(prob, 1),
               sl::fmt_double(acc, 4)});
    }
    std::printf("%s", table.render().c_str());
  }

  // ---- A6: ADC read-out attack (paper SII.C attack surface) -----------
  {
    std::printf("\nA6: compromised-ADC read-out attack\n");
    sl::core::TextTable table({"payload", "victim ADC fraction",
                               "accuracy"});
    const sl::nn::Dataset eval_data =
        sl::core::make_test_data(setup).take(setup.eval_count);
    for (auto payload : {sl::attack::AdcPayload::kStuckFullScale,
                         sl::attack::AdcPayload::kSignFlip,
                         sl::attack::AdcPayload::kMsbFlip}) {
      for (double fraction : {0.01, 0.05}) {
        auto fresh =
            zoo.get_or_train(setup, sl::core::variant_by_name("Original"));
        sl::accel::OnnExecutor executor(setup.accelerator);
        executor.condition_weights(*fresh);
        sl::attack::AdcAttackConfig adc;
        adc.fraction = fraction;
        adc.payload = payload;
        adc.seed = 77;
        const sl::attack::AdcAttackPlan plan =
            sl::attack::plan_adc_attack(setup.accelerator, adc);
        executor.set_readout_hook(
            [&plan, &setup](sl::nn::Tensor& t, sl::accel::BlockKind kind,
                            float full_scale) {
              const std::size_t rows =
                  setup.accelerator.block(kind).bank_count();
              sl::attack::apply_adc_payload(t, plan, kind, rows, full_scale);
            });
        const double acc = executor.evaluate(*fresh, eval_data);
        table.add_row({sl::attack::to_string(payload),
                       sl::core::pct(fraction), sl::core::pct(acc)});
        csv.row({"A6_adc_" + sl::attack::to_string(payload), "fraction",
                 sl::fmt_double(fraction, 2), sl::fmt_double(acc, 4)});
      }
    }
    std::printf("%s", table.render().c_str());
  }

  // ---- A7: software + lightweight hardware mitigation (paper SVII) ----
  {
    std::printf(
        "\nA7: thermal-sentinel quarantine (hardware) on top of software\n"
        "    mitigation, 5%% hotspot CONV+FC\n");
    sl::core::TextTable table(
        {"spare banks", "Original model", "robust (l2+n3) model"});
    // Train the robust variant up front (verbose) before the sweeps load it.
    zoo.get_or_train(setup, sl::core::variant_by_name("l2+n3"), true);
    for (double spare : {0.0, 0.02, 0.05, 0.10}) {
      sl::attack::CorruptionConfig corruption;
      corruption.quarantine.enabled = spare > 0.0;
      corruption.quarantine.spare_bank_fraction = spare;
      const double acc_orig = sweep_mean(
          "Original", sl::attack::AttackVector::kHotspot, 0.05, 7000,
          corruption);
      const double acc_robust = sweep_mean(
          "l2+n3", sl::attack::AttackVector::kHotspot, 0.05, 7000, corruption);
      table.add_row({sl::core::pct(spare), sl::core::pct(acc_orig),
                     sl::core::pct(acc_robust)});
      csv.row({"A7_quarantine", "spare_fraction", sl::fmt_double(spare, 2),
               sl::fmt_double(acc_robust, 4)});
    }
    std::printf("%s", table.render().c_str());
    std::printf(
        "combining noise-aware training with a few %% of spare banks\n"
        "recovers most of the hotspot damage (paper SVII ongoing work).\n");
  }

  std::printf("\nCSV written to %s/ablation_attacks.csv\n",
              sl::bench::out_dir().c_str());
  return 0;
}
