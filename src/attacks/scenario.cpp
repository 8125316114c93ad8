#include "attacks/scenario.hpp"

#include <sstream>

#include "common/error.hpp"

namespace safelight::attack {

std::string to_string(AttackVector vector) {
  switch (vector) {
    case AttackVector::kActuation: return "actuation";
    case AttackVector::kHotspot: break;
  }
  return "hotspot";
}

std::string to_string(AttackTarget target) {
  switch (target) {
    case AttackTarget::kConvBlock: return "CONV";
    case AttackTarget::kFcBlock: return "FC";
    case AttackTarget::kBothBlocks: break;
  }
  return "CONV+FC";
}

void AttackScenario::validate() const {
  require(fraction >= 0.0 && fraction <= 1.0,
          "AttackScenario: fraction must be in [0,1]");
}

std::string AttackScenario::id() const {
  std::ostringstream os;
  os << to_string(vector) << '/' << to_string(target) << "/f" << fraction
     << "/s" << seed;
  return os.str();
}

std::vector<AttackScenario> scenario_grid(
    const std::vector<AttackVector>& vectors,
    const std::vector<AttackTarget>& targets,
    const std::vector<double>& fractions, std::size_t seed_count,
    std::uint64_t base_seed) {
  require(seed_count > 0, "scenario_grid: need at least one seed");
  // fraction == 0 is a valid *descriptor* (apply_attack treats it as an
  // explicit no-op) but never a meaningful grid cell: it would sweep the
  // clean baseline seed_count times under attack ids. Reject it here rather
  // than silently diluting every aggregate with clean rows.
  for (double fraction : fractions) {
    require(fraction > 0.0,
            "scenario_grid: zero-fraction grid cell (use the baseline "
            "evaluation for the clean case)");
  }
  std::vector<AttackScenario> grid;
  grid.reserve(vectors.size() * targets.size() * fractions.size() *
               seed_count);
  for (AttackVector vector : vectors) {
    for (AttackTarget target : targets) {
      for (double fraction : fractions) {
        for (std::size_t s = 0; s < seed_count; ++s) {
          AttackScenario scenario;
          scenario.vector = vector;
          scenario.target = target;
          scenario.fraction = fraction;
          scenario.seed = base_seed + s;
          scenario.validate();
          grid.push_back(scenario);
        }
      }
    }
  }
  return grid;
}

std::vector<AttackScenario> paper_scenario_grid(std::size_t seed_count,
                                                std::uint64_t base_seed) {
  return scenario_grid(
      {AttackVector::kActuation, AttackVector::kHotspot},
      {AttackTarget::kConvBlock, AttackTarget::kFcBlock,
       AttackTarget::kBothBlocks},
      {0.01, 0.05, 0.10}, seed_count, base_seed);
}

}  // namespace safelight::attack
