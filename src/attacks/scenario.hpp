// Attack scenario descriptors (paper §IV).
//
// The susceptibility analysis sweeps nine cases per attack vector: targeting
// the CONV block, the FC block, or the whole accelerator, at 1 %, 5 % and
// 10 % attack intensity, each with 10 uniformly distributed random trojan
// placements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace safelight::attack {

/// Physical attack mechanism (paper §III.B): EO actuation-circuit parking
/// of individual MRs vs TO heater-overdrive thermal hotspots.
enum class AttackVector { kActuation, kHotspot };

/// Which accelerator block the trojan population is implanted in.
enum class AttackTarget { kConvBlock, kFcBlock, kBothBlocks };

/// Human-readable names ("actuation"/"hotspot", "CONV"/"FC"/"CONV+FC").
std::string to_string(AttackVector vector);
std::string to_string(AttackTarget target);

/// One attack case of the paper's §IV grid.
struct AttackScenario {
  AttackVector vector = AttackVector::kActuation;
  AttackTarget target = AttackTarget::kBothBlocks;
  double fraction = 0.0;   // fraction of the targeted MR population
  std::uint64_t seed = 0;  // trojan placement seed

  void validate() const;

  /// Stable identifier, e.g. "hotspot/CONV+FC/f0.05/s3" — used as cache key.
  std::string id() const;
};

/// Cartesian scenario grid: vectors x targets x fractions x seeds.
/// Seeds are 0..seed_count-1 combined with base_seed.
std::vector<AttackScenario> scenario_grid(
    const std::vector<AttackVector>& vectors,
    const std::vector<AttackTarget>& targets,
    const std::vector<double>& fractions, std::size_t seed_count,
    std::uint64_t base_seed = 1000);

/// The paper's default grid: both vectors, all three targets,
/// {1 %, 5 %, 10 %}, `seed_count` placements each.
std::vector<AttackScenario> paper_scenario_grid(std::size_t seed_count = 10,
                                                std::uint64_t base_seed = 1000);

}  // namespace safelight::attack
