// Shared helpers for the standalone figure/table bench binaries.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/report.hpp"
#include "nn/models.hpp"

namespace safelight::bench {

/// Output directory for bench CSVs (created on demand). Resolution and
/// precedence live in common/config.hpp.
inline std::string out_dir() { return config::out_dir(); }

/// Experiment scale for benches: common/config precedence.
inline Scale bench_scale() { return config::scale(); }

/// Seed-count with a per-bench default: common/config precedence.
inline std::size_t seed_count(std::size_t fallback) {
  return config::seed_count(fallback);
}

inline void banner(const std::string& title) { core::banner(title); }

}  // namespace safelight::bench
