// Model zoo: trains mitigation variants on demand and caches weights.
//
// The experiment benches share trained models through an on-disk cache
// (SAFELIGHT_ZOO, default ./safelight_zoo). Each entry is keyed by
// (model, scale, variant); the cache file stores all parameters plus
// batch-norm running statistics and is integrity-checked on load, so a
// corrupt or architecture-mismatched file triggers retraining instead of
// silent misbehaviour.
//
// Thread safety: one ModelZoo may be shared by concurrent experiment runs
// (the `safelight serve` slots all train through one zoo). get_or_train
// serializes per entry — the first caller of a missing (setup, variant)
// trains and saves it exactly once while every other caller of that entry
// waits and then loads the cached bytes; callers of *different* entries
// never block each other. Training is deterministic, so the cached weights
// are bitwise-identical whether the entry was produced under contention or
// sequentially (stress-tested in serve_test).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/experiment_scale.hpp"
#include "core/variants.hpp"

namespace safelight::core {

class ModelZoo {
 public:
  /// Uses SAFELIGHT_ZOO (or ./safelight_zoo) when `directory` is empty.
  /// Creates the directory when missing, and deletes (with a warning) the
  /// orphaned `*.tmp` files a crashed save_model left in it. Build the zoo
  /// before anything in the process trains into the directory: the CLI,
  /// the daemon (before its slot threads start) and a dist worker (at
  /// start-up; no worker runs while its coordinator trains) all do.
  explicit ModelZoo(std::string directory = "");

  const std::string& directory() const { return directory_; }

  /// Cache file path of a (setup, variant) entry.
  std::string entry_path(const ExperimentSetup& setup,
                         const VariantSpec& variant) const;

  /// Loads the cached model or trains + caches it. The returned model is in
  /// its clean (un-conditioned, un-attacked) trained state. Safe to call
  /// concurrently; each entry trains at most once per process (the
  /// "zoo.trainings" metrics counter counts actual trainings). A cold
  /// training is one `zoo.train` trace span (args: model, variant) and uses
  /// every pool thread when called outside a parallel region; only
  /// `verbose` builds the test set and evaluates it after each epoch. The
  /// saved bytes are the same at any thread count and with or without
  /// `verbose`.
  std::unique_ptr<nn::Sequential> get_or_train(const ExperimentSetup& setup,
                                               const VariantSpec& variant,
                                               bool verbose = false);

  /// True when a structurally valid cache entry exists.
  bool has_entry(const ExperimentSetup& setup, const VariantSpec& variant);

 private:
  /// The per-entry train-once lock, created on first use.
  std::mutex& entry_lock(const std::string& path);

  std::string directory_;
  std::mutex mutex_;  // guards entry_locks_ (node handles stay stable)
  std::map<std::string, std::mutex> entry_locks_;
};

}  // namespace safelight::core
