#include "core/zoo.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/fingerprint.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "nn/serialize.hpp"

namespace safelight::core {

namespace {

/// Deletes every `*.tmp` file in `directory` with a warning line.
/// nn::save_model stages each entry as `<entry>.tmp` + atomic rename; a
/// crash between the two leaves the orphan behind, and nothing else would
/// ever reclaim it. Run once per zoo, before anything in this process
/// trains into the directory.
void sweep_orphaned_temp_files(const std::string& directory) {
  std::error_code ec;
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) return;  // directory unreadable: nothing to sweep
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || entry.path().extension() != ".tmp") {
      continue;
    }
    std::error_code remove_ec;
    std::filesystem::remove(entry.path(), remove_ec);
    if (!remove_ec) {
      log::warn("zoo",
                "removed orphaned temp file %s (left by an "
                "interrupted writer)",
                entry.path().c_str());
    }
  }
}

}  // namespace

ModelZoo::ModelZoo(std::string directory) : directory_(std::move(directory)) {
  if (directory_.empty()) directory_ = config::zoo_dir();
  std::filesystem::create_directories(directory_);
  sweep_orphaned_temp_files(directory_);
}

namespace {

/// Short fingerprint of everything that influences a trained entry: model
/// hyper-parameters, dataset recipe and training configuration. Changing
/// any of them retrains instead of silently loading a stale cache.
std::string config_fingerprint(const ExperimentSetup& setup,
                               const VariantSpec& variant) {
  const nn::TrainConfig train = apply_variant(setup.base_train, variant);
  Fingerprint fp;
  fp.mix_u64(setup.model_config.image_size)
      .mix_u64(setup.model_config.width)
      .mix_u64(setup.model_config.fc_dim)
      .mix_double(setup.model_config.dropout)
      .mix_u64(setup.model_config.seed)
      .mix_u64(setup.train_data.count)
      .mix_u64(setup.train_data.seed)
      .mix_double(setup.train_data.noise)
      .mix_u64(train.epochs)
      .mix_u64(train.batch_size)
      .mix_double(train.lr)
      .mix_double(train.momentum)
      .mix_double(train.weight_decay)
      .mix_double(train.noise.sigma)
      .mix_u64(static_cast<std::uint64_t>(train.noise.mode))
      .mix_u64(train.seed);
  return fp.hex8();
}

}  // namespace

std::string ModelZoo::entry_path(const ExperimentSetup& setup,
                                 const VariantSpec& variant) const {
  return directory_ + "/" + setup.tag() + "_" + variant.name + "_" +
         config_fingerprint(setup, variant) + ".slw";
}

bool ModelZoo::has_entry(const ExperimentSetup& setup,
                         const VariantSpec& variant) {
  auto model = nn::make_model(setup.model, setup.model_config);
  return nn::model_file_matches(*model, entry_path(setup, variant));
}

std::mutex& ModelZoo::entry_lock(const std::string& path) {
  std::lock_guard<std::mutex> guard(mutex_);
  return entry_locks_[path];  // std::map nodes are stable across inserts
}

std::unique_ptr<nn::Sequential> ModelZoo::get_or_train(
    const ExperimentSetup& setup, const VariantSpec& variant, bool verbose) {
  auto model = nn::make_model(setup.model, setup.model_config);
  const std::string path = entry_path(setup, variant);
  // Per-entry serialization: under concurrent callers (serve slots) the
  // first one through trains and saves; the rest block here and then take
  // the cache-hit branch. Distinct entries proceed in parallel.
  std::lock_guard<std::mutex> train_once(entry_lock(path));
  if (nn::try_load_model(*model, path)) return model;

  if (verbose) {
    std::printf("[zoo] training %s / %s ...\n", setup.tag().c_str(),
                variant.name.c_str());
    std::fflush(stdout);
  }
  // Counts *actual* trainings (cache hits skip this) — the train-exactly-
  // once stress test asserts it stays at one per entry under contention.
  static metrics::Counter& trainings = metrics::counter("zoo.trainings");
  trainings.add();
  trace::Span train_span("zoo", "zoo.train");
  if (train_span.active()) {
    train_span.arg("model", nn::to_string(setup.model))
        .arg("variant", variant.name);
  }
  const nn::Dataset train = make_train_data(setup);
  // Only --verbose prints per-epoch test accuracy, so only it builds the
  // test set; evaluating changes no weight.
  const nn::Dataset test = verbose ? make_test_data(setup) : nn::Dataset{};
  nn::TrainConfig config = apply_variant(setup.base_train, variant);
  config.verbose = verbose;
  const nn::TrainHistory history = train_model(*model, train, test, config);
  if (verbose) {
    std::printf("[zoo] %s / %s trained: test acc %.4f\n", setup.tag().c_str(),
                variant.name.c_str(), history.final_test_acc);
    std::fflush(stdout);
  }
  // Crash here: the training work is lost but nothing is on disk; a resumed
  // run retrains deterministically to bit-identical weights (golden-pinned).
  fault::ptp("zoo.entry.train_save");
  nn::save_model(*model, path);
  return model;
}

}  // namespace safelight::core
