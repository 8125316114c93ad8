#include "core/evaluation.hpp"

#include <cstring>
#include <filesystem>

#include "common/fingerprint.hpp"
#include "common/metrics.hpp"
#include "nn/serialize.hpp"

namespace safelight::core {

std::string weights_checksum(nn::Sequential& model) {
  Fingerprint fp;
  for (nn::Param* p : model.params()) {
    fp.mix_bytes(p->value.data(), p->value.numel() * sizeof(float));
  }
  return fp.hex16();
}

namespace {

/// Batch size shared by all evaluator entry points; prefix activations are
/// cached per batch, so producer and consumer must agree on it.
constexpr std::size_t kEvalBatch = 64;

/// Upper bound on floats held by one PrefixCache (~256 MB), which bounds
/// prefix memory per pipeline sweep. Boundaries that would push past it
/// fall back to plain evaluation instead of exhausting memory.
constexpr std::size_t kMaxPrefixFloats = 64u << 20;

}  // namespace

const PrefixCache::Activations* PrefixCache::get(
    std::size_t boundary, std::size_t floats,
    const std::function<Activations()>& build) {
  Entry* entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(boundary);
    if (it == entries_.end()) {
      if (floats_ + floats > kMaxPrefixFloats) return nullptr;
      floats_ += floats;
      it = entries_.try_emplace(boundary).first;
    }
    entry = &it->second;
  }
  // Built outside the map lock, so builds of different boundaries overlap;
  // callers of this boundary wait here for its one build.
  std::call_once(entry->built, [&] { entry->activations = build(); });
  return &entry->activations;
}

std::size_t PrefixCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

AttackEvaluator::AttackEvaluator(const ExperimentSetup& setup,
                                 nn::Sequential& model,
                                 std::string variant_name,
                                 std::string cache_dir,
                                 attack::CorruptionConfig corruption,
                                 std::shared_ptr<PrefixCache> prefix_cache)
    : setup_(setup), model_(model), variant_name_(std::move(variant_name)),
      executor_(setup.accelerator),
      mapping_(executor_.condition_weights(model), setup.accelerator),
      clean_snapshot_(nn::snapshot_state(model)),
      corruption_(std::move(corruption)),
      prefix_cache_(prefix_cache ? std::move(prefix_cache)
                                 : std::make_shared<PrefixCache>()) {
  std::string cache_path;
  if (!cache_dir.empty()) {
    std::filesystem::create_directories(cache_dir);
    // The corruption fingerprint is part of the file name so evaluators
    // with ablated physics never read each other's entries.
    cache_path = cache_dir + "/" + setup_.tag() + "_" + variant_name_ + "_" +
                 weights_checksum(model_) + "_" +
                 attack::config_fingerprint(corruption_) + ".csv";
  }
  cache_ = std::make_unique<ResultStore>(cache_path);

  // Clean copies of every mapped parameter, grouped by layer in layer
  // order: the byte-comparison base for first_dirty_layer().
  for (std::size_t i = 0; i < model_.size(); ++i) {
    std::vector<std::pair<const nn::Param*, nn::Tensor>> mapped;
    for (nn::Param* p : model_.layer(i).params()) {
      if (p->kind == nn::ParamKind::kElectronic) continue;
      mapped.emplace_back(p, p->value);
    }
    if (!mapped.empty()) clean_mapped_.emplace_back(i, std::move(mapped));
  }
}

std::string AttackEvaluator::cache_key(const std::string& scenario_id) {
  return scenario_id + "/n" + std::to_string(eval_data().size());
}

void AttackEvaluator::restore_clean() {
  nn::restore_state(model_, clean_snapshot_);
}

std::size_t AttackEvaluator::first_dirty_layer() const {
  for (const auto& [layer, mapped] : clean_mapped_) {
    for (const auto& [param, clean] : mapped) {
      if (std::memcmp(param->value.data(), clean.data(),
                      clean.numel() * sizeof(float)) != 0) {
        return layer;
      }
    }
  }
  return model_.size();
}

PrefixCache::Activations AttackEvaluator::clean_prefix(std::size_t layer) {
  static metrics::Counter& builds =
      metrics::counter("prefix_cache.boundary_builds");
  builds.add();
  // The model currently carries the attacked weights; the prefix must be
  // computed with the clean ones. Corrupted state is parked and restored
  // around the computation — a few tensor copies, once per boundary.
  std::vector<nn::Tensor> attacked = nn::snapshot_state(model_);
  nn::restore_state(model_, clean_snapshot_);
  auto prefix =
      executor_.prefix_activations(model_, eval_data(), layer, kEvalBatch);
  nn::restore_state(model_, attacked);
  return prefix;
}

const nn::Dataset& AttackEvaluator::eval_data() {
  if (!eval_data_) {
    eval_data_ = make_test_data(setup_).take(setup_.eval_count);
  }
  return *eval_data_;
}

std::size_t AttackEvaluator::prefix_floats(std::size_t layer) {
  nn::Shape shape = eval_data().sample_shape();
  shape.insert(shape.begin(), kEvalBatch);
  for (std::size_t i = 0; i < layer; ++i) {
    shape = model_.layer(i).output_shape(shape);
  }
  const std::size_t batches =
      (eval_data().size() + kEvalBatch - 1) / kEvalBatch;
  return batches * nn::shape_numel(shape);
}

double AttackEvaluator::evaluate_attacked() {
  static metrics::Counter& hits = metrics::counter("prefix_cache.hits");
  static metrics::Counter& misses = metrics::counter("prefix_cache.misses");
  // A mutating read-out hook (ADC trojan) corrupts the outputs of *clean*
  // layers too, so cached clean activations would be wrong. Observing hooks
  // (range monitors, telemetry taps) never modify activations and keep the
  // cache valid — they just see only the layers after the resume boundary.
  // A dirty layer 0 leaves nothing cacheable.
  const std::size_t dirty =
      prefix_cache_enabled_ && !executor_.has_mutating_readout_hook()
          ? first_dirty_layer()
          : 0;
  const PrefixCache::Activations* prefix =
      dirty == 0 ? nullptr
                 : prefix_cache_->get(dirty, prefix_floats(dirty),
                                      [&] { return clean_prefix(dirty); });
  if (prefix == nullptr) {
    misses.add();
    return executor_.evaluate(model_, eval_data(), kEvalBatch);
  }
  ++prefix_hits_;
  hits.add();
  return executor_.evaluate_from(model_, eval_data(), dirty, *prefix,
                                 kEvalBatch);
}

double AttackEvaluator::baseline_accuracy() {
  const std::string key = cache_key("baseline");
  if (const auto cached = cache_->lookup(key)) return *cached;
  restore_clean();
  const double accuracy = executor_.evaluate(model_, eval_data(), kEvalBatch);
  cache_->put(key, accuracy);
  return accuracy;
}

double AttackEvaluator::evaluate_scenario(
    const attack::AttackScenario& scenario) {
  const std::string key = cache_key(scenario.id());
  if (const auto cached = cache_->lookup(key)) return *cached;

  apply_scenario(scenario);
  const double accuracy = evaluate_attacked();
  restore_clean();

  cache_->put(key, accuracy);
  return accuracy;
}

attack::CorruptionStats AttackEvaluator::apply_scenario(
    const attack::AttackScenario& scenario) {
  restore_clean();
  last_stats_ = attack::apply_attack(mapping_, scenario, corruption_);
  return last_stats_;
}

attack::CorruptionStats AttackEvaluator::apply_composite(
    const attack::CompositeScenario& composite) {
  restore_clean();
  last_stats_ = attack::apply_composite(mapping_, composite, corruption_);
  return last_stats_;
}

double AttackEvaluator::evaluate_composite(
    const attack::CompositeScenario& composite) {
  const std::string key = cache_key(composite.id());
  if (const auto cached = cache_->lookup(key)) return *cached;

  apply_composite(composite);
  const double accuracy = evaluate_attacked();
  restore_clean();

  cache_->put(key, accuracy);
  return accuracy;
}

}  // namespace safelight::core
