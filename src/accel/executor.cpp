#include "accel/executor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace safelight::accel {

OnnExecutor::OnnExecutor(AcceleratorConfig config, ExecutorOptions options)
    : config_(std::move(config)), options_(options) {
  config_.validate();
}

void OnnExecutor::pop_readout_hook() {
  require(!readout_hooks_.empty(),
          "OnnExecutor::pop_readout_hook: hook stack is empty");
  readout_hooks_.pop_back();
}

nn::Sequential& OnnExecutor::condition_weights(nn::Sequential& model) const {
  if (!options_.quantize_weights) return model;
  const phot::Dac dac(
      phot::QuantizerConfig{config_.dac_bits, -1.0, 1.0});
  for (nn::Param* p : model.params()) {
    if (p->kind == nn::ParamKind::kElectronic) continue;
    float scale = p->value.abs_max();
    if (scale == 0.0f) continue;
    // One divide per tensor, not per element: the per-element work inside
    // every quantized pass is a multiply by the reciprocal.
    const double inv_scale = 1.0 / static_cast<double>(scale);
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      const double normalized = static_cast<double>(p->value[i]) * inv_scale;
      p->value[i] = static_cast<float>(dac.quantize(normalized) * scale);
    }
  }
  return model;
}

namespace {

bool layer_is_mapped(nn::Layer& layer) {
  for (nn::Param* p : layer.params()) {
    if (p->kind != nn::ParamKind::kElectronic) return true;
  }
  return false;
}

/// Which block computed this layer: conv weights -> CONV, else FC.
BlockKind layer_block(nn::Layer& layer) {
  for (nn::Param* p : layer.params()) {
    if (p->kind == nn::ParamKind::kConvWeight) return BlockKind::kConv;
  }
  return BlockKind::kFc;
}

void quantize_activations(nn::Tensor& t, const phot::Adc& adc) {
  float scale = t.abs_max();
  if (scale == 0.0f) return;
  const double inv_scale = 1.0 / static_cast<double>(scale);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const double normalized = static_cast<double>(t[i]) * inv_scale;
    t[i] = static_cast<float>(adc.quantize(normalized) * scale);
  }
}

}  // namespace

nn::Tensor OnnExecutor::walk(nn::Sequential& model, const nn::Tensor& h,
                             std::size_t begin_layer,
                             std::size_t end_layer) const {
  require(begin_layer <= end_layer && end_layer <= model.size(),
          "OnnExecutor::walk: layer window out of range");
  const phot::Adc adc(phot::QuantizerConfig{config_.adc_bits, -1.0, 1.0});
  nn::Tensor cur = h;
  for (std::size_t i = begin_layer; i < end_layer; ++i) {
    nn::Layer& layer = model.layer(i);
    cur = layer.forward(cur, /*train=*/false);
    if (!layer_is_mapped(layer)) continue;
    if (options_.quantize_activations) quantize_activations(cur, adc);
    for (const HookEntry& entry : readout_hooks_) {
      entry.hook(cur, layer_block(layer), cur.abs_max());
    }
  }
  return cur;
}

nn::Tensor OnnExecutor::forward(nn::Sequential& model,
                                const nn::Tensor& x) const {
  return walk(model, x, 0, model.size());
}

nn::Tensor OnnExecutor::forward_prefix(nn::Sequential& model,
                                       const nn::Tensor& x,
                                       std::size_t end_layer) const {
  return walk(model, x, 0, end_layer);
}

nn::Tensor OnnExecutor::forward_from(nn::Sequential& model,
                                     const nn::Tensor& h,
                                     std::size_t begin_layer) const {
  return walk(model, h, begin_layer, model.size());
}

std::size_t OnnExecutor::count_correct(const nn::Tensor& logits,
                                       const std::vector<int>& labels) {
  require(logits.rank() == 2, "OnnExecutor: output must be [N,C]");
  const std::size_t classes = logits.dim(1);
  std::size_t correct = 0;
  for (std::size_t n = 0; n < labels.size(); ++n) {
    const float* row = logits.data() + n * classes;
    const auto pred = static_cast<int>(
        std::max_element(row, row + classes) - row);
    if (pred == labels[n]) ++correct;
  }
  return correct;
}

double OnnExecutor::evaluate(nn::Sequential& model, const nn::Dataset& data,
                             std::size_t batch_size) const {
  require(data.size() > 0, "OnnExecutor::evaluate: empty dataset");
  std::size_t correct = 0;
  for (std::size_t begin = 0; begin < data.size(); begin += batch_size) {
    const std::size_t end = std::min(data.size(), begin + batch_size);
    auto [images, labels] = data.batch(begin, end);
    const nn::Tensor logits = forward(model, images);
    correct += count_correct(logits, labels);
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

std::vector<nn::Tensor> OnnExecutor::prefix_activations(
    nn::Sequential& model, const nn::Dataset& data, std::size_t end_layer,
    std::size_t batch_size) const {
  require(data.size() > 0, "OnnExecutor::prefix_activations: empty dataset");
  std::vector<nn::Tensor> prefix;
  prefix.reserve((data.size() + batch_size - 1) / batch_size);
  for (std::size_t begin = 0; begin < data.size(); begin += batch_size) {
    const std::size_t end = std::min(data.size(), begin + batch_size);
    auto [images, labels] = data.batch(begin, end);
    (void)labels;
    prefix.push_back(forward_prefix(model, images, end_layer));
  }
  return prefix;
}

double OnnExecutor::evaluate_from(nn::Sequential& model,
                                  const nn::Dataset& data,
                                  std::size_t begin_layer,
                                  const std::vector<nn::Tensor>& prefix,
                                  std::size_t batch_size) const {
  require(data.size() > 0, "OnnExecutor::evaluate_from: empty dataset");
  require(prefix.size() == (data.size() + batch_size - 1) / batch_size,
          "OnnExecutor::evaluate_from: prefix/batch count mismatch");
  std::size_t correct = 0;
  std::size_t batch_index = 0;
  for (std::size_t begin = 0; begin < data.size(); begin += batch_size) {
    const std::size_t end = std::min(data.size(), begin + batch_size);
    // Only the labels are needed: the images were already consumed when the
    // prefix was computed, so slicing avoids a per-batch image-tensor copy.
    const std::vector<int> labels(
        data.labels.begin() + static_cast<std::ptrdiff_t>(begin),
        data.labels.begin() + static_cast<std::ptrdiff_t>(end));
    const nn::Tensor logits =
        forward_from(model, prefix[batch_index++], begin_layer);
    correct += count_correct(logits, labels);
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

}  // namespace safelight::accel
