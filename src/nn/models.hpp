// Builders for the paper's three CNN models (Table I).
//
//   CNN_1    — LeNet-5-shaped MNIST classifier: 2 conv + 3 FC layers.
//   ResNet18 — 17 conv + 1 FC (basic blocks 2-2-2-2, option-A shortcuts).
//   VGG16_v  — VGG16 variant with 6 conv + 3 FC layers.
//
// Each builder takes a ModelConfig so the experiments can run
// width/resolution-reduced instances on the 2-core reproduction host while
// the same code constructs the full-scale models (see nn/model_spec.hpp for
// the analytic Table I parameter counts, which avoid allocating the 123.5M
// parameter VGG16_v).
#pragma once

#include <memory>
#include <vector>

#include "nn/sequential.hpp"

namespace safelight::nn {

struct ModelConfig {
  std::size_t in_channels = 1;
  std::size_t image_size = 28;
  std::size_t classes = 10;
  /// Base width. CNN_1 ignores it (fixed LeNet layout); ResNet18 uses it as
  /// the stem width (paper scale: 64); VGG16_v multiplies the conv ladder
  /// [64,128,128,256,512,512] by width/64.
  std::size_t width = 64;
  /// VGG16_v hidden classifier width (paper scale: 4096).
  std::size_t fc_dim = 4096;
  /// VGG16_v dropout probability in the classifier (0 disables).
  float dropout = 0.5f;
  std::uint64_t seed = 7;
};

/// Model identifiers used throughout benches, the zoo, and reports.
enum class ModelId { kCnn1, kResNet18, kVgg16v };

std::string to_string(ModelId id);
ModelId model_id_from_string(const std::string& name);

/// The paper's three CNN models, in figure order (the default model set of
/// the `safelight` CLI).
std::vector<ModelId> paper_models();

std::unique_ptr<Sequential> make_cnn1(const ModelConfig& config);
std::unique_ptr<Sequential> make_resnet18(const ModelConfig& config);
std::unique_ptr<Sequential> make_vgg16v(const ModelConfig& config);

/// Dispatch by id.
std::unique_ptr<Sequential> make_model(ModelId id, const ModelConfig& config);

}  // namespace safelight::nn
