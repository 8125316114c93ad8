// ResNet basic block with parameter-free (option-A) shortcuts.
//
// The paper's Table I lists ResNet18 with exactly 17 CONV layers and one FC
// layer, which corresponds to identity/option-A shortcuts (projection
// shortcuts would add three more 1x1 conv layers). Option A subsamples
// spatially by the block stride and zero-pads the channel dimension.
#pragma once

#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/layer.hpp"

namespace safelight::nn {

class BasicBlock final : public Layer {
 public:
  /// conv(3x3, stride) -> BN -> ReLU -> conv(3x3, 1) -> BN, plus shortcut.
  BasicBlock(std::size_t in_c, std::size_t out_c, std::size_t stride,
             Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::vector<Tensor*> state_tensors() override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;

 private:
  Tensor shortcut_forward(const Tensor& x) const;
  Tensor shortcut_backward(const Tensor& grad, const Shape& in_shape) const;

  std::size_t in_c_, out_c_, stride_;
  Conv2d conv1_;
  BatchNorm2d bn1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  std::vector<unsigned char> relu1_mask_;  // 1 where the ReLU passed
  std::vector<unsigned char> relu2_mask_;
  Shape cached_in_shape_;
};

}  // namespace safelight::nn
