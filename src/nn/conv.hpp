// 2-D convolution layer, lowered onto the packed GEMM.
//
// Each layer call lowers its batch in groups of
// per = clamp(ceil(kMinGemmCols / out_hw), 1, batch) images: the backend's
// pack_conv writes the group's patches, side by side, straight into the
// GEMM's kNr-wide B panels (no im2col matrix in between), and one GEMM
// multiplies them by the weights, so layers with tiny outputs (1x1, 2x2)
// fill the kernel's 32-column panels instead of padding them. Large-output
// layers get per = 1, one GEMM per image.
//
// Backward keeps the weight gradient's fixed 8-part batch partition (the
// thread-invariance contract); inside a part, each group's weight gradient
// is one accumulating GEMM over the concatenated (image, pixel) axis, with
// B^T packed straight from the images by pack_conv_bt. The kernel's
// ascending-k single-accumulator reduction makes that bitwise equal to one
// call per image. The input gradient is grouped like forward and scattered
// back with col2im; backward_params (the first layer in training) skips
// it. Every output, gradient and trained weight is therefore
// byte-identical to the per-image im2col lowering (the test reference
// tests/support/im2col.hpp).
#pragma once

#include "nn/backend.hpp"
#include "nn/im2col.hpp"
#include "nn/layer.hpp"

namespace safelight::nn {

/// The conv packers' arguments for `cnt` images of geometry `g` stored back
/// to back from `images`.
backend::ConvPackArgs conv_pack_args(const ConvGeom& g, const float* images,
                                     std::size_t cnt);

class Conv2d final : public Layer {
 public:
  /// Square kernels only (all paper models use square kernels).
  /// Weight shape: [out_c, in_c * k * k]; bias shape: [out_c].
  Conv2d(std::size_t in_c, std::size_t out_c, std::size_t kernel,
         std::size_t stride, std::size_t pad, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  /// backward without the input-gradient GEMM and col2im pass.
  void backward_params(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override;
  Shape output_shape(const Shape& in) const override;

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }
  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t pad() const { return pad_; }

 private:
  ConvGeom geom_for(const Shape& in) const;
  /// The one backward body; returns dL/dx only when `input_grad`.
  Tensor backward_impl(const Tensor& grad_out, bool input_grad);

  std::size_t in_c_, out_c_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;  // only kept when forward(train=true)
};

}  // namespace safelight::nn
