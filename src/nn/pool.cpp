#include "nn/pool.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace safelight::nn {

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  require(window >= 1, "MaxPool2d: window must be >= 1");
}

Shape MaxPool2d::output_shape(const Shape& in) const {
  require(in.size() == 4, "MaxPool2d: expected [N,C,H,W]");
  require(in[2] >= window_ && in[3] >= window_,
          "MaxPool2d: input smaller than window");
  return {in[0], in[1], in[2] / window_, in[3] / window_};
}

Tensor MaxPool2d::forward(const Tensor& x, bool train) {
  const Shape out_shape = output_shape(x.shape());
  const std::size_t in_w = x.dim(3);
  const std::size_t in_hw = x.dim(2) * in_w;
  const std::size_t out_h = out_shape[2], out_w = out_shape[3];
  const std::size_t out_hw = out_h * out_w;
  Tensor out(out_shape);
  if (train) {
    argmax_.resize(out.numel());
    cached_in_shape_ = x.shape();
  }
  const std::size_t win = window_;
  const float* in = x.data();
  float* o = out.data();
  std::size_t* argmax = train ? argmax_.data() : nullptr;
  // Planes are independent; a chunk spans at least kElementGrain inputs.
  parallel_for_chunks(
      0, x.dim(0) * x.dim(1),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          const float* plane = in + p * in_hw;
          std::size_t oi = p * out_hw;
          for (std::size_t oh = 0; oh < out_h; ++oh) {
            for (std::size_t ow = 0; ow < out_w; ++ow, ++oi) {
              const std::size_t first = (oh * win) * in_w + ow * win;
              float best = plane[first];
              std::size_t best_idx = first;
              // Branch-free select (a branch here mispredicts on random
              // data): the strict `>` keeps the first maximum, a later NaN
              // never wins, and a NaN first value is never beaten.
              for (std::size_t dy = 0; dy < win; ++dy) {
                for (std::size_t dx = 0; dx < win; ++dx) {
                  const std::size_t idx = first + dy * in_w + dx;
                  const bool gt = plane[idx] > best;
                  best = gt ? plane[idx] : best;
                  best_idx = gt ? idx : best_idx;
                }
              }
              o[oi] = best;
              if (argmax != nullptr) argmax[oi] = p * in_hw + best_idx;
            }
          }
        }
      },
      std::max<std::size_t>(1, kElementGrain / in_hw));
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  require(!argmax_.empty(),
          "MaxPool2d::backward called without forward(train=true)");
  require(grad_out.numel() == argmax_.size(),
          "MaxPool2d::backward: grad size mismatch");
  Tensor grad_in(cached_in_shape_);
  float* gi = grad_in.data();
  const float* go = grad_out.data();
  const std::size_t* argmax = argmax_.data();
  // Windows do not overlap, so every output scatters into its own input.
  parallel_for_chunks(
      0, grad_out.numel(),
      [gi, go, argmax](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) gi[argmax[i]] += go[i];
      },
      kElementGrain);
  return grad_in;
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(" + std::to_string(window_) + ")";
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  require(in.size() == 4, "GlobalAvgPool: expected [N,C,H,W]");
  return {in[0], in[1], 1, 1};
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool train) {
  const Shape out_shape = output_shape(x.shape());
  const std::size_t batch = x.dim(0), ch = x.dim(1);
  const std::size_t hw = x.dim(2) * x.dim(3);
  Tensor out(out_shape);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float* plane = x.data() + (n * ch + c) * hw;
      double acc = 0.0;
      for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
      out[n * ch + c] = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
  if (train) cached_in_shape_ = x.shape();
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  require(!cached_in_shape_.empty(),
          "GlobalAvgPool::backward called without forward(train=true)");
  const std::size_t batch = cached_in_shape_[0], ch = cached_in_shape_[1];
  const std::size_t hw = cached_in_shape_[2] * cached_in_shape_[3];
  require(grad_out.numel() == batch * ch,
          "GlobalAvgPool::backward: grad size mismatch");
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(hw);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float g = grad_out[n * ch + c] * inv;
      float* plane = grad_in.data() + (n * ch + c) * hw;
      for (std::size_t i = 0; i < hw; ++i) plane[i] = g;
    }
  }
  return grad_in;
}

Shape Flatten::output_shape(const Shape& in) const {
  require(!in.empty(), "Flatten: empty shape");
  std::size_t features = 1;
  for (std::size_t i = 1; i < in.size(); ++i) features *= in[i];
  return {in[0], features};
}

Tensor Flatten::forward(const Tensor& x, bool train) {
  if (train) cached_in_shape_ = x.shape();
  return x.reshaped(output_shape(x.shape()));
}

Tensor Flatten::backward(const Tensor& grad_out) {
  require(!cached_in_shape_.empty(),
          "Flatten::backward called without forward(train=true)");
  return grad_out.reshaped(cached_in_shape_);
}

}  // namespace safelight::nn
