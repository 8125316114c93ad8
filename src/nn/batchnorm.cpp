#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace safelight::nn {

BatchNorm2d::BatchNorm2d(std::size_t channels, float momentum, float eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  require(channels > 0, "BatchNorm2d: channels must be positive");
  require(momentum > 0.0f && momentum <= 1.0f,
          "BatchNorm2d: momentum must be in (0,1]");
  gamma_ = Param("bn.gamma", ParamKind::kElectronic,
                 Tensor::full({channels_}, 1.0f));
  beta_ = Param("bn.beta", ParamKind::kElectronic, Tensor({channels_}));
  running_mean_ = Tensor({channels_});
  running_var_ = Tensor::full({channels_}, 1.0f);
}

Shape BatchNorm2d::output_shape(const Shape& in) const {
  require(in.size() == 4 && in[1] == channels_,
          "BatchNorm2d: expected [N," + std::to_string(channels_) + ",H,W]");
  return in;
}

namespace {

/// Channels per pool chunk: enough that a chunk spans kElementGrain floats.
std::size_t channel_grain(std::size_t per_channel) {
  return std::max<std::size_t>(1, kElementGrain / std::max<std::size_t>(
                                                     1, per_channel));
}

}  // namespace

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  (void)output_shape(x.shape());
  const std::size_t batch = x.dim(0), hw = x.dim(2) * x.dim(3);
  const std::size_t per_channel = batch * hw;
  Tensor out(x.shape());

  if (train) {
    cached_input_ = x;
    batch_mean_.assign(channels_, 0.0);
    batch_var_.assign(channels_, 0.0);
  } else {
    cached_input_ = Tensor();
  }
  // Channels are independent: each one's statistics, running-stat update
  // and normalization run inside one chunk, in the serial order.
  parallel_for_chunks(
      0, channels_,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          float mean = 0.0f, inv_std = 0.0f;
          if (train) {
            double sum = 0.0, sq = 0.0;
            for (std::size_t n = 0; n < batch; ++n) {
              const float* plane = x.data() + (n * channels_ + c) * hw;
              for (std::size_t i = 0; i < hw; ++i) {
                sum += plane[i];
                sq += static_cast<double>(plane[i]) * plane[i];
              }
            }
            const double batch_mean = sum / static_cast<double>(per_channel);
            // Biased variance, matching the normalization used in backward.
            const double var = sq / static_cast<double>(per_channel) -
                               batch_mean * batch_mean;
            batch_mean_[c] = batch_mean;
            batch_var_[c] = var < 0.0 ? 0.0 : var;
            running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                               momentum_ * static_cast<float>(batch_mean);
            running_var_[c] = (1.0f - momentum_) * running_var_[c] +
                              momentum_ * static_cast<float>(batch_var_[c]);
            inv_std =
                1.0f / std::sqrt(static_cast<float>(batch_var_[c]) + eps_);
            mean = static_cast<float>(batch_mean);
          } else {
            inv_std = 1.0f / std::sqrt(running_var_[c] + eps_);
            mean = running_mean_[c];
          }
          const float g = gamma_.value[c], b = beta_.value[c];
          for (std::size_t n = 0; n < batch; ++n) {
            const float* in_plane = x.data() + (n * channels_ + c) * hw;
            float* out_plane = out.data() + (n * channels_ + c) * hw;
            for (std::size_t i = 0; i < hw; ++i) {
              out_plane[i] = (in_plane[i] - mean) * inv_std * g + b;
            }
          }
        }
      },
      channel_grain(per_channel));
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  require(!cached_input_.empty(),
          "BatchNorm2d::backward called without forward(train=true)");
  const Tensor& x = cached_input_;
  require(grad_out.shape() == x.shape(),
          "BatchNorm2d::backward: grad shape mismatch");
  const std::size_t batch = x.dim(0), hw = x.dim(2) * x.dim(3);
  const auto m = static_cast<double>(batch * hw);
  Tensor grad_in(x.shape());

  parallel_for_chunks(
      0, channels_,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          const double mean = batch_mean_[c];
          const double var = batch_var_[c];
          const double inv_std =
              1.0 / std::sqrt(var + static_cast<double>(eps_));
          const double g = gamma_.value[c];

          // First pass: sum(dy), sum(dy * xhat).
          double sum_dy = 0.0, sum_dy_xhat = 0.0;
          for (std::size_t n = 0; n < batch; ++n) {
            const float* xp = x.data() + (n * channels_ + c) * hw;
            const float* gp = grad_out.data() + (n * channels_ + c) * hw;
            for (std::size_t i = 0; i < hw; ++i) {
              const double xhat = (xp[i] - mean) * inv_std;
              sum_dy += gp[i];
              sum_dy_xhat += gp[i] * xhat;
            }
          }
          gamma_.grad[c] += static_cast<float>(sum_dy_xhat);
          beta_.grad[c] += static_cast<float>(sum_dy);

          // Second pass:
          // dx = (g*inv_std/m) * (m*dy - sum_dy - xhat*sum_dy_xhat).
          const double scale = g * inv_std / m;
          for (std::size_t n = 0; n < batch; ++n) {
            const float* xp = x.data() + (n * channels_ + c) * hw;
            const float* gp = grad_out.data() + (n * channels_ + c) * hw;
            float* op = grad_in.data() + (n * channels_ + c) * hw;
            for (std::size_t i = 0; i < hw; ++i) {
              const double xhat = (xp[i] - mean) * inv_std;
              op[i] = static_cast<float>(
                  scale * (m * gp[i] - sum_dy - xhat * sum_dy_xhat));
            }
          }
        }
      },
      channel_grain(batch * hw));
  return grad_in;
}

std::string BatchNorm2d::name() const {
  return "BatchNorm2d(" + std::to_string(channels_) + ")";
}

}  // namespace safelight::nn
