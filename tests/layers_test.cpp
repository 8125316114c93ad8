// Layer forward/backward tests, including numerical gradient checks for
// every differentiable layer (the core correctness guarantee of the
// training stack).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "nn/backend.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv.hpp"
#include "nn/dropout.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"
#include "support/gemm_ref.hpp"
#include "support/im2col.hpp"

namespace safelight::nn {
namespace {

Tensor random_tensor(const Shape& shape, Rng& rng, double lo = -1.0,
                     double hi = 1.0) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

/// L(x) = sum(forward(x) .* projection); scalar loss for gradient checks.
double scalar_loss(Layer& layer, const Tensor& x, const Tensor& projection) {
  const Tensor out = layer.forward(x, /*train=*/true);
  EXPECT_EQ(out.shape(), projection.shape());
  double loss = 0.0;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    loss += static_cast<double>(out[i]) * projection[i];
  }
  return loss;
}

/// Verifies analytic input- and parameter-gradients against central
/// differences. eps/tol tuned for float32 arithmetic.
void check_gradients(Layer& layer, const Tensor& x, Rng& rng,
                     float eps = 1e-2f, float tol = 2e-2f) {
  const Tensor probe = layer.forward(x, /*train=*/true);
  const Tensor projection = random_tensor(probe.shape(), rng);

  // Analytic gradients.
  layer.zero_grad();
  (void)scalar_loss(layer, x, projection);
  const Tensor grad_in = layer.backward(projection);
  ASSERT_EQ(grad_in.shape(), x.shape());

  auto close = [&](double analytic, double numeric, const std::string& where) {
    const double scale = 1.0 + std::abs(analytic) + std::abs(numeric);
    EXPECT_NEAR(analytic, numeric, tol * scale) << where;
  };

  // Input gradient (sample a subset for speed on larger tensors).
  Tensor xp = x;
  const std::size_t stride = std::max<std::size_t>(1, x.numel() / 24);
  for (std::size_t i = 0; i < x.numel(); i += stride) {
    const float original = xp[i];
    xp[i] = original + eps;
    const double up = scalar_loss(layer, xp, projection);
    xp[i] = original - eps;
    const double down = scalar_loss(layer, xp, projection);
    xp[i] = original;
    close(grad_in[i], (up - down) / (2.0 * eps),
          "input grad at " + std::to_string(i));
  }

  // Parameter gradients.
  for (Param* p : layer.params()) {
    const std::size_t pstride = std::max<std::size_t>(1, p->value.numel() / 16);
    for (std::size_t i = 0; i < p->value.numel(); i += pstride) {
      const float original = p->value[i];
      p->value[i] = original + eps;
      const double up = scalar_loss(layer, x, projection);
      p->value[i] = original - eps;
      const double down = scalar_loss(layer, x, projection);
      p->value[i] = original;
      // Re-establish caches for the analytic gradient state.
      close(p->grad[i], (up - down) / (2.0 * eps),
            p->name + " grad at " + std::to_string(i));
    }
  }
}

/// Runs `fn` inside a parallel region, where every parallel_for it issues
/// runs serially on one thread, as inside the sweep's claim fan-out.
void run_nested(const std::function<void()>& fn) {
  parallel_for(0, 2, [&](std::size_t i) {
    if (i == 0) fn();
  });
}

/// Everything one training step of `layer` leaves behind: the training
/// output, the input gradient, every param gradient, every state tensor,
/// and an eval-mode output after the state update.
std::vector<Tensor> step_results(Layer& layer, const Tensor& x,
                                 const Tensor& grad_out) {
  std::vector<Tensor> results;
  results.push_back(layer.forward(x, /*train=*/true));
  results.push_back(layer.backward(grad_out));
  for (Param* p : layer.params()) results.push_back(p->grad);
  for (Tensor* t : layer.state_tensors()) results.push_back(*t);
  results.push_back(layer.forward(x, /*train=*/false));
  return results;
}

/// A fresh layer from `make` must give the same bytes run top-level, where
/// its element-wise loops fan out over the pool (x spans at least two
/// kElementGrain chunks), as run nested, where they are serial.
void expect_pool_invariant(const std::function<LayerPtr()>& make,
                           const Tensor& x, Rng& rng) {
  ASSERT_GE(x.numel(), 2 * kElementGrain);
  const LayerPtr top = make();
  const Tensor grad_out = random_tensor(top->output_shape(x.shape()), rng);
  const std::vector<Tensor> fanned = step_results(*top, x, grad_out);
  const LayerPtr nested = make();
  std::vector<Tensor> serial;
  run_nested([&] { serial = step_results(*nested, x, grad_out); });
  ASSERT_EQ(fanned.size(), serial.size());
  for (std::size_t i = 0; i < fanned.size(); ++i) {
    ASSERT_EQ(fanned[i].shape(), serial[i].shape()) << "result " << i;
    EXPECT_EQ(std::memcmp(fanned[i].data(), serial[i].data(),
                          fanned[i].numel() * sizeof(float)),
              0)
        << top->name() << ": result " << i
        << " differs between the pool and the serial run";
  }
}

/// backward_params must accumulate the same Param::grad bytes, over two
/// steps, as backward on an identical layer.
void expect_backward_params_match(const std::function<LayerPtr()>& make,
                                  const Tensor& x, Rng& rng) {
  const LayerPtr full = make();
  const LayerPtr params_only = make();
  for (int step = 0; step < 2; ++step) {
    const Tensor grad_out = random_tensor(full->output_shape(x.shape()), rng);
    (void)full->forward(x, /*train=*/true);
    (void)full->backward(grad_out);
    (void)params_only->forward(x, /*train=*/true);
    params_only->backward_params(grad_out);
  }
  const std::vector<Param*> want = full->params();
  const std::vector<Param*> got = params_only->params();
  ASSERT_EQ(want.size(), got.size());
  ASSERT_FALSE(want.empty());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i]->grad.shape(), got[i]->grad.shape());
    EXPECT_EQ(std::memcmp(want[i]->grad.data(), got[i]->grad.data(),
                          want[i]->grad.numel() * sizeof(float)),
              0)
        << "param " << i << " (" << want[i]->name << ")";
  }
}

// ---------------------------------------------------------------- conv

TEST(Conv2d, OutputShape) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  EXPECT_EQ(conv.output_shape({2, 3, 8, 8}), (Shape{2, 8, 8, 8}));
  Conv2d strided(3, 4, 3, 2, 1, rng);
  EXPECT_EQ(strided.output_shape({1, 3, 8, 8}), (Shape{1, 4, 4, 4}));
  Conv2d valid(1, 6, 5, 1, 0, rng);
  EXPECT_EQ(valid.output_shape({1, 1, 28, 28}), (Shape{1, 6, 24, 24}));
}

TEST(Conv2d, RejectsWrongInput) {
  Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  EXPECT_THROW(conv.output_shape({2, 4, 8, 8}), std::invalid_argument);
  EXPECT_THROW(conv.forward(Tensor({2, 3, 8}), false), std::invalid_argument);
}

TEST(Conv2d, KnownValue) {
  // Single 2x2 all-ones kernel over a 2x2 image = sum of pixels.
  Rng rng(1);
  Conv2d conv(1, 1, 2, 1, 0, rng);
  conv.weight().value.fill(1.0f);
  conv.bias().value.fill(0.5f);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor out = conv.forward(x, false);
  ASSERT_EQ(out.numel(), 1u);
  EXPECT_FLOAT_EQ(out[0], 10.5f);
}

TEST(Conv2d, GradientCheck) {
  Rng rng(42);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  check_gradients(conv, random_tensor({2, 2, 5, 5}, rng), rng);
}

TEST(Conv2d, GradientCheckStridedNoPad) {
  Rng rng(43);
  Conv2d conv(3, 2, 3, 2, 0, rng);
  check_gradients(conv, random_tensor({2, 3, 7, 7}, rng), rng);
}

TEST(Conv2d, GradientCheckNoBias) {
  Rng rng(44);
  Conv2d conv(2, 2, 3, 1, 1, rng, /*bias=*/false);
  EXPECT_EQ(conv.params().size(), 1u);
  check_gradients(conv, random_tensor({1, 2, 4, 4}, rng), rng);
}

TEST(Conv2d, BackwardWithoutForwardThrows) {
  Rng rng(1);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  EXPECT_THROW(conv.backward(Tensor({1, 1, 4, 4})), std::invalid_argument);
}

TEST(Conv2d, ParamKindsForMapping) {
  Rng rng(1);
  Conv2d conv(1, 2, 3, 1, 1, rng);
  EXPECT_EQ(conv.params()[0]->kind, ParamKind::kConvWeight);
  EXPECT_EQ(conv.params()[1]->kind, ParamKind::kElectronic);  // bias
}

/// One training step of a conv layer lowered per image onto the naive
/// reference kernels: one im2col + GEMM per image, and backward over the
/// layer's fixed 8-part batch partition with each part's weight gradient
/// accumulated one image at a time, merged in part order. `weight_grad` and
/// `bias_grad` hold the gradients before the step and accumulate into them.
struct ConvReferenceStep {
  std::vector<float> out, grad_in;
};

ConvReferenceStep reference_conv_step(Conv2d& conv, const Tensor& x,
                                      const Tensor& grad_out,
                                      std::vector<float>& weight_grad,
                                      std::vector<float>& bias_grad) {
  const ConvGeom g{conv.in_channels(), x.dim(2), x.dim(3), conv.kernel(),
                   conv.kernel(), conv.stride(), conv.pad()};
  const std::size_t batch = x.dim(0);
  const std::size_t out_c = conv.out_channels();
  const std::size_t hw = g.out_hw();
  const std::size_t patch = g.patch_len();
  const std::size_t image_len = g.in_c * g.in_h * g.in_w;
  const std::size_t out_len = out_c * hw;
  const float* w = conv.weight().value.data();
  const float* b = conv.has_bias() ? conv.bias().value.data() : nullptr;
  std::vector<float> cols(patch * hw), dcols(patch * hw);

  ConvReferenceStep step;
  step.out.assign(batch * out_len, 0.0f);
  step.grad_in.assign(x.numel(), 0.0f);
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(x.data() + n * image_len, g, cols.data());
    gemm_ref(w, cols.data(), step.out.data() + n * out_len, out_c, patch, hw,
             false, b);
  }

  const std::size_t parts = std::min<std::size_t>(8, batch);
  const std::size_t per_part = (batch + parts - 1) / parts;
  for (std::size_t part = 0; part < parts; ++part) {
    std::vector<float> gw(weight_grad.size(), 0.0f), gb(out_c, 0.0f);
    const std::size_t hi = std::min(batch, (part + 1) * per_part);
    for (std::size_t n = part * per_part; n < hi; ++n) {
      const float* gout = grad_out.data() + n * out_len;
      im2col(x.data() + n * image_len, g, cols.data());
      gemm_bt_ref(gout, cols.data(), gw.data(), out_c, hw, patch, true);
      if (b != nullptr) {
        for (std::size_t o = 0; o < out_c; ++o) {
          float acc = 0.0f;
          for (std::size_t i = 0; i < hw; ++i) acc += gout[o * hw + i];
          gb[o] += acc;
        }
      }
      gemm_at_ref(w, gout, dcols.data(), patch, out_c, hw);
      col2im(dcols.data(), g, step.grad_in.data() + n * image_len);
    }
    for (std::size_t i = 0; i < gw.size(); ++i) weight_grad[i] += gw[i];
    for (std::size_t o = 0; o < bias_grad.size(); ++o) bias_grad[o] += gb[o];
  }
  return step;
}

void expect_bytes_equal(const Tensor& got, const std::vector<float>& want,
                        const std::string& label) {
  ASSERT_EQ(got.numel(), want.size()) << label;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
            0)
      << label << ": differs bitwise from the per-image reference";
}

TEST(Conv2d, GroupedLoweringMatchesPerImageReferenceBitwise) {
  // Output sizes 1x1 / 2x2 / 3x3 / 6x6 group several images per GEMM;
  // 16x16 keeps one image per GEMM. Batches leave partial last groups and parts, and
  // batches 9 and 33 leave some of the 8 gradient parts empty.
  struct Case {
    std::size_t in_c, out_c, kernel, stride, pad, spatial;
    bool bias;
  };
  const Case cases[] = {
      {5, 6, 3, 1, 0, 3, true},   // 1x1 output
      {4, 6, 3, 2, 1, 4, true},   // 2x2 output, stride 2
      {3, 5, 3, 1, 1, 3, false},  // 3x3 output, no bias
      {3, 4, 3, 1, 1, 6, true},   // 6x6 output: several groups per part
      {2, 3, 3, 1, 1, 16, true},  // 16x16 output
  };
  const std::size_t batches[] = {1, 9, 33, 65};
  std::size_t checked = 0;
  for (const backend::ComputeBackend* variant : backend::registered()) {
    if (!variant->supported()) continue;
    const backend::ScopedBackend forced(*variant);
    for (const Case& c : cases) {
      for (const std::size_t batch : batches) {
        Rng rng(7 + batch);
        Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, rng, c.bias);
        std::vector<float> weight_grad(conv.weight().grad.numel(), 0.0f);
        std::vector<float> bias_grad(c.bias ? c.out_c : 0, 0.0f);
        // The same layer runs two steps: caches are refreshed and the
        // gradients accumulate across backward calls.
        for (int step = 0; step < 2; ++step) {
          const std::string label =
              std::string(variant->name()) + " in_c=" +
              std::to_string(c.in_c) + " spatial=" +
              std::to_string(c.spatial) + " batch=" + std::to_string(batch) +
              " step=" + std::to_string(step);
          const Tensor x =
              random_tensor({batch, c.in_c, c.spatial, c.spatial}, rng);
          const Tensor eval_out = conv.forward(x, /*train=*/false);
          const Tensor out = conv.forward(x, /*train=*/true);
          const Tensor grad_out = random_tensor(out.shape(), rng);
          const Tensor grad_in = conv.backward(grad_out);
          const ConvReferenceStep want =
              reference_conv_step(conv, x, grad_out, weight_grad, bias_grad);
          expect_bytes_equal(eval_out, want.out, label + " eval out");
          expect_bytes_equal(out, want.out, label + " out");
          expect_bytes_equal(grad_in, want.grad_in, label + " grad_in");
          expect_bytes_equal(conv.weight().grad, weight_grad,
                             label + " weight.grad");
          if (c.bias) {
            expect_bytes_equal(conv.bias().grad, bias_grad,
                               label + " bias.grad");
          }
        }
      }
    }
    ++checked;
  }
  EXPECT_GE(checked, 1u);  // scalar at minimum
}

TEST(Conv2d, BackwardParamsMatchesBackwardBitwise) {
  // A lone-image (16x16 output) and a grouped (2x2 output) lowering.
  Rng rng(66);
  expect_backward_params_match(
      [] {
        Rng init(5);
        return std::make_unique<Conv2d>(3, 8, 3, 1, 1, init);
      },
      random_tensor({9, 3, 16, 16}, rng), rng);
  expect_backward_params_match(
      [] {
        Rng init(6);
        return std::make_unique<Conv2d>(4, 6, 3, 2, 1, init,
                                        /*bias=*/false);
      },
      random_tensor({33, 4, 4, 4}, rng), rng);
}

TEST(ConvPack, DirectPanelsMatchIm2colThenPackBitwise) {
  // The census's hot shapes, then the geometry edges: padding taps on
  // every side, strides 2 and 3, output rows wider than a panel, panels
  // straddling two images and partial last panels.
  struct Case {
    const char* label;
    std::size_t cnt, in_c, in_h, in_w, k_h, k_w, stride, pad;
  };
  const Case cases[] = {
      {"1->6 28x28 k5 p0", 1, 1, 28, 28, 5, 5, 1, 0},
      {"8ch 16x16 k3", 1, 8, 16, 16, 3, 3, 1, 1},
      {"16ch 8x8 k3, 2 images", 2, 16, 8, 8, 3, 3, 1, 1},
      {"64ch 2x2 k3, 32 images", 32, 64, 2, 2, 3, 3, 1, 1},
      {"kernel wider than image", 3, 2, 2, 3, 5, 5, 1, 2},
      {"stride 2", 4, 3, 9, 9, 3, 3, 2, 1},
      {"stride 3", 3, 2, 10, 11, 3, 3, 3, 0},
      {"pad > k/2", 2, 2, 5, 5, 3, 3, 1, 2},
      {"out_w > kNr", 1, 1, 40, 40, 3, 3, 1, 1},
      {"panels straddle images", 3, 3, 5, 5, 3, 3, 1, 1},
      {"rectangular kernel, stride 2", 5, 2, 7, 6, 3, 2, 2, 1},
  };
  std::size_t checked = 0;
  for (const backend::ComputeBackend* variant : backend::registered()) {
    if (!variant->supported()) continue;
    const backend::GemmKernels& kernels = variant->gemm_kernels();
    for (const Case& c : cases) {
      const ConvGeom g{c.in_c, c.in_h, c.in_w, c.k_h, c.k_w, c.stride, c.pad};
      ASSERT_TRUE(g.valid()) << c.label;
      const std::size_t hw = g.out_hw();
      const std::size_t cols_n = c.cnt * hw;
      const std::size_t patch = g.patch_len();
      const std::size_t image_len = c.in_c * c.in_h * c.in_w;
      Rng rng(11);
      Tensor x = random_tensor({c.cnt, c.in_c, c.in_h, c.in_w}, rng);
      x[0] = -0.0f;  // copied as is, unlike a zero-filled padding tap

      std::vector<float> cols(patch * cols_n);
      for (std::size_t i = 0; i < c.cnt; ++i) {
        im2col(x.data() + i * image_len, g, cols.data() + i * hw, cols_n);
      }
      const backend::ConvPackArgs args = conv_pack_args(g, x.data(), c.cnt);
      const std::string label = std::string(variant->name()) + " " + c.label;

      // Both sides start from the same garbage, so a byte the direct
      // packer leaves unwritten shows up as a mismatch.
      const auto garbage = [](std::size_t len) {
        std::vector<float> v(len);
        std::memset(v.data(), 0xab, len * sizeof(float));
        return v;
      };
      const std::size_t b_len = packed_b_size(patch, cols_n);
      std::vector<float> want = garbage(b_len);
      std::vector<float> got = garbage(b_len);
      kernels.pack_b(cols.data(), patch, cols_n, want.data());
      kernels.pack_conv(args, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), b_len * sizeof(float)),
                0)
          << label << ": pack_conv";

      const std::size_t bt_len = packed_b_size(cols_n, patch);
      want = garbage(bt_len);
      got = garbage(bt_len);
      kernels.pack_bt(cols.data(), cols_n, patch, want.data());
      kernels.pack_conv_bt(args, got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), bt_len * sizeof(float)),
                0)
          << label << ": pack_conv_bt";
    }
    ++checked;
  }
  EXPECT_GE(checked, 1u);  // scalar at minimum
}

// ---------------------------------------------------------------- linear

TEST(Linear, KnownValue) {
  Rng rng(1);
  Linear fc(2, 2, rng);
  fc.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  fc.bias().value = Tensor({2}, {0.5f, -0.5f});
  Tensor x({1, 2}, {1, 1});
  const Tensor out = fc.forward(x, false);
  EXPECT_FLOAT_EQ(out[0], 3.5f);
  EXPECT_FLOAT_EQ(out[1], 6.5f);
}

TEST(Linear, GradientCheck) {
  Rng rng(45);
  Linear fc(6, 4, rng);
  check_gradients(fc, random_tensor({3, 6}, rng), rng);
}

TEST(Linear, ParamKindsForMapping) {
  Rng rng(1);
  Linear fc(3, 3, rng);
  EXPECT_EQ(fc.params()[0]->kind, ParamKind::kLinearWeight);
  EXPECT_EQ(fc.params()[1]->kind, ParamKind::kElectronic);
}

TEST(Linear, RejectsWrongFeatureCount) {
  Rng rng(1);
  Linear fc(3, 2, rng);
  EXPECT_THROW(fc.forward(Tensor({1, 4}), false), std::invalid_argument);
}

// ---------------------------------------------------------------- relu

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x = Tensor::from({-1, 0, 2});
  const Tensor out = relu.forward(x, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
}

TEST(ReLU, GradientCheck) {
  Rng rng(46);
  ReLU relu;
  check_gradients(relu, random_tensor({2, 10}, rng), rng);
}

TEST(ReLU, BackwardMasksGradient) {
  ReLU relu;
  Tensor x = Tensor::from({-1, 3});
  relu.forward(x, true);
  const Tensor g = relu.backward(Tensor::from({5, 5}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 5.0f);
}

TEST(ReLU, NanAndNegativeZeroBecomePositiveZeroAndBackwardMasksThem) {
  ReLU relu;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  Tensor x = Tensor::from({nan, -0.0f, 0.0f, -1.0f, 2.0f, inf, -inf, denorm});
  const Tensor out = relu.forward(x, true);
  const float want[] = {0.0f, 0.0f, 0.0f, 0.0f, 2.0f, inf, 0.0f, denorm};
  ASSERT_EQ(out.numel(), std::size(want));
  // Byte comparison: +0.0f only, never -0.0f or a NaN payload.
  EXPECT_EQ(std::memcmp(out.data(), want, sizeof want), 0);
  const Tensor g = relu.backward(Tensor::from({1, 1, 1, 1, 1, 1, 1, 1}));
  for (std::size_t i = 0; i < out.numel(); ++i) {
    EXPECT_EQ(g[i], out[i] > 0.0f ? 1.0f : 0.0f) << "element " << i;
    EXPECT_FALSE(std::signbit(g[i])) << "element " << i;
  }
}

TEST(ReLU, PoolFanOutMatchesNestedSerialBitwise) {
  Rng rng(67);
  Tensor x = random_tensor({4, 16, 48, 48}, rng);
  for (std::size_t i = 0; i < x.numel(); i += 97) {
    x[i] = i % 2 == 0 ? std::numeric_limits<float>::quiet_NaN() : -0.0f;
  }
  expect_pool_invariant([] { return std::make_unique<ReLU>(); }, x, rng);
}

TEST(Softmax2d, RowsSumToOne) {
  Tensor logits({2, 3}, {1, 2, 3, -1, 0, 1});
  const Tensor p = softmax2d(logits);
  for (std::size_t n = 0; n < 2; ++n) {
    double sum = 0;
    for (std::size_t c = 0; c < 3; ++c) sum += p[n * 3 + c];
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  EXPECT_GT(p[2], p[0]);  // monotone in logits
}

TEST(Softmax2d, NumericallyStableForLargeLogits) {
  Tensor logits({1, 2}, {1000.0f, 999.0f});
  const Tensor p = softmax2d(logits);
  EXPECT_TRUE(p.all_finite());
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-5);
}

// ---------------------------------------------------------------- pool

TEST(MaxPool2d, ForwardSelectsMax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor out = pool.forward(x, false);
  ASSERT_EQ(out.numel(), 1u);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  pool.forward(x, true);
  const Tensor g = pool.backward(Tensor({1, 1, 1, 1}, {7}));
  EXPECT_FLOAT_EQ(g[1], 7.0f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(MaxPool2d, GradientCheck) {
  Rng rng(47);
  MaxPool2d pool(2);
  check_gradients(pool, random_tensor({2, 3, 4, 4}, rng), rng);
}

TEST(MaxPool2d, TiesKeepTheFirstIndexAndNanNeverWinsLater) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  MaxPool2d pool(2);
  // Window 0: a four-way tie. Window 1: a NaN after the first element.
  // Window 2: a NaN first, which no later element beats.
  Tensor x({1, 1, 2, 6}, {3, 3, 1, nan, nan, 9,  //
                          3, 3, 4, 2, 5, 7});
  const Tensor out = pool.forward(x, /*train=*/true);
  ASSERT_EQ(out.numel(), 3u);
  EXPECT_EQ(out[0], 3.0f);
  EXPECT_EQ(out[1], 4.0f);
  EXPECT_TRUE(std::isnan(out[2]));
  const Tensor g = pool.backward(Tensor({1, 1, 1, 3}, {1, 2, 3}));
  const float want[] = {1, 0, 0, 0, 3, 0,  //
                        0, 0, 2, 0, 0, 0};
  ASSERT_EQ(g.numel(), std::size(want));
  EXPECT_EQ(std::memcmp(g.data(), want, sizeof want), 0);
}

TEST(MaxPool2d, PoolFanOutMatchesNestedSerialBitwise) {
  // Values on a coarse grid make ties common; NaNs sit at both the first
  // and later window positions.
  Rng rng(68);
  Tensor x({8, 16, 64, 64});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(static_cast<int>(rng.uniform(0.0, 4.0)));
    if (i % 101 == 0) x[i] = std::numeric_limits<float>::quiet_NaN();
  }
  expect_pool_invariant([] { return std::make_unique<MaxPool2d>(2); }, x,
                        rng);
}

TEST(MaxPool2d, OddSizesTruncate) {
  MaxPool2d pool(2);
  EXPECT_EQ(pool.output_shape({1, 1, 5, 7}), (Shape{1, 1, 2, 3}));
}

TEST(GlobalAvgPool, ForwardAverages) {
  GlobalAvgPool pool;
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  const Tensor out = pool.forward(x, false);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 10.0f);
}

TEST(GlobalAvgPool, GradientCheck) {
  Rng rng(48);
  GlobalAvgPool pool;
  check_gradients(pool, random_tensor({2, 3, 3, 3}, rng), rng);
}

TEST(Flatten, RoundTrip) {
  Rng rng(49);
  Flatten flatten;
  const Tensor x = random_tensor({2, 3, 4, 4}, rng);
  const Tensor out = flatten.forward(x, true);
  EXPECT_EQ(out.shape(), (Shape{2, 48}));
  const Tensor g = flatten.backward(out);
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_FLOAT_EQ(max_abs_diff(g, x), 0.0f);
}

// ---------------------------------------------------------------- batchnorm

TEST(BatchNorm2d, NormalizesTrainBatch) {
  BatchNorm2d bn(2);
  Rng rng(50);
  const Tensor x = random_tensor({4, 2, 3, 3}, rng, -2.0, 5.0);
  const Tensor out = bn.forward(x, true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0, sq = 0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t i = 0; i < 9; ++i) {
        const float v = out[(n * 2 + c) * 9 + i];
        sum += v;
        sq += v * v;
        ++count;
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  Rng rng(51);
  // Train on shifted data to move the running stats.
  for (int step = 0; step < 50; ++step) {
    bn.forward(random_tensor({8, 1, 2, 2}, rng, 4.0, 6.0), true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.0f, 0.3f);
  // Eval output on the same distribution should be ~N(0,1).
  const Tensor out = bn.forward(random_tensor({8, 1, 2, 2}, rng, 4.0, 6.0),
                                false);
  EXPECT_LT(std::abs(out.sum() / static_cast<float>(out.numel())), 0.5f);
}

TEST(BatchNorm2d, GradientCheck) {
  Rng rng(52);
  BatchNorm2d bn(3);
  check_gradients(bn, random_tensor({3, 3, 2, 2}, rng), rng, 1e-2f, 4e-2f);
}

TEST(BatchNorm2d, PoolFanOutMatchesNestedSerialBitwise) {
  // 8 images of 32x32 make 8192 floats per channel, so 32 channels split
  // into 4 chunks of 8.
  Rng rng(69);
  expect_pool_invariant([] { return std::make_unique<BatchNorm2d>(32); },
                        random_tensor({8, 32, 32, 32}, rng, -2.0, 3.0), rng);
}

TEST(BatchNorm2d, StateTensorsExposed) {
  BatchNorm2d bn(4);
  EXPECT_EQ(bn.state_tensors().size(), 2u);
  EXPECT_EQ(bn.params().size(), 2u);
}

// ---------------------------------------------------------------- dropout

TEST(Dropout, IdentityAtEval) {
  Dropout dropout(0.5f, 7);
  Rng rng(53);
  const Tensor x = random_tensor({2, 10}, rng);
  const Tensor out = dropout.forward(x, false);
  EXPECT_FLOAT_EQ(max_abs_diff(out, x), 0.0f);
}

TEST(Dropout, ZeroProbabilityIsIdentityInTrain) {
  Dropout dropout(0.0f, 7);
  Rng rng(54);
  const Tensor x = random_tensor({2, 10}, rng);
  const Tensor out = dropout.forward(x, true);
  EXPECT_FLOAT_EQ(max_abs_diff(out, x), 0.0f);
}

TEST(Dropout, DropsAndRescales) {
  Dropout dropout(0.5f, 7);
  Tensor x = Tensor::full({1, 1000}, 1.0f);
  const Tensor out = dropout.forward(x, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (out[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(out[i], 2.0f);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros), 500.0, 60.0);
}

TEST(Dropout, BackwardMatchesForwardMask) {
  Dropout dropout(0.3f, 11);
  Tensor x = Tensor::full({1, 100}, 1.0f);
  const Tensor out = dropout.forward(x, true);
  const Tensor g = dropout.backward(Tensor::full({1, 100}, 1.0f));
  for (std::size_t i = 0; i < 100; ++i) {
    if (out[i] == 0.0f) {
      EXPECT_FLOAT_EQ(g[i], 0.0f);
    } else {
      EXPECT_GT(g[i], 1.0f);
    }
  }
}

TEST(Dropout, RejectsInvalidProbability) {
  EXPECT_THROW(Dropout(1.0f, 1), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1f, 1), std::invalid_argument);
}

// ---------------------------------------------------------------- residual

TEST(BasicBlock, IdentityShapePreserved) {
  Rng rng(60);
  BasicBlock block(4, 4, 1, rng);
  EXPECT_EQ(block.output_shape({2, 4, 8, 8}), (Shape{2, 4, 8, 8}));
}

TEST(BasicBlock, DownsampleShape) {
  Rng rng(61);
  BasicBlock block(4, 8, 2, rng);
  EXPECT_EQ(block.output_shape({2, 4, 8, 8}), (Shape{2, 8, 4, 4}));
  EXPECT_EQ(block.output_shape({1, 4, 7, 7}), (Shape{1, 8, 4, 4}));
}

TEST(BasicBlock, OptionARequiresWidening) {
  Rng rng(62);
  EXPECT_THROW(BasicBlock(8, 4, 1, rng), std::invalid_argument);
}

TEST(BasicBlock, ParameterInventory) {
  Rng rng(63);
  BasicBlock block(4, 8, 2, rng);
  // Two conv weights (no biases) + two BN gamma/beta pairs = 6 params,
  // and the shortcut adds none (option A is parameter-free).
  EXPECT_EQ(block.params().size(), 6u);
  EXPECT_EQ(block.state_tensors().size(), 4u);
}

TEST(BasicBlock, GradientCheckIdentity) {
  Rng rng(64);
  BasicBlock block(3, 3, 1, rng);
  check_gradients(block, random_tensor({2, 3, 4, 4}, rng), rng, 1e-2f, 5e-2f);
}

TEST(BasicBlock, GradientCheckDownsample) {
  // Element-wise finite differences are unreliable here: the downsample
  // path pushes many activations across ReLU kinks, giving O(eps)
  // subgradient error. Check the directional derivative instead and assert
  // it converges toward the analytic value as eps shrinks.
  Rng rng(65);
  BasicBlock block(2, 4, 2, rng);
  const Tensor x = random_tensor({2, 2, 6, 6}, rng);
  const Tensor probe = block.forward(x, true);
  const Tensor projection = random_tensor(probe.shape(), rng);

  block.zero_grad();
  (void)scalar_loss(block, x, projection);
  const Tensor grad_in = block.backward(projection);

  std::vector<float> dir_x(x.numel());
  for (auto& v : dir_x) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<std::vector<float>> dir_p;
  for (Param* p : block.params()) {
    std::vector<float> d(p->value.numel());
    for (auto& v : d) v = static_cast<float>(rng.uniform(-1, 1));
    dir_p.push_back(std::move(d));
  }
  double analytic = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) analytic += grad_in[i] * dir_x[i];
  {
    std::size_t k = 0;
    for (Param* p : block.params()) {
      for (std::size_t i = 0; i < p->value.numel(); ++i) {
        analytic += p->grad[i] * dir_p[k][i];
      }
      ++k;
    }
  }

  auto directional = [&](double eps) {
    auto loss_at = [&](double sign) {
      Tensor xs = x;
      for (std::size_t i = 0; i < x.numel(); ++i) {
        xs[i] += static_cast<float>(sign * eps * dir_x[i]);
      }
      std::vector<Tensor> saved;
      for (Param* p : block.params()) saved.push_back(p->value);
      std::size_t k = 0;
      for (Param* p : block.params()) {
        for (std::size_t i = 0; i < p->value.numel(); ++i) {
          p->value[i] += static_cast<float>(sign * eps * dir_p[k][i]);
        }
        ++k;
      }
      const double loss = scalar_loss(block, xs, projection);
      std::size_t j = 0;
      for (Param* p : block.params()) p->value = saved[j++];
      return loss;
    };
    return (loss_at(1.0) - loss_at(-1.0)) / (2.0 * eps);
  };

  const double err_coarse =
      std::abs(directional(1e-2) - analytic) / (std::abs(analytic) + 1e-9);
  const double err_fine =
      std::abs(directional(2e-3) - analytic) / (std::abs(analytic) + 1e-9);
  EXPECT_LT(err_fine, 0.06);
  EXPECT_LT(err_fine, err_coarse + 1e-6);  // converging toward analytic
}

TEST(BasicBlock, PoolFanOutMatchesNestedSerialBitwise) {
  Rng rng(70);
  expect_pool_invariant(
      [] {
        Rng init(8);
        return std::make_unique<BasicBlock>(16, 16, 1, init);
      },
      random_tensor({8, 16, 32, 32}, rng), rng);
  expect_pool_invariant(
      [] {
        Rng init(9);
        return std::make_unique<BasicBlock>(8, 16, 2, init);
      },
      random_tensor({8, 8, 64, 64}, rng), rng);
}

// ---------------------------------------------------------------- sequential

TEST(Sequential, ForwardChainsLayers) {
  Rng rng(70);
  Sequential model;
  model.emplace<Linear>(4, 8, rng);
  model.emplace<ReLU>();
  model.emplace<Linear>(8, 3, rng);
  const Tensor out = model.forward(random_tensor({2, 4}, rng), false);
  EXPECT_EQ(out.shape(), (Shape{2, 3}));
  EXPECT_EQ(model.output_shape({2, 4}), (Shape{2, 3}));
}

TEST(Sequential, GradientCheckComposite) {
  Rng rng(71);
  Sequential model;
  model.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  model.emplace<ReLU>();
  model.emplace<MaxPool2d>(2);
  model.emplace<Flatten>();
  model.emplace<Linear>(2 * 2 * 2, 3, rng);
  check_gradients(model, random_tensor({2, 1, 4, 4}, rng), rng, 1e-2f, 4e-2f);
}

TEST(Sequential, ParamAggregation) {
  Rng rng(72);
  Sequential model;
  model.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  model.emplace<BatchNorm2d>(2);
  model.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(model.params().size(), 6u);  // conv w+b, bn g+b, fc w+b
  EXPECT_EQ(model.state_tensors().size(), 2u);
  EXPECT_GT(model.num_parameters(), 0u);
}

TEST(Sequential, PredictArgmax) {
  Rng rng(73);
  Sequential model;
  auto& fc = model.emplace<Linear>(2, 2, rng);
  fc.weight().value = Tensor({2, 2}, {1, 0, 0, 1});
  fc.bias().value.fill(0.0f);
  Tensor x({2, 2}, {3, 1, 0, 5});
  const auto preds = model.predict(x);
  EXPECT_EQ(preds[0], 0);
  EXPECT_EQ(preds[1], 1);
  EXPECT_DOUBLE_EQ(model.accuracy(x, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(model.accuracy(x, {1, 1}), 0.5);
}

TEST(Sequential, SummaryListsLayers) {
  Rng rng(74);
  Sequential model;
  model.emplace<Linear>(2, 2, rng);
  const std::string s = model.summary();
  EXPECT_NE(s.find("Linear(2->2)"), std::string::npos);
}

TEST(Sequential, BackwardParamsMatchesBackwardBitwise) {
  // Conv first (its input gradient is skipped), then every layer kind a
  // paper model trains through.
  Rng rng(75);
  expect_backward_params_match(
      [] {
        Rng init(10);
        auto model = std::make_unique<Sequential>();
        model->emplace<Conv2d>(3, 8, 3, 1, 1, init);
        model->emplace<BatchNorm2d>(8);
        model->emplace<ReLU>();
        model->emplace<BasicBlock>(8, 8, 1, init);
        model->emplace<MaxPool2d>(2);
        model->emplace<Flatten>();
        model->emplace<Linear>(8 * 4 * 4, 5, init);
        return model;
      },
      random_tensor({6, 3, 8, 8}, rng), rng);
}

TEST(Sequential, LayerAccessBoundsChecked) {
  Sequential model;
  EXPECT_THROW(model.layer(0), std::invalid_argument);
}

}  // namespace
}  // namespace safelight::nn
