// Substrate micro-benchmarks (google-benchmark): GEMM, convolution,
// MR-bank transmission model, thermal solver, mapping, attack planning and
// one training step per model.
// These size the simulator itself, not the paper's results.

#include <benchmark/benchmark.h>

#include <atomic>

#include "accel/mapping.hpp"
#include "attacks/actuation.hpp"
#include "attacks/hotspot.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/experiment_scale.hpp"
#include "nn/backend.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/optimizer.hpp"
#include "photonics/mr_bank.hpp"
#include "support/gemm_ref.hpp"
#include "support/im2col.hpp"
#include "thermal/solver.hpp"

namespace sl = safelight;

namespace {

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sl::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    sl::nn::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The naive reference kernel (tests/support/gemm_ref.hpp): the denominator
// of the packed-kernel speedup ratio. It matches the original scalar
// kernel's structure, so BM_Gemm / BM_GemmRef tracks the packed kernel's
// win on whatever host runs it.
void BM_GemmRef(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sl::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    sl::nn::gemm_ref(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmRef)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmBt(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sl::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    sl::nn::gemm_bt(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmBt)->Arg(64)->Arg(256);

// Cost of dispatching a (tiny) job to the persistent pool — the fixed
// overhead every parallel_for pays, formerly a thread spawn + join.
void BM_ThreadPoolDispatch(benchmark::State& state) {
  sl::ThreadPool& pool = sl::ThreadPool::global();
  std::atomic<std::size_t> sink{0};
  for (auto _ : state) {
    pool.run(sl::worker_count(), [&](std::size_t c) {
      benchmark::DoNotOptimize(sink += c);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ThreadPoolDispatch);

/// Random NCHW input for the conv benchmarks.
sl::nn::Tensor conv_input(std::size_t batch, std::size_t channels,
                          std::size_t spatial, sl::Rng& rng) {
  sl::nn::Tensor x({batch, channels, spatial, spatial});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  return x;
}

void BM_Conv2dForward(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  sl::Rng rng(2);
  sl::nn::Conv2d conv(channels, channels, 3, 1, 1, rng);
  const sl::nn::Tensor x = conv_input(8, channels, 16, rng);
  for (auto _ : state) {
    auto out = conv.forward(x, false);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(32);

// Deep-layer inference shapes that dominate the default-scale sweep: VGG's
// last conv at 1x1 output and ResNet's last stage at 2x2, batch 64. Args:
// in channels, out channels, spatial size (3x3 kernel, stride 1, pad 1).
void BM_Conv2dForwardDeep(benchmark::State& state) {
  const auto in_c = static_cast<std::size_t>(state.range(0));
  const auto out_c = static_cast<std::size_t>(state.range(1));
  const auto spatial = static_cast<std::size_t>(state.range(2));
  sl::Rng rng(2);
  sl::nn::Conv2d conv(in_c, out_c, 3, 1, 1, rng);
  const sl::nn::Tensor x = conv_input(64, in_c, spatial, rng);
  for (auto _ : state) {
    auto out = conv.forward(x, false);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Conv2dForwardDeep)->Args({128, 128, 1})->Args({64, 128, 2});

// Backward pass at training batch 32: a large-output shape (one GEMM per
// image) and the deep shapes above (grouped lowering). Args as for
// BM_Conv2dForwardDeep.
void BM_Conv2dBackward(benchmark::State& state) {
  const auto in_c = static_cast<std::size_t>(state.range(0));
  const auto out_c = static_cast<std::size_t>(state.range(1));
  const auto spatial = static_cast<std::size_t>(state.range(2));
  sl::Rng rng(2);
  sl::nn::Conv2d conv(in_c, out_c, 3, 1, 1, rng);
  const sl::nn::Tensor x = conv_input(32, in_c, spatial, rng);
  const sl::nn::Tensor grad = conv_input(32, out_c, spatial, rng);
  conv.forward(x, /*train=*/true);  // caches the input backward reads
  for (auto _ : state) {
    auto grad_in = conv.backward(grad);
    benchmark::DoNotOptimize(grad_in.data());
  }
}
BENCHMARK(BM_Conv2dBackward)
    ->Args({32, 32, 16})
    ->Args({128, 128, 1})
    ->Args({64, 128, 2});

// Conv2d's B operand for one image group, on the hot shapes of the
// default-scale sweep: cnn1's first layer (1->6 channels, 28x28, k5, pad
// 0), ResNet's first stage (8 channels, 16x16, k3), its second stage (16
// channels, 8x8, k3, two images per GEMM) and its last (64 channels, 2x2,
// k3, 32 images per GEMM). Arg 0 picks the shape; arg 1 picks the direct
// packer (0, what Conv2d runs) or the im2col + pack_b reference it
// replaced (1), which writes the same panels.
void BM_ConvPack(benchmark::State& state) {
  struct Shape {
    std::size_t in_c, spatial, kernel, pad, cnt;
  };
  constexpr Shape kShapes[] = {
      {1, 28, 5, 0, 1}, {8, 16, 3, 1, 1}, {16, 8, 3, 1, 2}, {64, 2, 3, 1, 32}};
  const Shape& s = kShapes[state.range(0)];
  const bool reference = state.range(1) != 0;
  sl::nn::ConvGeom g;
  g.in_c = s.in_c;
  g.in_h = g.in_w = s.spatial;
  g.k_h = g.k_w = s.kernel;
  g.pad = s.pad;
  sl::Rng rng(3);
  const sl::nn::Tensor x = conv_input(s.cnt, s.in_c, s.spatial, rng);
  const std::size_t hw = g.out_hw();
  const std::size_t n = s.cnt * hw;
  std::vector<float> cols(g.patch_len() * n);
  std::vector<float> packed(sl::nn::packed_b_size(g.patch_len(), n));
  const sl::nn::backend::ConvPackArgs args =
      sl::nn::conv_pack_args(g, x.data(), s.cnt);
  const sl::nn::backend::GemmKernels& kernels =
      sl::nn::backend::active().gemm_kernels();
  const std::size_t image_len = g.in_c * g.in_h * g.in_w;
  for (auto _ : state) {
    if (reference) {
      for (std::size_t i = 0; i < s.cnt; ++i) {
        sl::nn::im2col(x.data() + i * image_len, g, cols.data() + i * hw, n);
      }
      kernels.pack_b(cols.data(), g.patch_len(), n, packed.data());
    } else {
      kernels.pack_conv(args, packed.data());
    }
    benchmark::DoNotOptimize(packed.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packed.size() *
                                                    sizeof(float)));
}
BENCHMARK(BM_ConvPack)->ArgsProduct({{0, 1, 2, 3}, {0, 1}});

void BM_MrBankEffectiveWeights(benchmark::State& state) {
  const auto channels = static_cast<std::size_t>(state.range(0));
  sl::phot::MrGeometry geometry;
  if (channels > 20) geometry.q_factor = sl::phot::kHighQ;
  const sl::phot::Microring reference(geometry, 1550.0);
  const sl::phot::WdmGrid grid(channels, 1550.0, reference.fsr_nm());
  sl::phot::MrBank bank(geometry, grid);
  sl::Rng rng(3);
  std::vector<double> weights(channels);
  for (auto& w : weights) w = rng.uniform(-0.9, 0.9);
  bank.set_weights(weights);
  for (std::size_t i = 0; i < channels; ++i) {
    bank.set_temperature_delta(i, 10.0);
  }
  for (auto _ : state) {
    auto effective = bank.effective_weights();
    benchmark::DoNotOptimize(effective.data());
  }
}
BENCHMARK(BM_MrBankEffectiveWeights)->Arg(20)->Arg(150);

void BM_ThermalSolve(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  sl::thermal::GridConfig config;
  config.rows = side;
  config.cols = side;
  for (auto _ : state) {
    sl::thermal::ThermalGrid grid(config);
    grid.add_power_mw(side / 2, side / 2, 45.0);
    grid.add_power_mw(side / 4, side / 4, 45.0);
    auto result = sl::thermal::solve_steady_state(grid);
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_ThermalSolve)->Arg(40)->Arg(90);

void BM_MappingConstruction(benchmark::State& state) {
  sl::nn::ModelConfig config;
  auto model = sl::nn::make_cnn1(config);
  const auto accel = sl::accel::AcceleratorConfig::crosslight();
  for (auto _ : state) {
    sl::accel::WeightStationaryMapping mapping(*model, accel);
    benchmark::DoNotOptimize(mapping.weight_count(sl::accel::BlockKind::kFc));
  }
}
BENCHMARK(BM_MappingConstruction);

void BM_ActuationPlanning(benchmark::State& state) {
  const auto accel = sl::accel::AcceleratorConfig::crosslight();
  sl::attack::AttackScenario scenario;
  scenario.vector = sl::attack::AttackVector::kActuation;
  scenario.target = sl::attack::AttackTarget::kBothBlocks;
  scenario.fraction = static_cast<double>(state.range(0)) / 100.0;
  scenario.seed = 7;
  for (auto _ : state) {
    auto trojans = sl::attack::plan_actuation_attack(accel, scenario);
    benchmark::DoNotOptimize(trojans.size());
  }
}
BENCHMARK(BM_ActuationPlanning)->Arg(1)->Arg(10);

void BM_HotspotPlanning(benchmark::State& state) {
  const auto accel = sl::accel::AcceleratorConfig::crosslight();
  sl::attack::AttackScenario scenario;
  scenario.vector = sl::attack::AttackVector::kHotspot;
  scenario.target = sl::attack::AttackTarget::kConvBlock;
  scenario.fraction = static_cast<double>(state.range(0)) / 100.0;
  scenario.seed = 7;
  for (auto _ : state) {
    auto plan = sl::attack::plan_hotspot_attack(accel, scenario);
    benchmark::DoNotOptimize(plan.trojans.size());
  }
}
BENCHMARK(BM_HotspotPlanning)->Arg(1)->Arg(5);

// One default-scale training step of a zoo entry, as train_model runs it:
// forward, loss, backward_params (no first-layer input gradient) and the
// SGD update, on the first batch of the model's training set.
void BM_TrainStep(benchmark::State& state, sl::nn::ModelId id) {
  const sl::core::ExperimentSetup setup =
      sl::core::experiment_setup(id, sl::Scale::kDefault);
  auto model = sl::nn::make_model(id, setup.model_config);
  const auto [images, labels] = sl::core::make_train_data(setup).batch(
      0, setup.base_train.batch_size);
  sl::nn::Sgd opt(model->params(),
                  sl::nn::SgdConfig{setup.base_train.lr,
                                    setup.base_train.momentum,
                                    setup.base_train.weight_decay, false});
  for (auto _ : state) {
    const sl::nn::Tensor logits = model->forward(images, /*train=*/true);
    const sl::nn::LossResult loss = sl::nn::cross_entropy(logits, labels);
    model->backward_params(loss.grad);
    opt.step();
    opt.zero_grad();
    benchmark::DoNotOptimize(loss.loss);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(labels.size()));
}
BENCHMARK_CAPTURE(BM_TrainStep, cnn1, sl::nn::ModelId::kCnn1);
BENCHMARK_CAPTURE(BM_TrainStep, resnet18, sl::nn::ModelId::kResNet18);
BENCHMARK_CAPTURE(BM_TrainStep, vgg16v, sl::nn::ModelId::kVgg16v);

}  // namespace
