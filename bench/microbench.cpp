// Substrate micro-benchmarks (google-benchmark): GEMM, convolution,
// MR-bank transmission model, thermal solver, mapping and attack planning.
// These size the simulator itself, not the paper's results.

#include <benchmark/benchmark.h>

#include <atomic>

#include "accel/mapping.hpp"
#include "attacks/actuation.hpp"
#include "attacks/hotspot.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_ref.hpp"
#include "nn/models.hpp"
#include "photonics/mr_bank.hpp"
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

// The kept naive reference kernel (nn/gemm_ref.hpp): the denominator of the
// packed-kernel speedup ratio. It matches the original scalar kernel's
// structure, so BM_Gemm / BM_GemmRef tracks the packed kernel's win on
// whatever host runs it.
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

}  // namespace
