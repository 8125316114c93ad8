#include "nn/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "nn/gemm.hpp"

namespace safelight::nn::backend {

namespace {

// __builtin_cpu_supports reads bits the dynamic loader filled in; the
// explicit __builtin_cpu_init() keeps the probes correct even when called
// before main (static initializers). Non-x86 builds have no variant TUs
// compiled in, so the probes are never consulted there.
bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// The AVX-512 variant is compiled with f/bw/dq/vl (the gcc >= skylake-avx512
// baseline the old -march=native build assumed); all four bits must be
// present before any of its code runs.
bool cpu_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
#else
  return false;
#endif
}

class CpuBackend final : public ComputeBackend {
 public:
  CpuBackend(const char* name, int priority, bool (*probe)(),
             const GemmKernels* kernels)
      : name_(name), priority_(priority), probe_(probe), kernels_(kernels) {}

  const char* name() const override { return name_; }
  int priority() const override { return priority_; }
  bool supported() const override {
    return probe_ == nullptr || probe_();
  }
  const GemmKernels& gemm_kernels() const override { return *kernels_; }

 private:
  const char* name_;
  int priority_;
  bool (*probe_)();  // nullptr = unconditionally supported (scalar)
  const GemmKernels* kernels_;
};

std::vector<const ComputeBackend*> build_registry() {
  static const CpuBackend scalar("scalar", 0, nullptr,
                                 detail::scalar_kernels());
  std::vector<const ComputeBackend*> list = {&scalar};
  if (const GemmKernels* kernels = detail::avx2_kernels()) {
    static const CpuBackend avx2("avx2", 10, &cpu_supports_avx2, kernels);
    list.push_back(&avx2);
  }
  if (const GemmKernels* kernels = detail::avx512_kernels()) {
    static const CpuBackend avx512("avx512", 20, &cpu_supports_avx512,
                                   kernels);
    list.push_back(&avx512);
  }
  std::sort(list.begin(), list.end(),
            [](const ComputeBackend* a, const ComputeBackend* b) {
              return a->priority() > b->priority();
            });
  return list;
}

std::string join_names(const std::vector<const ComputeBackend*>& backends,
                       bool supported_only) {
  std::string names;
  for (const ComputeBackend* backend : backends) {
    if (supported_only && !backend->supported()) continue;
    if (!names.empty()) names += ", ";
    names += backend->name();
  }
  return names;
}

// active() cache plus the ScopedBackend force. Both atomics: gemm calls
// arrive from pool threads while tests flip the force on the main thread
// before launching work.
std::atomic<const ComputeBackend*> g_active{nullptr};
std::atomic<const ComputeBackend*> g_forced{nullptr};
std::mutex g_resolve_mutex;

}  // namespace

const std::vector<const ComputeBackend*>& registered() {
  static const std::vector<const ComputeBackend*> list = build_registry();
  return list;
}

std::string registered_names() {
  return join_names(registered(), /*supported_only=*/false);
}

const ComputeBackend& resolve(const std::string& name) {
  const std::vector<const ComputeBackend*>& list = registered();
  if (name.empty() || name == "auto") {
    for (const ComputeBackend* backend : list) {
      if (backend->supported()) return *backend;
    }
    // Unreachable: scalar has no probe. Kept as a hard error, not UB.
    fail_argument("no supported compute backend (corrupt registry)");
  }
  for (const ComputeBackend* backend : list) {
    if (name == backend->name()) {
      require(backend->supported(),
              "compute backend '" + name +
                  "' is compiled in but not supported by this CPU "
                  "(supported here: auto, " +
                  join_names(list, /*supported_only=*/true) + ")");
      return *backend;
    }
  }
  fail_argument("unknown compute backend '" + name + "' (valid: auto, " +
                registered_names() + ")");
}

const ComputeBackend& active() {
  if (const ComputeBackend* forced =
          g_forced.load(std::memory_order_acquire)) {
    return *forced;
  }
  const ComputeBackend* cached = g_active.load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;
  const std::lock_guard<std::mutex> lock(g_resolve_mutex);
  cached = g_active.load(std::memory_order_relaxed);
  if (cached == nullptr) {
    cached = &resolve(config::backend());
    g_active.store(cached, std::memory_order_release);
  }
  return *cached;
}

void invalidate_cache() {
  g_active.store(nullptr, std::memory_order_release);
}

ScopedBackend::ScopedBackend(const ComputeBackend& backend)
    : previous_(g_forced.load(std::memory_order_acquire)) {
  g_forced.store(&backend, std::memory_order_release);
}

ScopedBackend::~ScopedBackend() {
  g_forced.store(previous_, std::memory_order_release);
}

std::string kernel_fingerprint(const ComputeBackend& backend) {
  // Deterministic probe problem: shapes exercise the unroll tail (k % 4),
  // partial row blocks (m % kMr) and partial panels (n % kNr), both bias
  // epilogues, accumulation, and all three entry points. A conforming
  // variant reproduces gemm_ref bit for bit, so the digest is the same on
  // every host and every variant of a conforming binary; it only changes
  // when the kernel's math changes — which is exactly what the distributed
  // handshake needs to detect.
  const ScopedBackend forced(backend);
  constexpr std::size_t kM = 7, kK = 13, kN = 37;
  float a[kM * kK], b[kK * kN], bt[kN * kK], at[kK * kM];
  float row_bias[kM], col_bias[kN];
  float c[kM * kN];
  std::uint32_t state = 0x9e3779b9u;
  const auto next = [&state]() {
    state = state * 1664525u + 1013904223u;
    return static_cast<float>(state >> 8) / 16777216.0f - 0.5f;
  };
  for (float& v : a) v = next();
  for (float& v : b) v = next();
  for (float& v : bt) v = next();
  for (float& v : at) v = next();
  for (float& v : row_bias) v = next();
  for (float& v : col_bias) v = next();

  Fingerprint digest;
  for (float& v : c) v = next();
  gemm(a, b, c, kM, kK, kN, /*accumulate=*/true, row_bias);
  digest.mix_bytes(c, sizeof c);
  gemm_bt(a, bt, c, kM, kK, kN, /*accumulate=*/false, col_bias);
  digest.mix_bytes(c, sizeof c);
  gemm_at(at, b, c, kM, kK, kN, /*accumulate=*/false);
  digest.mix_bytes(c, sizeof c);

  // The conv packers on a two-image group: stride 2 and a pad wider than
  // half the kernel put padding taps on every side, the 4x5 outputs split
  // panels mid-row and mid-image, and both packings end in partial panels.
  ConvPackArgs conv;
  conv.cnt = 2;
  conv.in_c = 2;
  conv.in_h = 5;
  conv.in_w = 7;
  conv.k_h = conv.k_w = 3;
  conv.stride = 2;
  conv.pad = 2;
  conv.out_h = 4;
  conv.out_w = 5;
  float images[2 * 2 * 5 * 7];
  for (float& v : images) v = next();
  conv.images = images;
  // pack_conv: 2 panels x 18 patch rows; pack_conv_bt: 1 panel x 40 pixels.
  float panels[1 * kNr * 40];
  static_assert(2 * kNr * 18 <= 1 * kNr * 40);
  backend.gemm_kernels().pack_conv(conv, panels);
  digest.mix_bytes(panels, 2 * kNr * 18 * sizeof(float));
  backend.gemm_kernels().pack_conv_bt(conv, panels);
  digest.mix_bytes(panels, 1 * kNr * 40 * sizeof(float));
  return digest.hex16();
}

std::string kernel_fingerprint() { return kernel_fingerprint(active()); }

void announce(bool verbose) {
  const ComputeBackend& backend = active();
  if (metrics::armed()) {
    metrics::counter(std::string("backend.selected.") + backend.name()).add();
  }
  if (trace::armed()) {
    trace::RawEvent event;
    event.name = "backend.selected";
    event.cat = "backend";
    event.start_ns = trace::now_ns();
    event.str_args.emplace_back("backend", backend.name());
    event.str_args.emplace_back("kernel", kernel_fingerprint(backend));
    trace::record(std::move(event));
  }
  if (verbose) {
    log::info("backend", "gemm compute backend: %s (registered: %s)",
              backend.name(), registered_names().c_str());
  }
}

}  // namespace safelight::nn::backend
