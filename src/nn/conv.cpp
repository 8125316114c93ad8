#include "nn/conv.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/scratch.hpp"
#include "nn/backend.hpp"
#include "nn/gemm.hpp"

namespace safelight::nn {

namespace {

// Minimum column count of one lowered GEMM. The packed kernel always
// computes kNr-wide panels, so a layer whose output has few pixels (VGG's
// last conv runs at 1x1, ResNet's last stage at 2x2) lowers
// ceil(kMinGemmCols / out_hw) images into one GEMM instead of wasting most
// of every panel on padding. Measured against kMinGemmCols = kNr on a
// 4-vCPU AVX-512 host (perfbench/run.py, 5 alternating pairs): sweep-default
// median wall_s 3.87 s at 128 vs 4.22 s at kNr, for about 3 MB more peak
// RSS (103 vs 100 MB; serve-storm 68 vs 67 MB). kNr was faster only on the
// multi-threaded batch-64 forward microbenchmarks, where it yields more
// groups to spread over the pool; inside the sweep's scenario fan-out
// each layer runs on one thread.
constexpr std::size_t kMinGemmCols = 128;
static_assert(kMinGemmCols % backend::kNr == 0);

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Images per lowered GEMM for a layer with `hw` output pixels (>= 1).
std::size_t group_size(std::size_t hw, std::size_t batch) {
  return std::max<std::size_t>(1, std::min(batch, ceil_div(kMinGemmCols, hw)));
}

/// [cnt, rows, hw] (image-major, as tensors store it) -> the row-major
/// [rows, cnt * hw] GEMM operand of a lowered group, gathered into
/// `scratch`. A single image already has that layout and is returned as is.
const float* to_gemm_layout(const float* src, std::size_t cnt,
                            std::size_t rows, std::size_t hw, float* scratch) {
  if (cnt == 1) return src;
  for (std::size_t i = 0; i < cnt; ++i) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(scratch + (r * cnt + i) * hw, src + (i * rows + r) * hw,
                  hw * sizeof(float));
    }
  }
  return scratch;
}

/// Inverse of to_gemm_layout.
void from_gemm_layout(const float* src, std::size_t cnt, std::size_t rows,
                      std::size_t hw, float* dst) {
  for (std::size_t i = 0; i < cnt; ++i) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(dst + (i * rows + r) * hw, src + (r * cnt + i) * hw,
                  hw * sizeof(float));
    }
  }
}

}  // namespace

backend::ConvPackArgs conv_pack_args(const ConvGeom& g, const float* images,
                                     std::size_t cnt) {
  backend::ConvPackArgs args;
  args.images = images;
  args.cnt = cnt;
  args.in_c = g.in_c;
  args.in_h = g.in_h;
  args.in_w = g.in_w;
  args.k_h = g.k_h;
  args.k_w = g.k_w;
  args.stride = g.stride;
  args.pad = g.pad;
  args.out_h = g.out_h();
  args.out_w = g.out_w();
  return args;
}

Conv2d::Conv2d(std::size_t in_c, std::size_t out_c, std::size_t kernel,
               std::size_t stride, std::size_t pad, Rng& rng, bool bias)
    : in_c_(in_c), out_c_(out_c), kernel_(kernel), stride_(stride), pad_(pad),
      has_bias_(bias) {
  require(in_c > 0 && out_c > 0 && kernel > 0 && stride > 0,
          "Conv2d: channels, kernel and stride must be positive");
  weight_ = Param("conv.weight", ParamKind::kConvWeight,
                  Tensor({out_c_, in_c_ * kernel_ * kernel_}));
  kaiming_init(weight_.value, in_c_ * kernel_ * kernel_, rng);
  if (has_bias_) {
    bias_ = Param("conv.bias", ParamKind::kElectronic, Tensor({out_c_}));
  }
}

ConvGeom Conv2d::geom_for(const Shape& in) const {
  require(in.size() == 4, "Conv2d: expected [N,C,H,W], got " +
                              shape_to_string(in));
  require(in[1] == in_c_, "Conv2d: expected " + std::to_string(in_c_) +
                              " input channels, got " + std::to_string(in[1]));
  ConvGeom g;
  g.in_c = in_c_;
  g.in_h = in[2];
  g.in_w = in[3];
  g.k_h = g.k_w = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  require(g.valid(), "Conv2d: kernel does not fit input " +
                         shape_to_string(in));
  return g;
}

Shape Conv2d::output_shape(const Shape& in) const {
  const ConvGeom g = geom_for(in);
  return {in[0], out_c_, g.out_h(), g.out_w()};
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  const ConvGeom g = geom_for(x.shape());
  const std::size_t batch = x.dim(0);
  const std::size_t hw = g.out_hw();
  const std::size_t patch = g.patch_len();
  const std::size_t image_len = in_c_ * g.in_h * g.in_w;
  const std::size_t per = group_size(hw, batch);
  Tensor out({batch, out_c_, g.out_h(), g.out_w()});

  const float* w = weight_.value.data();
  const float* b = has_bias_ ? bias_.value.data() : nullptr;
  const backend::GemmKernels& kernels = backend::active().gemm_kernels();
  parallel_for_chunks(
      0, ceil_div(batch, per),
      [&](std::size_t lo, std::size_t hi) {
        // Per-worker scratch: the group's packed panels (and the GEMM
        // output it is scattered from) live in the thread-local arena and
        // are reused across every group of the chunk.
        ScratchArena& arena = ScratchArena::local();
        const ScratchArena::Frame frame(arena);
        float* packed = arena.alloc(packed_b_size(patch, per * hw));
        float* tmp = per > 1 ? arena.alloc(out_c_ * per * hw) : nullptr;
        for (std::size_t group = lo; group < hi; ++group) {
          const std::size_t n0 = group * per;
          const std::size_t cnt = std::min(per, batch - n0);
          kernels.pack_conv(conv_pack_args(g, x.data() + n0 * image_len, cnt),
                            packed);
          // A single image's GEMM output already has the tensor layout.
          float* out_n0 = out.data() + n0 * out_c_ * hw;
          float* dst = cnt == 1 ? out_n0 : tmp;
          // Bias (one per output channel = per GEMM row) fuses into the
          // kernel epilogue instead of a second pass over the output.
          gemm_packed(w, packed, dst, out_c_, patch, cnt * hw,
                      /*accumulate=*/false, /*row_bias=*/b);
          if (cnt > 1) from_gemm_layout(tmp, cnt, out_c_, hw, out_n0);
        }
      },
      1);

  if (train) {
    cached_input_ = x;
  } else {
    cached_input_ = Tensor();
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  return backward_impl(grad_out, /*input_grad=*/true);
}

void Conv2d::backward_params(const Tensor& grad_out) {
  (void)backward_impl(grad_out, /*input_grad=*/false);
}

Tensor Conv2d::backward_impl(const Tensor& grad_out, bool input_grad) {
  require(!cached_input_.empty(),
          "Conv2d::backward called without forward(train=true)");
  const Tensor& x = cached_input_;
  const ConvGeom g = geom_for(x.shape());
  const std::size_t batch = x.dim(0);
  const std::size_t hw = g.out_hw();
  const std::size_t patch = g.patch_len();
  const std::size_t image_len = in_c_ * g.in_h * g.in_w;
  const std::size_t out_len = out_c_ * hw;
  const std::size_t per = group_size(hw, batch);
  require(grad_out.shape() == output_shape(x.shape()),
          "Conv2d::backward: grad shape mismatch");

  const float* w = weight_.value.data();

  // Per-part gradient accumulators avoid data races. The batch splits
  // into a *fixed* number of contiguous parts — independent of
  // worker_count() — each summed serially and merged in part order, so
  // the gradient's floating-point reduction order (and therefore every
  // trained weight) is bitwise-identical for any SAFELIGHT_THREADS. The
  // defense subsystem's detector scores amplify even 1-ULP weight
  // differences, so thread-invariant training is part of the determinism
  // contract, not a nicety.
  constexpr std::size_t kGradParts = 8;
  const std::size_t parts = std::min<std::size_t>(kGradParts, batch);
  const std::size_t per_part = ceil_div(batch, parts);
  std::vector<Tensor> gw_parts;
  std::vector<Tensor> gb_parts;
  for (std::size_t i = 0; i < parts; ++i) {
    gw_parts.emplace_back(weight_.value.shape());
    gb_parts.emplace_back(Shape{out_c_});
  }

  // dW: each part runs its items in groups of at most `per`, one GEMM per
  // group over the concatenated (item, pixel) reduction axis. The kernel
  // loads the accumulator from C and reduces k in ascending order, so this
  // performs the same float operations as one accumulating call per item.
  const backend::GemmKernels& kernels = backend::active().gemm_kernels();
  parallel_for(
      0, parts,
      [&](std::size_t part) {
        const std::size_t lo = part * per_part;
        const std::size_t hi = std::min(batch, lo + per_part);
        float* gw = gw_parts[part].data();
        float* gb = gb_parts[part].data();
        ScratchArena& arena = ScratchArena::local();
        const ScratchArena::Frame frame(arena);
        float* packed = arena.alloc(packed_b_size(per * hw, patch));
        float* gout_group = per > 1 ? arena.alloc(out_len * per) : nullptr;
        for (std::size_t n0 = lo; n0 < hi; n0 += per) {
          const std::size_t cnt = std::min(per, hi - n0);
          kernels.pack_conv_bt(
              conv_pack_args(g, x.data() + n0 * image_len, cnt), packed);
          const float* gout = to_gemm_layout(grad_out.data() + n0 * out_len,
                                             cnt, out_c_, hw, gout_group);
          // dW += gout [outC x cols] * cols^T [cols x patch]
          gemm_packed(gout, packed, gw, out_c_, cnt * hw, patch,
                      /*accumulate=*/true);
          if (has_bias_) {
            for (std::size_t n = n0; n < n0 + cnt; ++n) {
              const float* gout_n = grad_out.data() + n * out_len;
              for (std::size_t o = 0; o < out_c_; ++o) {
                const float* row = gout_n + o * hw;
                float acc = 0.0f;
                for (std::size_t i = 0; i < hw; ++i) acc += row[i];
                gb[o] += acc;
              }
            }
          }
        }
      },
      1);

  for (std::size_t i = 0; i < parts; ++i) {
    weight_.grad += gw_parts[i];
    if (has_bias_) bias_.grad += gb_parts[i];
  }
  if (!input_grad) return Tensor();

  // dX: grouped like forward over the whole batch (each image's input
  // gradient is independent). dcols = W^T [patch x outC] * gout
  // [outC x cols], scattered back into the images of grad_in whose columns
  // sit at `dcols + i * hw`.
  Tensor grad_in(x.shape());
  parallel_for_chunks(
      0, ceil_div(batch, per),
      [&](std::size_t lo, std::size_t hi) {
        ScratchArena& arena = ScratchArena::local();
        const ScratchArena::Frame frame(arena);
        float* gout_group = per > 1 ? arena.alloc(out_len * per) : nullptr;
        float* dcols = arena.alloc(patch * per * hw);
        for (std::size_t group = lo; group < hi; ++group) {
          const std::size_t n0 = group * per;
          const std::size_t cnt = std::min(per, batch - n0);
          const float* gout = to_gemm_layout(grad_out.data() + n0 * out_len,
                                             cnt, out_c_, hw, gout_group);
          gemm_at(w, gout, dcols, patch, out_c_, cnt * hw);
          for (std::size_t i = 0; i < cnt; ++i) {
            col2im(dcols + i * hw, g, grad_in.data() + (n0 + i) * image_len,
                   cnt * hw);
          }
        }
      },
      1);
  return grad_in;
}

std::vector<Param*> Conv2d::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(in_c_) + "->" + std::to_string(out_c_) +
         ",k" + std::to_string(kernel_) + ",s" + std::to_string(stride_) +
         ",p" + std::to_string(pad_) + ")";
}

}  // namespace safelight::nn
