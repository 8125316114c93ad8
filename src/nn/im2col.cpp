#include "nn/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace safelight::nn {

namespace {

/// Output positions [lo, hi) whose tap at kernel offset `k` lands inside the
/// image (0 <= o * stride + k - pad < in); the rest read padding.
struct ValidSpan {
  std::size_t lo, hi;
};

ValidSpan valid_span(std::size_t k, std::size_t pad, std::size_t stride,
                     std::size_t in, std::size_t out) {
  const std::size_t lo =
      std::min(out, k >= pad ? 0 : (pad - k + stride - 1) / stride);
  // o * stride + k - pad < in  <=>  o * stride < in + pad - k.
  const std::size_t limit = in + pad;
  const std::size_t hi =
      limit <= k ? 0 : std::min(out, (limit - k + stride - 1) / stride);
  return {lo, std::max(lo, hi)};
}

}  // namespace

void im2col(const float* image, const ConvGeom& g, float* columns,
            std::size_t ld) {
  const std::size_t out_h = g.out_h();
  const std::size_t out_w = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.k_h; ++kh) {
      const ValidSpan rows = valid_span(kh, g.pad, g.stride, g.in_h, out_h);
      for (std::size_t kw = 0; kw < g.k_w; ++kw, ++row) {
        const ValidSpan cols = valid_span(kw, g.pad, g.stride, g.in_w, out_w);
        float* out_row = columns + row * ld;
        // Whole output rows whose tap falls in the top/bottom padding.
        std::memset(out_row, 0, rows.lo * out_w * sizeof(float));
        std::memset(out_row + rows.hi * out_w, 0,
                    (out_h - rows.hi) * out_w * sizeof(float));
        for (std::size_t oh = rows.lo; oh < rows.hi; ++oh) {
          const float* src = plane + (oh * g.stride + kh - g.pad) * g.in_w;
          float* dst = out_row + oh * out_w;
          std::memset(dst, 0, cols.lo * sizeof(float));
          if (g.stride == 1) {
            // An empty span (the tap reads only padding, e.g. a kernel
            // wider than the image) must not form its source pointer: it
            // would lie outside the plane.
            if (cols.hi > cols.lo) {
              std::memcpy(dst + cols.lo, src + cols.lo + kw - g.pad,
                          (cols.hi - cols.lo) * sizeof(float));
            }
          } else {
            for (std::size_t ow = cols.lo; ow < cols.hi; ++ow) {
              dst[ow] = src[ow * g.stride + kw - g.pad];
            }
          }
          std::memset(dst + cols.hi, 0, (out_w - cols.hi) * sizeof(float));
        }
      }
    }
  }
}

void col2im(const float* columns, const ConvGeom& g, float* image,
            std::size_t ld) {
  const std::size_t out_h = g.out_h();
  const std::size_t out_w = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.k_h; ++kh) {
      const ValidSpan rows = valid_span(kh, g.pad, g.stride, g.in_h, out_h);
      for (std::size_t kw = 0; kw < g.k_w; ++kw, ++row) {
        const ValidSpan cols = valid_span(kw, g.pad, g.stride, g.in_w, out_w);
        const float* in_row = columns + row * ld;
        // Same (c, kh, kw, oh, ow) order as the unrolling, so every pixel
        // accumulates its taps in a fixed order.
        for (std::size_t oh = rows.lo; oh < rows.hi; ++oh) {
          float* dst = plane + (oh * g.stride + kh - g.pad) * g.in_w;
          const float* src = in_row + oh * out_w;
          for (std::size_t ow = cols.lo; ow < cols.hi; ++ow) {
            dst[ow * g.stride + kw - g.pad] += src[ow];
          }
        }
      }
    }
  }
}

}  // namespace safelight::nn
