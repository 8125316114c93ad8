// Conv lowering geometry (ConvGeom) and col2im for 2-D convolution.
//
// Conv2d packs the GEMM's panels straight from the images through the
// backend's pack_conv / pack_conv_bt (nn/gemm_variant.inl); the patch
// matrix they stand for is built only by the test reference
// tests/support/im2col.hpp. Backward-to-input scatters patch gradients
// back with col2im, one image per column block.
#pragma once

#include <cstddef>

namespace safelight::nn {

/// Geometry of one conv lowering. All fields in elements (not bytes).
struct ConvGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t k_h = 0, k_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - k_h) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - k_w) / stride + 1; }
  /// Rows of the patch matrix: in_c * k_h * k_w.
  std::size_t patch_len() const { return in_c * k_h * k_w; }
  /// Columns of the patch matrix: out_h * out_w.
  std::size_t out_hw() const { return out_h() * out_w(); }
  /// True when the geometry produces at least one output pixel.
  bool valid() const {
    return in_h + 2 * pad >= k_h && in_w + 2 * pad >= k_w && stride > 0 &&
           in_c > 0 && k_h > 0 && k_w > 0;
  }
};

/// Output positions [lo, hi) whose tap at kernel offset `k` lands inside an
/// input of extent `in` (0 <= o * stride + k - pad < in); the rest read
/// padding. Shared by col2im and the im2col test reference so both walk
/// the same taps.
struct ValidSpan {
  std::size_t lo, hi;
};
ValidSpan valid_span(std::size_t k, std::size_t pad, std::size_t stride,
                     std::size_t in, std::size_t out);

/// Scatters columns [patch_len x out_hw] (rows `ld` floats apart) back into
/// an image [C,H,W], accumulating overlapping contributions. `image` must be
/// zeroed by the caller beforehand.
void col2im(const float* columns, const ConvGeom& g, float* image,
            std::size_t ld);

/// col2im with densely packed rows (ld = out_hw).
inline void col2im(const float* columns, const ConvGeom& g, float* image) {
  col2im(columns, g, image, g.out_hw());
}

}  // namespace safelight::nn
