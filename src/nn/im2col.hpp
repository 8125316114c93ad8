// im2col / col2im lowering for 2-D convolution, and ConvGeom.
//
// Conv2d no longer runs im2col: the backend's pack_conv / pack_conv_bt
// (nn/gemm_variant.inl) write the GEMM's packed panels straight from the
// images. im2col stays as their test reference, the way nn/gemm_ref is
// kept for the GEMM: the patch matrix of a group of images, each unrolled
// into its own out_hw-wide column block of a shared [patch_len x cnt *
// out_hw] matrix (leading dimension `ld` = cnt * out_hw), then packed by
// pack_b / pack_bt, must equal the direct panels byte for byte
// (ConvPack.DirectPanelsMatchIm2colThenPackBitwise). scripts/check.sh fails
// on an im2col( call anywhere else in src/. Backward-to-input still uses
// col2im to scatter patch gradients back, one image per column block.
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

/// Unrolls a single image [C,H,W] into columns [patch_len x out_hw] whose
/// rows sit `ld` floats apart (ld >= out_hw). Out-of-bounds (padding) taps
/// contribute zeros; columns [out_hw, ld) of each row are left untouched.
void im2col(const float* image, const ConvGeom& g, float* columns,
            std::size_t ld);

/// im2col with densely packed rows (ld = out_hw).
inline void im2col(const float* image, const ConvGeom& g, float* columns) {
  im2col(image, g, columns, g.out_hw());
}

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
