// im2col: the patch-matrix lowering of 2-D convolution, kept as the test
// reference of the conv packers.
//
// Conv2d never builds the patch matrix: the backend's pack_conv /
// pack_conv_bt (nn/gemm_variant.inl) write the GEMM's packed panels straight
// from the images. The patch matrix of a group of images, each unrolled
// into its own out_hw-wide column block of a shared [patch_len x cnt *
// out_hw] matrix (leading dimension `ld` = cnt * out_hw), then packed by
// pack_b / pack_bt, must equal the direct panels byte for byte
// (ConvPack.DirectPanelsMatchIm2colThenPackBitwise). scripts/check.sh fails
// on an im2col( call anywhere in src/.
#pragma once

#include <cstddef>

#include "nn/im2col.hpp"

namespace safelight::nn {

/// Unrolls a single image [C,H,W] into columns [patch_len x out_hw] whose
/// rows sit `ld` floats apart (ld >= out_hw). Out-of-bounds (padding) taps
/// contribute zeros; columns [out_hw, ld) of each row are left untouched.
void im2col(const float* image, const ConvGeom& g, float* columns,
            std::size_t ld);

/// im2col with densely packed rows (ld = out_hw).
inline void im2col(const float* image, const ConvGeom& g, float* columns) {
  im2col(image, g, columns, g.out_hw());
}

}  // namespace safelight::nn
