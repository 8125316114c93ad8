// Tests for nn::Tensor, GEMM kernels and im2col/col2im.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "nn/tensor.hpp"
#include "support/im2col.hpp"

namespace safelight::nn {
namespace {

// ---------------------------------------------------------------- tensor

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, ShapeHelpers) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({}), 1u);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, RejectsZeroDimension) {
  EXPECT_THROW(Tensor({2, 0, 3}), std::invalid_argument);
}

TEST(Tensor, DataShapeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, MultiDimIndexing) {
  Tensor t({2, 3, 4});
  t.at({1, 2, 3}) = 7.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
  EXPECT_EQ(t.at({1, 2, 3}), 7.0f);
}

TEST(Tensor, IndexingBoundsChecked) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({2, 0}), std::out_of_range);
  EXPECT_THROW(t.at({0, 0, 0}), std::invalid_argument);  // rank mismatch
  EXPECT_THROW(t.at_flat(6), std::out_of_range);
  EXPECT_THROW(t.dim(2), std::out_of_range);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from({1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({2, 3});
  EXPECT_EQ(r.at({1, 0}), 4.0f);
  EXPECT_THROW(t.reshaped({7}), std::invalid_argument);
}

TEST(Tensor, Arithmetic) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({4, 5, 6});
  Tensor c = a + b;
  EXPECT_EQ(c[0], 5.0f);
  c -= a;
  EXPECT_EQ(c[2], 6.0f);
  c *= 2.0f;
  EXPECT_EQ(c[0], 8.0f);
  c.add_scaled(a, -1.0f);
  EXPECT_EQ(c[0], 7.0f);
}

TEST(Tensor, ArithmeticShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a.add_scaled(b, 1.0f), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from({-3, 1, 2});
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.max(), 2.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
  EXPECT_DOUBLE_EQ(t.sum_squares(), 14.0);
}

TEST(Tensor, AllFiniteDetectsNan) {
  Tensor t = Tensor::from({1, 2});
  EXPECT_TRUE(t.all_finite());
  t[0] = std::nanf("");
  EXPECT_FALSE(t.all_finite());
  t[0] = INFINITY;
  EXPECT_FALSE(t.all_finite());
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({1, 2.5, 2});
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 1.0f);
}

TEST(Tensor, FullFactory) {
  Tensor t = Tensor::full({2, 2}, 3.5f);
  EXPECT_EQ(t.sum(), 14.0f);
}

// ---------------------------------------------------------------- gemm

void naive_gemm(const std::vector<float>& a, const std::vector<float>& b,
                std::vector<float>& c, std::size_t m, std::size_t k,
                std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

struct GemmDims {
  std::size_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmDims> {};

TEST_P(GemmTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(99);
  std::vector<float> a(m * k), b(k * n), c(m * n), expected(m * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  naive_gemm(a, b, expected, m, k, n);
  gemm(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i], 1e-4f) << "at " << i;
  }
}

TEST_P(GemmTest, TransposedVariantsMatch) {
  const auto [m, k, n] = GetParam();
  Rng rng(123);
  std::vector<float> a(m * k), b(k * n), expected(m * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  naive_gemm(a, b, expected, m, k, n);

  // gemm_bt: B^T stored as [n x k].
  std::vector<float> bt(n * k), c_bt(m * n);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
  }
  gemm_bt(a.data(), bt.data(), c_bt.data(), m, k, n);
  for (std::size_t i = 0; i < c_bt.size(); ++i) {
    EXPECT_NEAR(c_bt[i], expected[i], 1e-4f);
  }

  // gemm_at: A^T stored as [k x m].
  std::vector<float> at(k * m), c_at(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }
  gemm_at(at.data(), b.data(), c_at.data(), m, k, n);
  for (std::size_t i = 0; i < c_at.size(); ++i) {
    EXPECT_NEAR(c_at[i], expected[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmDims{1, 1, 1}, GemmDims{3, 5, 2}, GemmDims{8, 8, 8},
                      GemmDims{17, 31, 13}, GemmDims{64, 70, 5},
                      GemmDims{33, 1, 9}, GemmDims{2, 128, 2}));

TEST(Gemm, AccumulateAddsToExisting) {
  const std::size_t m = 2, k = 3, n = 2;
  std::vector<float> a = {1, 0, 0, 0, 1, 0};
  std::vector<float> b = {1, 2, 3, 4, 5, 6};
  std::vector<float> c = {10, 10, 10, 10};
  gemm(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[1], 12.0f);
  EXPECT_FLOAT_EQ(c[2], 13.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(Gemm, EmptyDimsAreNoops) {
  std::vector<float> c(4, 1.0f);
  gemm(nullptr, nullptr, c.data(), 0, 5, 4);
  EXPECT_FLOAT_EQ(c[0], 1.0f);  // untouched
}

// ---------------------------------------------------------------- im2col

TEST(Im2col, GeometryMath) {
  ConvGeom g{3, 8, 8, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 8u);
  EXPECT_EQ(g.out_w(), 8u);
  EXPECT_EQ(g.patch_len(), 27u);
  EXPECT_TRUE(g.valid());

  ConvGeom strided{1, 7, 7, 3, 3, 2, 0};
  EXPECT_EQ(strided.out_h(), 3u);

  ConvGeom bad{1, 2, 2, 5, 5, 1, 0};
  EXPECT_FALSE(bad.valid());
}

TEST(Im2col, IdentityKernelExtractsPixels) {
  // 1x1 kernel: columns should be exactly the image pixels.
  ConvGeom g{2, 3, 3, 1, 1, 1, 0};
  std::vector<float> image(18);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<float>(i);
  }
  std::vector<float> cols(g.patch_len() * g.out_hw());
  im2col(image.data(), g, cols.data());
  for (std::size_t i = 0; i < image.size(); ++i) {
    EXPECT_FLOAT_EQ(cols[i], image[i]);
  }
}

TEST(Im2col, PaddingYieldsZeros) {
  ConvGeom g{1, 2, 2, 3, 3, 1, 1};
  std::vector<float> image = {1, 2, 3, 4};
  std::vector<float> cols(g.patch_len() * g.out_hw());
  im2col(image.data(), g, cols.data());
  // Top-left output pixel, top-left kernel tap reads padding.
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
  // Center tap (kh=1, kw=1) of output (0,0) reads image(0,0)=1.
  const std::size_t center_row = 1 * 3 + 1;
  EXPECT_FLOAT_EQ(cols[center_row * g.out_hw() + 0], 1.0f);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property
  // of the adjoint pair used by conv backward.
  ConvGeom g{2, 5, 6, 3, 3, 2, 1};
  Rng rng(55);
  const std::size_t image_len = g.in_c * g.in_h * g.in_w;
  const std::size_t cols_len = g.patch_len() * g.out_hw();
  std::vector<float> x(image_len), y(cols_len);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1, 1));

  std::vector<float> ax(cols_len);
  im2col(x.data(), g, ax.data());
  std::vector<float> aty(image_len, 0.0f);
  col2im(y.data(), g, aty.data());

  double lhs = 0, rhs = 0;
  for (std::size_t i = 0; i < cols_len; ++i) lhs += ax[i] * y[i];
  for (std::size_t i = 0; i < image_len; ++i) rhs += x[i] * aty[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, Col2imAccumulatesOverlaps) {
  // 3x3 kernel, stride 1, no padding on 3x3 image: the center pixel is
  // covered by exactly 1 output position but taps overlap in general; use
  // all-ones columns and verify counts.
  ConvGeom g{1, 3, 3, 2, 2, 1, 0};
  std::vector<float> cols(g.patch_len() * g.out_hw(), 1.0f);
  std::vector<float> image(9, 0.0f);
  col2im(cols.data(), g, image.data());
  // Corner pixel (0,0) is touched once; center (1,1) four times.
  EXPECT_FLOAT_EQ(image[0], 1.0f);
  EXPECT_FLOAT_EQ(image[4], 4.0f);
}

std::vector<float> random_floats(std::size_t n, Rng& rng) {
  std::vector<float> out(n);
  for (auto& v : out) v = static_cast<float>(rng.uniform(-1, 1));
  return out;
}

TEST(Im2col, LeadingDimensionLeavesGapColumnsUntouched) {
  // Two images share one [patch x 2 * (hw + gap)] buffer the way Conv2d
  // lowers a group; each image's gap columns must keep their prior bytes.
  ConvGeom g{3, 5, 4, 3, 3, 1, 1};
  const std::size_t hw = g.out_hw();
  const std::size_t patch = g.patch_len();
  const std::size_t ld = 2 * (hw + 3);
  const std::size_t image_len = g.in_c * g.in_h * g.in_w;
  Rng rng(56);
  const auto images = random_floats(2 * image_len, rng);
  std::vector<float> dense(patch * hw);
  std::vector<float> cols(patch * ld, 42.0f);
  im2col(images.data(), g, cols.data(), ld);
  im2col(images.data() + image_len, g, cols.data() + hw + 3, ld);
  for (std::size_t img = 0; img < 2; ++img) {
    im2col(images.data() + img * image_len, g, dense.data());
    const std::size_t base = img * (hw + 3);
    for (std::size_t row = 0; row < patch; ++row) {
      const float* got = cols.data() + row * ld + base;
      EXPECT_EQ(std::memcmp(got, dense.data() + row * hw, hw * sizeof(float)),
                0)
          << "image " << img << " row " << row;
      for (std::size_t j = hw; j < hw + 3; ++j) {
        EXPECT_EQ(got[j], 42.0f) << "gap column overwritten, row " << row;
      }
    }
  }

  // col2im reads only the first hw columns of each row: NaN gaps must not
  // reach the image.
  for (std::size_t row = 0; row < patch; ++row) {
    for (std::size_t j = hw; j < ld; ++j) cols[row * ld + j] = std::nanf("");
  }
  std::vector<float> got(image_len, 0.0f), want(image_len, 0.0f);
  col2im(cols.data(), g, got.data(), ld);
  for (std::size_t row = 0; row < patch; ++row) {
    std::memcpy(dense.data() + row * hw, cols.data() + row * ld,
                hw * sizeof(float));
  }
  col2im(dense.data(), g, want.data());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), image_len * sizeof(float)),
            0);
}

TEST(Im2col, Col2imIsAdjointWithLeadingDimension) {
  // The adjoint property restricted to the hw columns each row owns.
  ConvGeom g{2, 5, 6, 3, 3, 2, 1};
  const std::size_t hw = g.out_hw();
  const std::size_t ld = hw + 5;
  Rng rng(57);
  const std::size_t image_len = g.in_c * g.in_h * g.in_w;
  const auto x = random_floats(image_len, rng);
  const auto y = random_floats(g.patch_len() * ld, rng);

  std::vector<float> ax(g.patch_len() * ld, 0.0f);
  im2col(x.data(), g, ax.data(), ld);
  std::vector<float> aty(image_len, 0.0f);
  col2im(y.data(), g, aty.data(), ld);

  double lhs = 0, rhs = 0;
  for (std::size_t row = 0; row < g.patch_len(); ++row) {
    for (std::size_t j = 0; j < hw; ++j) {
      lhs += ax[row * ld + j] * y[row * ld + j];
    }
  }
  for (std::size_t i = 0; i < image_len; ++i) rhs += x[i] * aty[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

/// The original per-element lowering, with a bounds test on every tap: the
/// span-based im2col/col2im must reproduce it exactly.
void im2col_per_tap(const float* image, const ConvGeom& g, float* columns) {
  const std::size_t out_h = g.out_h();
  const std::size_t out_w = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t kh = 0; kh < g.k_h; ++kh) {
      for (std::size_t kw = 0; kw < g.k_w; ++kw, ++row) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const long ih = static_cast<long>(oh * g.stride + kh) -
                            static_cast<long>(g.pad);
            const long iw = static_cast<long>(ow * g.stride + kw) -
                            static_cast<long>(g.pad);
            const bool ok = ih >= 0 && ih < static_cast<long>(g.in_h) &&
                            iw >= 0 && iw < static_cast<long>(g.in_w);
            columns[row * out_h * out_w + oh * out_w + ow] =
                ok ? image[(c * g.in_h + static_cast<std::size_t>(ih)) *
                               g.in_w +
                           static_cast<std::size_t>(iw)]
                   : 0.0f;
          }
        }
      }
    }
  }
}

void col2im_per_tap(const float* columns, const ConvGeom& g, float* image) {
  const std::size_t out_h = g.out_h();
  const std::size_t out_w = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t kh = 0; kh < g.k_h; ++kh) {
      for (std::size_t kw = 0; kw < g.k_w; ++kw, ++row) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
          for (std::size_t ow = 0; ow < out_w; ++ow) {
            const long ih = static_cast<long>(oh * g.stride + kh) -
                            static_cast<long>(g.pad);
            const long iw = static_cast<long>(ow * g.stride + kw) -
                            static_cast<long>(g.pad);
            if (ih < 0 || ih >= static_cast<long>(g.in_h) || iw < 0 ||
                iw >= static_cast<long>(g.in_w)) {
              continue;
            }
            image[(c * g.in_h + static_cast<std::size_t>(ih)) * g.in_w +
                  static_cast<std::size_t>(iw)] +=
                columns[row * out_h * out_w + oh * out_w + ow];
          }
        }
      }
    }
  }
}

TEST(Im2col, MatchesPerTapLoweringElementForElement) {
  const ConvGeom geoms[] = {
      {2, 5, 5, 2, 2, 1, 3},  // padding wider than the kernel
      {2, 6, 6, 3, 3, 3, 4},  // ... with stride 3
      {3, 7, 5, 3, 3, 2, 1},  // stride 2, odd sizes
      {2, 5, 7, 3, 3, 2, 2},  // stride 2, odd sizes, pad 2
      {1, 4, 6, 2, 3, 2, 1},  // non-square kernel
      {1, 1, 1, 7, 7, 1, 3},  // kernel wider than the image
      {2, 8, 8, 3, 3, 1, 1},  // the common same-padding case
      {1, 6, 9, 1, 1, 2, 0},  // 1x1 kernel, stride 2
  };
  Rng rng(58);
  for (const ConvGeom& g : geoms) {
    ASSERT_TRUE(g.valid());
    const std::string label = "in " + std::to_string(g.in_h) + "x" +
                              std::to_string(g.in_w) + " k" +
                              std::to_string(g.k_h) + "x" +
                              std::to_string(g.k_w) + " s" +
                              std::to_string(g.stride) + " p" +
                              std::to_string(g.pad);
    const std::size_t image_len = g.in_c * g.in_h * g.in_w;
    const std::size_t cols_len = g.patch_len() * g.out_hw();
    const auto image = random_floats(image_len, rng);
    std::vector<float> got(cols_len, 7.0f), want(cols_len, -7.0f);
    im2col(image.data(), g, got.data());
    im2col_per_tap(image.data(), g, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), cols_len * sizeof(float)),
              0)
        << label << ": im2col";

    // col2im accumulates onto whatever the image holds.
    const auto cols = random_floats(cols_len, rng);
    std::vector<float> back = random_floats(image_len, rng);
    std::vector<float> back_want = back;
    col2im(cols.data(), g, back.data());
    col2im_per_tap(cols.data(), g, back_want.data());
    EXPECT_EQ(
        std::memcmp(back.data(), back_want.data(), image_len * sizeof(float)),
        0)
        << label << ": col2im";
  }
}

}  // namespace
}  // namespace safelight::nn
