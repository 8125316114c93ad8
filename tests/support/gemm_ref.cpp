#include "support/gemm_ref.hpp"

namespace safelight::nn {

void gemm_ref(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, bool accumulate,
              const float* row_bias) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? crow[j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      crow[j] = row_bias ? acc + row_bias[i] : acc;
    }
  }
}

void gemm_bt_ref(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate,
                 const float* col_bias) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = accumulate ? crow[j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = col_bias ? acc + col_bias[j] : acc;
    }
  }
}

void gemm_at_ref(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      float acc = accumulate ? crow[j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[p * m + i] * b[p * n + j];
      crow[j] = acc;
    }
  }
}

}  // namespace safelight::nn
