// Naive reference GEMM kernels (golden semantics for the packed kernels).
//
// These are the plain triple loops the optimized kernels in nn/gemm.hpp must
// reproduce bit for bit: per output element, terms are accumulated over k in
// ascending order through one accumulator, and the optional bias is added
// last. They run serially with no blocking, packing or vector-width
// assumptions, so they serve as the golden of tests/gemm_equivalence_test
// and as the baseline side of the microbench's kernel-speedup ratio
// (BM_GemmRef).
#pragma once

#include <cstddef>

namespace safelight::nn {

/// Reference semantics of nn::gemm (C = A * B, optional per-row bias).
void gemm_ref(const float* a, const float* b, float* c, std::size_t m,
              std::size_t k, std::size_t n, bool accumulate = false,
              const float* row_bias = nullptr);

/// Reference semantics of nn::gemm_bt (C = A * B^T, optional per-col bias).
void gemm_bt_ref(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate = false,
                 const float* col_bias = nullptr);

/// Reference semantics of nn::gemm_at (C = A^T * B).
void gemm_at_ref(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n, bool accumulate = false);

}  // namespace safelight::nn
