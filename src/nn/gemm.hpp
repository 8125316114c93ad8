// Packed, register-tiled single-precision GEMM kernels.
//
// All convolution and fully-connected compute lowers onto these routines.
// B is packed into kNr-wide column panels held in the thread-local
// scratch arena (Conv2d packs its panels straight from the images and
// hands them to gemm_packed); a kMr x kNr register-blocked micro-kernel
// (unrolled by 4 over k) then streams the panels. The compute itself is dispatched at
// runtime through the compute-backend registry (nn/backend.hpp): one fat
// binary carries scalar, AVX2 and AVX-512 variants of the kernel body and
// picks the best one the host CPU supports (override with --backend /
// SAFELIGHT_BACKEND).
//
// Numerics contract: every output element is reduced over k in ascending
// order through a single accumulator, with FMA contraction disabled, so
// results are bitwise-identical to the naive reference kernels in
// tests/support/gemm_ref.hpp regardless of tile shape, thread count, host
// ISA or backend choice (enforced per compiled-in variant by
// tests/gemm_equivalence_test.cpp).
//
// The optional fused bias is added once per output element after the
// reduction — the same rounding sequence as a separate bias pass, without
// re-traversing C.
#pragma once

#include <cstddef>

namespace safelight::nn {

/// C[m x n] = A[m x k] * B[k x n] (+ C when accumulate). Row-major, no
/// alias. When row_bias is non-null, bias[i] is added to every element of
/// output row i in the epilogue (Conv2d: one bias per output channel).
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n, bool accumulate = false,
          const float* row_bias = nullptr);

/// C[m x n] = A[m x k] * B^T where B is [n x k]. Row-major, no alias. When
/// col_bias is non-null, bias[j] is added to every element of output column
/// j in the epilogue (Linear: one bias per output feature).
void gemm_bt(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate = false,
             const float* col_bias = nullptr);

/// C[m x n] = A^T * B where A is [k x m], B is [k x n]. Row-major, no alias.
void gemm_at(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate = false);

/// Floats of a packed B operand for a [k x n] GEMM: ceil(n / kNr)
/// zero-padded panels of kNr x k (nn/backend.hpp).
std::size_t packed_b_size(std::size_t k, std::size_t n);

/// C[m x n] = A[m x k] * B (+ C when accumulate), with B already packed
/// into packed_b_size(k, n) floats by one of the backend packers (Conv2d's
/// pack_conv / pack_conv_bt). Row-major A and C, no alias; row_bias as for
/// gemm. Counted and traced like the other entry points.
void gemm_packed(const float* a, const float* packed, float* c,
                 std::size_t m, std::size_t k, std::size_t n,
                 bool accumulate = false, const float* row_bias = nullptr);

}  // namespace safelight::nn
