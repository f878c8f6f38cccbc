// Scalar-fp32 reference kernels — the bitwise oracle every SIMD backend is
// tested against. These are the PR-1 packed/register-blocked loops moved
// out of tensor.cpp verbatim: each output element reduces K serially in
// ascending order with one multiply and one add per step, so any backend
// that preserves that per-element operation sequence agrees bit-for-bit.
#include "nn/kernels/kernels.h"

namespace netfm::nn::kernels {
namespace {

template <bool Accumulate>
void gemm_rows_impl(MatRef a, const float* packed_b, std::size_t K,
                    std::size_t N, float* c, std::size_t row_lo,
                    std::size_t row_hi) {
  for (std::size_t i = row_lo; i < row_hi; i += kMR) {
    const std::size_t mr = std::min(kMR, row_hi - i);
    for (std::size_t jp = 0; jp < N; jp += kNR) {
      const std::size_t nr = std::min(kNR, N - jp);
      const float* bp = packed_b + jp * K;
      float acc[kMR][kNR] = {};
      if (mr == kMR) {
        for (std::size_t kk = 0; kk < K; ++kk) {
          const float* brow = bp + kk * kNR;
          for (std::size_t r = 0; r < kMR; ++r) {
            const float av = a.p[(i + r) * a.rs + kk * a.cs];
            for (std::size_t cc = 0; cc < kNR; ++cc)
              acc[r][cc] += av * brow[cc];
          }
        }
      } else {
        for (std::size_t kk = 0; kk < K; ++kk) {
          const float* brow = bp + kk * kNR;
          for (std::size_t r = 0; r < mr; ++r) {
            const float av = a.p[(i + r) * a.rs + kk * a.cs];
            for (std::size_t cc = 0; cc < kNR; ++cc)
              acc[r][cc] += av * brow[cc];
          }
        }
      }
      for (std::size_t r = 0; r < mr; ++r) {
        float* crow = c + (i + r) * N + jp;
        if constexpr (Accumulate) {
          for (std::size_t cc = 0; cc < nr; ++cc) crow[cc] += acc[r][cc];
        } else {
          for (std::size_t cc = 0; cc < nr; ++cc) crow[cc] = acc[r][cc];
        }
      }
    }
  }
}

void gemm_rows_scalar(MatRef a, const float* packed_b, std::size_t K,
                      std::size_t N, float* c, std::size_t row_lo,
                      std::size_t row_hi, bool accumulate) {
  if (accumulate)
    gemm_rows_impl<true>(a, packed_b, K, N, c, row_lo, row_hi);
  else
    gemm_rows_impl<false>(a, packed_b, K, N, c, row_lo, row_hi);
}

void weighted_sum_acc_scalar(const float* w, const float* rows, std::size_t t,
                             std::size_t dk, float* out) {
  // Serial ascending-j reduction per output element, seeded from out —
  // the reference order every SIMD backend reproduces.
  for (std::size_t j = 0; j < t; ++j) {
    const float wj = w[j];
    const float* row = rows + j * dk;
    for (std::size_t c = 0; c < dk; ++c) out[c] += wj * row[c];
  }
}

void gemm_i8_scalar(const std::int8_t* a, const std::int8_t* bt,
                    std::size_t M, std::size_t N, std::size_t kp,
                    std::int32_t* c) {
  for (std::size_t i = 0; i < M; ++i) {
    const std::int8_t* arow = a + i * kp;
    for (std::size_t j = 0; j < N; ++j) {
      const std::int8_t* brow = bt + j * kp;
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < kp; ++k)
        acc += static_cast<std::int32_t>(arow[k]) *
               static_cast<std::int32_t>(brow[k]);
      c[i * N + j] = acc;
    }
  }
}

}  // namespace

extern const KernelTable kScalarTable;
const KernelTable kScalarTable = {
    "scalar",
    gemm_rows_scalar,
    weighted_sum_acc_scalar,
    gemm_i8_scalar,
};

}  // namespace netfm::nn::kernels
