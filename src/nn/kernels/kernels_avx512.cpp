// AVX-512 kernels (F + BW). One 16-float zmm covers a full kNR panel row.
// Same bitwise contract as the AVX2 backend: independent-output
// vectorization only, separate mul + add (no FMA), serial K per element.
// Compiled with -mavx512f -mavx512bw -mavx512vl (see src/CMakeLists.txt);
// entered only after the dispatcher verified avx512f+avx512bw at runtime.
#include <immintrin.h>

#include "nn/kernels/kernels.h"

namespace netfm::nn::kernels {
namespace {

void gemm_rows_avx512(MatRef a, const float* packed_b, std::size_t K,
                      std::size_t N, float* c, std::size_t row_lo,
                      std::size_t row_hi, bool accumulate) {
  for (std::size_t i = row_lo; i < row_hi; i += kMR) {
    const std::size_t mr = std::min(kMR, row_hi - i);
    for (std::size_t jp = 0; jp < N; jp += kNR) {
      const std::size_t nr = std::min(kNR, N - jp);
      const float* bp = packed_b + jp * K;
      __m512 acc[kMR];
      for (std::size_t r = 0; r < mr; ++r) acc[r] = _mm512_setzero_ps();
      for (std::size_t kk = 0; kk < K; ++kk) {
        const __m512 b0 = _mm512_loadu_ps(bp + kk * kNR);
        for (std::size_t r = 0; r < mr; ++r) {
          const __m512 av =
              _mm512_set1_ps(a.p[(i + r) * a.rs + kk * a.cs]);
          acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, b0));
        }
      }
      for (std::size_t r = 0; r < mr; ++r) {
        float* crow = c + (i + r) * N + jp;
        if (nr == kNR) {
          if (accumulate)
            _mm512_storeu_ps(crow,
                             _mm512_add_ps(_mm512_loadu_ps(crow), acc[r]));
          else
            _mm512_storeu_ps(crow, acc[r]);
        } else {
          const __mmask16 edge =
              static_cast<__mmask16>((1u << nr) - 1u);
          if (accumulate)
            _mm512_mask_storeu_ps(
                crow, edge,
                _mm512_add_ps(_mm512_maskz_loadu_ps(edge, crow), acc[r]));
          else
            _mm512_mask_storeu_ps(crow, edge, acc[r]);
        }
      }
    }
  }
}

void weighted_sum_acc_avx512(const float* w, const float* rows, std::size_t t,
                             std::size_t dk, float* out) {
  // Vectorized across output columns only, accumulator seeded from out:
  // loading the previous run's fp32 partials is a value-preserving
  // round-trip, so the add sequence per element matches one contiguous
  // reduction over the same rows.
  std::size_t c = 0;
  for (; c + 16 <= dk; c += 16) {
    __m512 acc = _mm512_loadu_ps(out + c);
    for (std::size_t j = 0; j < t; ++j)
      acc = _mm512_add_ps(
          acc, _mm512_mul_ps(_mm512_set1_ps(w[j]),
                             _mm512_loadu_ps(rows + j * dk + c)));
    _mm512_storeu_ps(out + c, acc);
  }
  if (c < dk) {
    const __mmask16 edge =
        static_cast<__mmask16>((1u << (dk - c)) - 1u);
    __m512 acc = _mm512_maskz_loadu_ps(edge, out + c);
    for (std::size_t j = 0; j < t; ++j)
      acc = _mm512_add_ps(
          acc, _mm512_mul_ps(_mm512_set1_ps(w[j]),
                             _mm512_maskz_loadu_ps(edge, rows + j * dk + c)));
    _mm512_mask_storeu_ps(out + c, edge, acc);
  }
}

void gemm_i8_avx512(const std::int8_t* a, const std::int8_t* bt,
                    std::size_t M, std::size_t N, std::size_t kp,
                    std::int32_t* c) {
  // kp is a multiple of kQuantKAlign (64): one full zmm of int8 per step.
  for (std::size_t i = 0; i < M; ++i) {
    const std::int8_t* arow = a + i * kp;
    for (std::size_t j = 0; j < N; ++j) {
      const std::int8_t* brow = bt + j * kp;
      __m512i acc = _mm512_setzero_si512();
      for (std::size_t k = 0; k < kp; k += 64) {
        const __m512i va = _mm512_loadu_si512(arow + k);
        const __m512i vb = _mm512_loadu_si512(brow + k);
        const __m512i a_lo =
            _mm512_cvtepi8_epi16(_mm512_castsi512_si256(va));
        const __m512i a_hi =
            _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(va, 1));
        const __m512i b_lo =
            _mm512_cvtepi8_epi16(_mm512_castsi512_si256(vb));
        const __m512i b_hi =
            _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(vb, 1));
        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(a_lo, b_lo));
        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(a_hi, b_hi));
      }
      c[i * N + j] = _mm512_reduce_add_epi32(acc);
    }
  }
}

}  // namespace

extern const KernelTable kAvx512Table;
const KernelTable kAvx512Table = {
    "avx512",
    gemm_rows_avx512,
    weighted_sum_acc_avx512,
    gemm_i8_avx512,
};

}  // namespace netfm::nn::kernels
