// AVX2 kernels. Bitwise-identical to the scalar oracle: vectorization runs
// only across independent output columns (the kNR dimension — two 8-float
// ymm lanes), K still reduces serially per element, and every step is a
// separate _mm256_mul_ps + _mm256_add_ps — never FMA, whose fused rounding
// would diverge from the scalar sequence. This translation unit is
// compiled with -mavx2 (see src/CMakeLists.txt); it is only ever entered
// after the dispatcher has verified AVX2 via __builtin_cpu_supports.
#include <immintrin.h>

#include "nn/kernels/kernels.h"

namespace netfm::nn::kernels {
namespace {

void gemm_rows_avx2(MatRef a, const float* packed_b, std::size_t K,
                    std::size_t N, float* c, std::size_t row_lo,
                    std::size_t row_hi, bool accumulate) {
  for (std::size_t i = row_lo; i < row_hi; i += kMR) {
    const std::size_t mr = std::min(kMR, row_hi - i);
    for (std::size_t jp = 0; jp < N; jp += kNR) {
      const std::size_t nr = std::min(kNR, N - jp);
      const float* bp = packed_b + jp * K;
      __m256 acc0[kMR], acc1[kMR];
      for (std::size_t r = 0; r < mr; ++r) {
        acc0[r] = _mm256_setzero_ps();
        acc1[r] = _mm256_setzero_ps();
      }
      for (std::size_t kk = 0; kk < K; ++kk) {
        const float* brow = bp + kk * kNR;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        for (std::size_t r = 0; r < mr; ++r) {
          const __m256 av =
              _mm256_set1_ps(a.p[(i + r) * a.rs + kk * a.cs]);
          acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(av, b0));
          acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(av, b1));
        }
      }
      for (std::size_t r = 0; r < mr; ++r) {
        float* crow = c + (i + r) * N + jp;
        if (nr == kNR) {
          if (accumulate) {
            _mm256_storeu_ps(crow,
                             _mm256_add_ps(_mm256_loadu_ps(crow), acc0[r]));
            _mm256_storeu_ps(
                crow + 8, _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc1[r]));
          } else {
            _mm256_storeu_ps(crow, acc0[r]);
            _mm256_storeu_ps(crow + 8, acc1[r]);
          }
        } else {
          alignas(32) float tmp[kNR];
          _mm256_store_ps(tmp, acc0[r]);
          _mm256_store_ps(tmp + 8, acc1[r]);
          if (accumulate) {
            for (std::size_t cc = 0; cc < nr; ++cc) crow[cc] += tmp[cc];
          } else {
            for (std::size_t cc = 0; cc < nr; ++cc) crow[cc] = tmp[cc];
          }
        }
      }
    }
  }
}

void weighted_sum_acc_avx2(const float* w, const float* rows, std::size_t t,
                           std::size_t dk, float* out) {
  // Vectorized across output columns only, accumulator seeded from out:
  // loading the previous run's fp32 partials is a value-preserving
  // round-trip, so the add sequence per element matches one contiguous
  // reduction over the same rows.
  std::size_t c = 0;
  for (; c + 8 <= dk; c += 8) {
    __m256 acc = _mm256_loadu_ps(out + c);
    for (std::size_t j = 0; j < t; ++j)
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(_mm256_set1_ps(w[j]),
                             _mm256_loadu_ps(rows + j * dk + c)));
    _mm256_storeu_ps(out + c, acc);
  }
  for (; c < dk; ++c) {
    float acc = out[c];
    for (std::size_t j = 0; j < t; ++j) acc += w[j] * rows[j * dk + c];
    out[c] = acc;
  }
}

/// Horizontal sum of 8 int32 lanes (integer adds — exact in any order).
std::int32_t hsum_epi32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
  return _mm_cvtsi128_si32(s);
}

void gemm_i8_avx2(const std::int8_t* a, const std::int8_t* bt, std::size_t M,
                  std::size_t N, std::size_t kp, std::int32_t* c) {
  // kp is a multiple of kQuantKAlign (64), so the 32-byte step is exact.
  // Widen i8 -> i16 and use madd_epi16 (i16 x i16 pair-sum into i32):
  // |127*127*2| < 2^15 applies to the i16 *inputs*, and the pair sums live
  // in i32 lanes, so every step is exact — results match the scalar int
  // loop regardless of lane order.
  for (std::size_t i = 0; i < M; ++i) {
    const std::int8_t* arow = a + i * kp;
    for (std::size_t j = 0; j < N; ++j) {
      const std::int8_t* brow = bt + j * kp;
      __m256i acc = _mm256_setzero_si256();
      for (std::size_t k = 0; k < kp; k += 32) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(arow + k));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(brow + k));
        const __m256i a_lo =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
        const __m256i a_hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
        const __m256i b_lo =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
        const __m256i b_hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
      }
      c[i * N + j] = hsum_epi32(acc);
    }
  }
}

}  // namespace

extern const KernelTable kAvx2Table;
const KernelTable kAvx2Table = {
    "avx2",
    gemm_rows_avx2,
    weighted_sum_acc_avx2,
    gemm_i8_avx2,
};

}  // namespace netfm::nn::kernels
