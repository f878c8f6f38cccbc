// NEON kernels (aarch64). Same bitwise contract as the x86 backends:
// vectorize only across independent output columns, and use separate
// vmulq_f32 + vaddq_f32 — never vmlaq/vfmaq, whose fused rounding would
// diverge from the scalar oracle. Compiled unconditionally on aarch64
// (NEON is baseline there), excluded from x86 builds by CMake.
#if defined(__aarch64__) || defined(_M_ARM64)

#include <arm_neon.h>

#include "nn/kernels/kernels.h"

namespace netfm::nn::kernels {
namespace {

void gemm_rows_neon(MatRef a, const float* packed_b, std::size_t K,
                    std::size_t N, float* c, std::size_t row_lo,
                    std::size_t row_hi, bool accumulate) {
  for (std::size_t i = row_lo; i < row_hi; i += kMR) {
    const std::size_t mr = std::min(kMR, row_hi - i);
    for (std::size_t jp = 0; jp < N; jp += kNR) {
      const std::size_t nr = std::min(kNR, N - jp);
      const float* bp = packed_b + jp * K;
      float32x4_t acc[kMR][4];
      for (std::size_t r = 0; r < mr; ++r)
        for (std::size_t q = 0; q < 4; ++q) acc[r][q] = vdupq_n_f32(0.0f);
      for (std::size_t kk = 0; kk < K; ++kk) {
        const float* brow = bp + kk * kNR;
        float32x4_t b[4];
        for (std::size_t q = 0; q < 4; ++q) b[q] = vld1q_f32(brow + 4 * q);
        for (std::size_t r = 0; r < mr; ++r) {
          const float32x4_t av =
              vdupq_n_f32(a.p[(i + r) * a.rs + kk * a.cs]);
          for (std::size_t q = 0; q < 4; ++q)
            acc[r][q] = vaddq_f32(acc[r][q], vmulq_f32(av, b[q]));
        }
      }
      for (std::size_t r = 0; r < mr; ++r) {
        float* crow = c + (i + r) * N + jp;
        if (nr == kNR) {
          if (accumulate) {
            for (std::size_t q = 0; q < 4; ++q)
              vst1q_f32(crow + 4 * q,
                        vaddq_f32(vld1q_f32(crow + 4 * q), acc[r][q]));
          } else {
            for (std::size_t q = 0; q < 4; ++q)
              vst1q_f32(crow + 4 * q, acc[r][q]);
          }
        } else {
          alignas(16) float tmp[kNR];
          for (std::size_t q = 0; q < 4; ++q)
            vst1q_f32(tmp + 4 * q, acc[r][q]);
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

void weighted_sum_acc_neon(const float* w, const float* rows, std::size_t t,
                           std::size_t dk, float* out) {
  // Vectorized across output columns only, accumulator seeded from out:
  // loading the previous run's fp32 partials is a value-preserving
  // round-trip, so the add sequence per element matches one contiguous
  // reduction over the same rows.
  std::size_t c = 0;
  for (; c + 4 <= dk; c += 4) {
    float32x4_t acc = vld1q_f32(out + c);
    for (std::size_t j = 0; j < t; ++j)
      acc = vaddq_f32(
          acc, vmulq_f32(vdupq_n_f32(w[j]), vld1q_f32(rows + j * dk + c)));
    vst1q_f32(out + c, acc);
  }
  for (; c < dk; ++c) {
    float acc = out[c];
    for (std::size_t j = 0; j < t; ++j) acc += w[j] * rows[j * dk + c];
    out[c] = acc;
  }
}

void gemm_i8_neon(const std::int8_t* a, const std::int8_t* bt, std::size_t M,
                  std::size_t N, std::size_t kp, std::int32_t* c) {
  // kp is a multiple of kQuantKAlign (64); widen i8 products through i16
  // into i32 lanes — all integer adds, exact in any lane order.
  for (std::size_t i = 0; i < M; ++i) {
    const std::int8_t* arow = a + i * kp;
    for (std::size_t j = 0; j < N; ++j) {
      const std::int8_t* brow = bt + j * kp;
      int32x4_t acc = vdupq_n_s32(0);
      for (std::size_t k = 0; k < kp; k += 16) {
        const int8x16_t va = vld1q_s8(arow + k);
        const int8x16_t vb = vld1q_s8(brow + k);
        const int16x8_t p_lo = vmull_s8(vget_low_s8(va), vget_low_s8(vb));
        const int16x8_t p_hi = vmull_high_s8(va, vb);
        acc = vpadalq_s16(acc, p_lo);
        acc = vpadalq_s16(acc, p_hi);
      }
      c[i * N + j] = vaddvq_s32(acc);
    }
  }
}

}  // namespace

extern const KernelTable kNeonTable;
const KernelTable kNeonTable = {
    "neon",
    gemm_rows_neon,
    weighted_sum_acc_neon,
    gemm_i8_neon,
};

}  // namespace netfm::nn::kernels

#endif  // __aarch64__
