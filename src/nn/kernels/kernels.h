// Runtime-dispatched CPU kernel backends for the nn tensor engine.
//
// The packed/register-blocked scalar-fp32 kernels (extracted from
// src/nn/tensor.cpp) are the *reference oracle*: every other backend must
// produce bit-identical fp32 results. That is possible because the blocked
// GEMM reduces K in a fixed serial order per output element, and the SIMD
// backends vectorize only across *independent output columns* (the NR
// dimension) using separate multiply and add instructions — never FMA,
// whose single rounding would diverge from the scalar two-rounding
// sequence. The int8 kernel accumulates in exact int32 arithmetic, so it
// is deterministic across backends by construction.
//
// A backend is selected once, at first use, via cpuid-style runtime
// detection (best available wins: avx512 > avx2 > neon > scalar), with an
// NETFM_KERNELS=scalar|avx2|avx512|neon override for A/B testing and CI
// determinism. An unknown or unsupported override warns on stderr and
// falls back to detection — it never aborts the process. The active
// backend is exported as the `nn.kernel.backend` gauge and stamped into
// every BENCH_*.json emission (see bench/harness).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace netfm::nn::kernels {

/// Strided matrix view: element(r, c) = p[r * rs + c * cs]. Shared by the
/// GEMM plumbing in tensor.cpp and every backend kernel.
struct MatRef {
  const float* p;
  std::size_t rs, cs;
};

inline constexpr std::size_t kMR = 4;   // micro-tile rows (register-blocked)
inline constexpr std::size_t kNR = 16;  // micro-tile cols (one zmm / two ymm)

/// Quantized weight panels are zero-padded to a multiple of this many K
/// entries so the int8 kernels never need a remainder loop.
inline constexpr std::size_t kQuantKAlign = 64;

enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kNeon = 3,
};

/// One backend's kernel set. All fp32 kernels are bit-compatible with the
/// scalar reference (see file comment); gemm_i8 is exact int32.
struct KernelTable {
  const char* name;

  /// Rows [row_lo, row_hi) of C (M x N) = (or +=) op(A) * packed op(B),
  /// where packed_b holds ceil(N/kNR) panels of K x kNR (zero-padded,
  /// panel-major — see pack_b in tensor.cpp). K is reduced serially in
  /// ascending order per output element.
  void (*gemm_rows)(MatRef a, const float* packed_b, std::size_t K,
                    std::size_t N, float* c, std::size_t row_lo,
                    std::size_t row_hi, bool accumulate);

  /// out[c] += sum over j in [0, t) of w[j] * rows[j * dk + c], with j
  /// reduced serially in ascending order per output element (the batched
  /// matmul's K order), seeded from the existing out values. The attention
  /// context accumulation of the incremental-decode path: fp32 stores
  /// between calls round-trip exactly, so chaining it across the
  /// fixed-size runs of a paged KV block table from a zeroed out is
  /// bit-identical to one reduction over the same rows.
  void (*weighted_sum_acc)(const float* w, const float* rows, std::size_t t,
                           std::size_t dk, float* out);

  /// c[i * N + j] = sum over k in [0, kp) of a[i * kp + k] * bt[j * kp + k]
  /// in exact int32 arithmetic. `a` is M x kp row-major int8 (activation
  /// rows), `bt` is N x kp row-major int8 (weight *columns*, pre-packed and
  /// zero-padded); kp must be a multiple of kQuantKAlign.
  void (*gemm_i8)(const std::int8_t* a, const std::int8_t* bt, std::size_t M,
                  std::size_t N, std::size_t kp, std::int32_t* c);
};

/// The active backend's kernels. Selects a backend on first call (cpuid +
/// NETFM_KERNELS override); cheap atomic load afterwards.
const KernelTable& table() noexcept;

/// The active backend id / display name ("scalar", "avx2", ...).
Backend active() noexcept;
const char* active_name() noexcept;

/// Display name of any backend id.
const char* backend_name(Backend b) noexcept;

/// True when this build carries the backend *and* the running CPU supports
/// it. kScalar is always supported.
bool supported(Backend b) noexcept;

/// Every supported backend, scalar first, best last.
std::vector<Backend> available();

/// Switches the active backend. Throws std::invalid_argument when the
/// backend is not supported on this build/CPU. Not thread-safe against
/// in-flight kernels — switch between forwards, not during one.
void set_backend(Backend b);

/// Parses an NETFM_KERNELS-style name. Throws std::invalid_argument on an
/// unknown name.
Backend parse(std::string_view name);

/// Attention context over a paged KV head: out = sum over j in [0, t) of
/// w[j] * row j, where the t attended rows live in n_runs fixed-size
/// contiguous runs (`runs[r]` is run r's first row; every run holds
/// `run_tokens` rows of dk floats except the last, which holds the
/// remainder). out is zeroed, then the runs are reduced in ascending token
/// order through the dispatched weighted_sum_acc, so each element starts
/// from +0.0f and sees the same mul-then-add sequence as the full
/// forward's attention matmul — bit-identical on every backend.
inline void paged_weighted_sum(const KernelTable& kt, const float* w,
                               const float* const* runs, std::size_t n_runs,
                               std::size_t run_tokens, std::size_t t,
                               std::size_t dk, float* out) {
  for (std::size_t c = 0; c < dk; ++c) out[c] = 0.0f;
  for (std::size_t r = 0; r < n_runs; ++r) {
    const std::size_t lo = r * run_tokens;
    const std::size_t len = t - lo < run_tokens ? t - lo : run_tokens;
    kt.weighted_sum_acc(w + lo, runs[r], len, dk, out);
  }
}

}  // namespace netfm::nn::kernels
