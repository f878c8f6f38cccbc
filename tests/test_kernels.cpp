// Kernel backend equivalence suite (ctest label `kernels`).
//
// The dispatch contract (nn/kernels/kernels.h) is that every SIMD backend
// is *bitwise* equal to the scalar oracle on the fp32 route — GEMM,
// backward, fused attention, batched and incremental — and that the int8
// quantized inference route is deterministic across backends (exact int32
// accumulation) with logits within a small bound of fp32. Every test here
// compares across all backends available on the running CPU, under both a
// single-thread pool and the default pool; the CI kernels-smoke step
// re-runs the whole binary once per backend via NETFM_KERNELS, and the
// TSan lane runs it alongside concurrency/infer/serve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/threadpool.h"
#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "model/kv_pool.h"
#include "nn/kernels/kernels.h"
#include "nn/optim.h"
#include "nn/quant.h"
#include "nn/serialize.h"
#include "nn/tensor.h"

namespace netfm {
namespace {

using nn::Tensor;
namespace kernels = nn::kernels;
namespace quant = nn::quant;

/// Restores the backend active at construction (usually the dispatched
/// default) so tests can switch freely.
struct BackendGuard {
  kernels::Backend saved = kernels::active();
  ~BackendGuard() { kernels::set_backend(saved); }
};

/// Turns the quantized route on for one test and always off afterwards.
struct QuantGuard {
  explicit QuantGuard(bool on) { quant::set_enabled(on); }
  ~QuantGuard() { quant::set_enabled(false); }
};

/// Runs `body` once on a single-thread pool and once on the default pool.
template <typename Fn>
void with_thread_counts(Fn&& body) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    ThreadPool::reset_global(threads);
    body();
  }
  ThreadPool::reset_global(0);
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got.data()[i], want.data()[i]) << what << " element " << i;
}

model::TransformerConfig tiny_config(std::size_t vocab) {
  auto config = model::TransformerConfig::tiny(vocab);
  config.max_seq_len = 24;
  config.dropout = 0.0f;
  return config;
}

tok::Vocabulary tiny_vocab() {
  tok::Vocabulary v;
  for (const char* t : {"tcp", "udp", "p80", "p443", "p53", "dns_query",
                        "dns_resp", "d_www", "d_video", "fl_S", "fl_SA",
                        "dir_up", "dir_dn", "pkt"})
    v.add(t);
  return v;
}

TEST(KernelDispatch, ScalarAlwaysAvailableAndActiveIsSane) {
  EXPECT_TRUE(kernels::supported(kernels::Backend::kScalar));
  const auto backends = kernels::available();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), kernels::Backend::kScalar);
  // The dispatched default must itself be an available backend.
  bool found = false;
  for (kernels::Backend b : backends)
    if (b == kernels::active()) found = true;
  EXPECT_TRUE(found);
  EXPECT_STREQ(kernels::active_name(),
               kernels::backend_name(kernels::active()));
}

TEST(KernelDispatch, ParseRoundTripsAndRejectsUnknown) {
  for (kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2,
        kernels::Backend::kAvx512, kernels::Backend::kNeon})
    EXPECT_EQ(kernels::parse(kernels::backend_name(b)), b);
  EXPECT_THROW(kernels::parse("sse9"), std::invalid_argument);
  EXPECT_THROW(kernels::parse(""), std::invalid_argument);
}

TEST(KernelDispatch, SetBackendSwitchesAndRejectsUnsupported) {
  BackendGuard guard;
  for (kernels::Backend b : kernels::available()) {
    kernels::set_backend(b);
    EXPECT_EQ(kernels::active(), b);
  }
  for (kernels::Backend b :
       {kernels::Backend::kAvx2, kernels::Backend::kAvx512,
        kernels::Backend::kNeon}) {
    if (!kernels::supported(b)) {
      EXPECT_THROW(kernels::set_backend(b), std::invalid_argument);
    }
  }
}

TEST(KernelGemm, BitwiseAcrossBackendsAndShapes) {
  BackendGuard guard;
  Rng rng(101);
  // Edge-stressing shapes: M not a multiple of the 4-row micro-tile, N not
  // a multiple of the 16-wide panel, tiny K, rectangular everything.
  const std::size_t shapes[][3] = {
      {1, 1, 1},   {3, 5, 7},    {4, 16, 32},  {5, 17, 8},
      {64, 48, 5}, {33, 65, 19}, {16, 100, 64}};
  for (const auto& s : shapes) {
    const Tensor a = Tensor::randn({s[0], s[2]}, rng, 1.0f, false);
    const Tensor b = Tensor::randn({s[2], s[1]}, rng, 1.0f, false);
    kernels::set_backend(kernels::Backend::kScalar);
    const Tensor want = nn::matmul(a, b);
    // The scalar blocked kernel itself must match the naive oracle.
    expect_bitwise_equal(want, nn::matmul_reference(a, b), "scalar-vs-ref");
    for (kernels::Backend backend : kernels::available()) {
      kernels::set_backend(backend);
      with_thread_counts([&] {
        expect_bitwise_equal(nn::matmul(a, b), want,
                             kernels::backend_name(backend));
      });
    }
  }
}

TEST(KernelGemm, TransposedAndBatchedBitwiseAcrossBackends) {
  BackendGuard guard;
  Rng rng(202);
  const Tensor a = Tensor::randn({6, 20, 24}, rng, 1.0f, false);
  const Tensor b = Tensor::randn({6, 24, 20}, rng, 1.0f, false);
  const Tensor w = Tensor::randn({24, 40}, rng, 1.0f, false);
  const Tensor a2 = Tensor::randn({24, 20}, rng, 1.0f, false);
  kernels::set_backend(kernels::Backend::kScalar);
  const Tensor want_bmm = nn::matmul(a, b);
  const Tensor want_shared = nn::matmul(a, w);
  const Tensor want_t = nn::matmul(nn::transpose(a2), w);
  for (kernels::Backend backend : kernels::available()) {
    kernels::set_backend(backend);
    with_thread_counts([&] {
      expect_bitwise_equal(nn::matmul(a, b), want_bmm, "batched");
      expect_bitwise_equal(nn::matmul(a, w), want_shared, "shared-rhs");
      expect_bitwise_equal(nn::matmul(nn::transpose(a2), w), want_t,
                           "transposed");
    });
  }
}

TEST(KernelGemm, BackwardBitwiseAcrossBackends) {
  BackendGuard guard;
  Rng rng(303);
  const auto run = [&]() {
    Rng local(77);
    Tensor a = Tensor::randn({9, 14}, local, 1.0f, true);
    Tensor b = Tensor::randn({14, 21}, local, 1.0f, true);
    Tensor loss = nn::mean(nn::matmul(a, b));
    loss.backward();
    std::vector<float> grads(a.grad().begin(), a.grad().end());
    grads.insert(grads.end(), b.grad().begin(), b.grad().end());
    return grads;
  };
  kernels::set_backend(kernels::Backend::kScalar);
  const std::vector<float> want = run();
  for (kernels::Backend backend : kernels::available()) {
    kernels::set_backend(backend);
    with_thread_counts([&] {
      const std::vector<float> got = run();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i])
            << kernels::backend_name(backend) << " grad " << i;
    });
  }
}

TEST(KernelAttention, EncoderForwardBitwiseAcrossBackends) {
  BackendGuard guard;
  const tok::Vocabulary vocab = tiny_vocab();
  const model::TransformerEncoder encoder(tiny_config(vocab.size()));
  std::vector<core::Encoded> items = {
      core::encode_context({"tcp", "p80", "d_www"}, vocab, 12),
      core::encode_context({"udp", "p53", "dns_query", "dns_resp", "pkt"},
                           vocab, 12)};
  const model::Batch batch = core::make_batch(items);

  kernels::set_backend(kernels::Backend::kScalar);
  const Tensor grad_route = encoder.forward(batch, /*train=*/false);
  for (kernels::Backend backend : kernels::available()) {
    kernels::set_backend(backend);
    with_thread_counts([&] {
      // Grad route (composed attention) and inference route (fused
      // attention kernels) must both match the scalar grad-route oracle.
      expect_bitwise_equal(encoder.forward(batch, false), grad_route,
                           "grad-route");
      nn::InferenceGuard inference;
      expect_bitwise_equal(encoder.forward(batch, false), grad_route,
                           "inference-route");
    });
  }
}

TEST(KernelAttention, IncrementalDecodeBitwiseAcrossBackends) {
  BackendGuard guard;
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = tiny_config(vocab.size());
  core::TrafficLM lm(vocab, config);
  const std::vector<int> ids = {0, 5, 9, 3, 7, 11, 2};

  kernels::set_backend(kernels::Backend::kScalar);
  const std::vector<float> want = lm.next_logits(ids);
  for (kernels::Backend backend : kernels::available()) {
    kernels::set_backend(backend);
    with_thread_counts([&] {
      // Full-forward route and the KV-cached incremental route.
      EXPECT_EQ(lm.next_logits(ids), want);
      core::LmDecoder decoder(lm);
      std::vector<float> logits;
      for (int id : ids) logits = decoder.advance(id);
      EXPECT_EQ(logits, want);
    });
  }
}

TEST(QuantGemm, LogitsWithinBoundOfFp32) {
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = model::TransformerConfig::base(vocab.size());
  config.num_layers = 2;
  config.max_seq_len = 24;
  config.dropout = 0.0f;
  core::TrafficLM lm(vocab, config);
  const std::vector<int> ids = {0, 5, 9, 3, 7, 11, 2, 6};

  const std::vector<float> fp32 = lm.next_logits(ids);
  QuantGuard quant_on(true);
  lm.prequantize();
  const std::vector<float> quantized = lm.next_logits(ids);
  ASSERT_EQ(quantized.size(), fp32.size());
  float max_dev = 0.0f;
  for (std::size_t i = 0; i < fp32.size(); ++i)
    max_dev = std::max(max_dev, std::fabs(quantized[i] - fp32[i]));
  // The documented error budget (DESIGN.md): int8 symmetric quantization
  // of a base-config LM stays within 0.25 absolute on raw logits.
  EXPECT_GT(max_dev, 0.0f);  // the quantized route really ran
  EXPECT_LT(max_dev, 0.25f);
}

TEST(QuantGemm, DeterministicAcrossBackendsAndThreads) {
  BackendGuard guard;
  QuantGuard quant_on(true);
  const tok::Vocabulary vocab = tiny_vocab();
  core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<int> ids = {0, 4, 8, 12, 3, 1};

  kernels::set_backend(kernels::Backend::kScalar);
  const std::vector<float> want = lm.next_logits(ids);
  for (kernels::Backend backend : kernels::available()) {
    kernels::set_backend(backend);
    with_thread_counts([&] {
      // Integer accumulation is exact, so quantized logits are *bitwise*
      // reproducible across backends and pool sizes — not just close.
      EXPECT_EQ(lm.next_logits(ids), want);
    });
  }
}

TEST(QuantGemm, IncrementalDecodeMatchesBatchRoute) {
  QuantGuard quant_on(true);
  const tok::Vocabulary vocab = tiny_vocab();
  core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<int> ids = {0, 7, 2, 9, 5};

  const std::vector<float> batch_route = lm.next_logits(ids);
  core::LmDecoder decoder(lm);
  std::vector<float> incremental;
  for (int id : ids) incremental = decoder.advance(id);
  // Per-row activation quantization keeps the decode row independent of
  // its neighbours, so the quantized KV-cached route stays bit-identical
  // to the quantized batch route.
  EXPECT_EQ(incremental, batch_route);
}

TEST(QuantGemm, TinyKFallsBackVisibly) {
  QuantGuard quant_on(true);
  metrics::set_enabled(true);
  metrics::reset();
  Rng rng(9);
  const Tensor x = Tensor::randn({4, 8}, rng, 1.0f, false);
  const Tensor w = Tensor::randn({8, 12}, rng, 1.0f, false);
  quant::PackedWeights cache;
  nn::InferenceGuard inference;
  // K = 8 < kMinK: the quantized route must decline...
  const Tensor y = quant::linear(x, w.data().data(), 8, 12, 12, 1, cache);
  EXPECT_FALSE(y.defined());
  // ...and say so on the fallback counter.
  std::uint64_t fallbacks = 0;
  for (const auto& [name, value] : metrics::snapshot().counters)
    if (name == "nn.quant.fallback") fallbacks = value;
  EXPECT_EQ(fallbacks, 1u);
  metrics::set_enabled(false);
}

TEST(QuantGemm, FaultPointForcesFallback) {
  QuantGuard quant_on(true);
  Rng rng(10);
  const Tensor x = Tensor::randn({2, 32}, rng, 1.0f, false);
  const Tensor w = Tensor::randn({32, 16}, rng, 1.0f, false);
  quant::PackedWeights cache;
  nn::InferenceGuard inference;
  {
    fault::Scope scope("nn.quant.fallback=1");
    const Tensor y = quant::linear(x, w.data().data(), 32, 16, 16, 1, cache);
    EXPECT_FALSE(y.defined());  // injected: layer refuses to quantize
  }
  const Tensor y = quant::linear(x, w.data().data(), 32, 16, 16, 1, cache);
  EXPECT_TRUE(y.defined());  // scope gone: quantized route works again
}

TEST(QuantGemm, CacheRepacksAfterWeightMutation) {
  QuantGuard quant_on(true);
  Rng rng(11);
  const Tensor x = Tensor::randn({3, 32}, rng, 1.0f, false);
  Tensor w = Tensor::randn({32, 16}, rng, 1.0f, false);
  quant::PackedWeights cache;
  nn::InferenceGuard inference;
  const Tensor before = quant::linear(x, w.data().data(), 32, 16, 16, 1, cache);
  ASSERT_TRUE(before.defined());
  const std::vector<float> before_vals(before.data().begin(),
                                       before.data().end());

  // Mutate the weights the way training does, then bump the epoch (the
  // optimizer does this itself; done by hand here to isolate the cache).
  for (float& v : w.data()) v *= 2.0f;
  quant::bump_weight_epoch();

  const Tensor after = quant::linear(x, w.data().data(), 32, 16, 16, 1, cache);
  ASSERT_TRUE(after.defined());
  quant::PackedWeights fresh;
  const Tensor want = quant::linear(x, w.data().data(), 32, 16, 16, 1, fresh);
  expect_bitwise_equal(after, want, "stale-cache-repack");
  // And the doubled weights really changed the output.
  bool changed = false;
  for (std::size_t i = 0; i < after.size(); ++i)
    if (after.data()[i] != before_vals[i]) changed = true;
  EXPECT_TRUE(changed);
}

TEST(QuantGemm, OptimizerStepAndCheckpointLoadBumpEpoch) {
  Rng rng(12);
  nn::Parameter p{"w", Tensor::randn({8, 8}, rng, 1.0f, true)};
  nn::ParameterList params = {p};
  Tensor loss = nn::mean(nn::matmul(p.tensor, p.tensor));
  loss.backward();  // populate the gradient the optimizer consumes

  const std::uint64_t e0 = quant::weight_epoch();
  nn::Sgd sgd(0.1f);
  sgd.step(params);
  const std::uint64_t e1 = quant::weight_epoch();
  EXPECT_GT(e1, e0);

  const auto blob = nn::save_parameters(params);
  ASSERT_TRUE(nn::load_parameters(blob, params));
  EXPECT_GT(quant::weight_epoch(), e1);
}

TEST(KernelWeightedSum, AccAndPagedBitwiseAcrossBackends) {
  BackendGuard guard;
  Rng rng(211);
  // t spans multiple fixed-size runs with a ragged tail; dk hits both the
  // SIMD-width and the scalar-tail paths.
  const std::size_t t = 37, run_tokens = 16;
  for (const std::size_t dk : {std::size_t{16}, std::size_t{13}}) {
    const Tensor w = Tensor::randn({t}, rng, 1.0f, false);
    const Tensor rows = Tensor::randn({t, dk}, rng, 1.0f, false);
    const float* wp = w.data().data();
    const float* rp = rows.data().data();

    // Scalar contiguous weighted_sum_acc (from zero, and from a bias) is
    // the oracle.
    kernels::set_backend(kernels::Backend::kScalar);
    std::vector<float> want(dk, 0.0f);
    kernels::table().weighted_sum_acc(wp, rp, t, dk, want.data());
    std::vector<float> acc_want(dk, 0.25f);
    kernels::table().weighted_sum_acc(wp, rp, t, dk, acc_want.data());

    // Scatter the rows into separate per-run buffers, paged-pool style.
    const std::size_t n_runs = model::kv_blocks_for(t, run_tokens);
    std::vector<std::vector<float>> run_storage(n_runs);
    std::vector<const float*> runs;
    for (std::size_t r = 0; r < n_runs; ++r) {
      run_storage[r].assign(run_tokens * dk, -7.0f);  // poison past the tail
      const std::size_t lo = r * run_tokens;
      const std::size_t len = std::min(run_tokens, t - lo);
      std::copy_n(rp + lo * dk, len * dk, run_storage[r].data());
      runs.push_back(run_storage[r].data());
    }

    for (kernels::Backend b : kernels::available()) {
      kernels::set_backend(b);
      const kernels::KernelTable& kt = kernels::table();

      std::vector<float> dense(dk, 0.0f);
      kt.weighted_sum_acc(wp, rp, t, dk, dense.data());
      std::vector<float> paged(dk, 99.0f);  // zeroed before the first run
      kernels::paged_weighted_sum(kt, wp, runs.data(), n_runs, run_tokens, t,
                                  dk, paged.data());

      // weighted_sum_acc alone: seed out with a bias, accumulate, compare
      // against the scalar oracle seeded identically.
      std::vector<float> acc(dk, 0.25f);
      kt.weighted_sum_acc(wp, rp, t, dk, acc.data());

      for (std::size_t c = 0; c < dk; ++c) {
        ASSERT_EQ(dense[c], want[c])
            << kernels::backend_name(b) << " dense dk=" << dk << " col " << c;
        ASSERT_EQ(paged[c], want[c])
            << kernels::backend_name(b) << " paged dk=" << dk << " col " << c;
        ASSERT_EQ(acc[c], acc_want[c])
            << kernels::backend_name(b) << " acc dk=" << dk << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace netfm
