// Inference fast path: no-grad execution, the per-thread workspace, the
// fused attention softmax, KV-cached decoding, and batched embedding.
//
// The fast path's contract is *bitwise* equivalence with the recording
// route: every test here compares floats with exact equality, and the
// routes are exercised both single-threaded (NETFM_THREADS=1 equivalent,
// via ThreadPool::reset_global(1)) and on the default pool. Part of the
// `infer` ctest label, which the CI concurrency lane also runs under TSan.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/threadpool.h"
#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "model/kv_pool.h"
#include "nn/kernels/kernels.h"
#include "nn/quant.h"
#include "nn/tensor.h"
#include "nn/workspace.h"

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

tok::Vocabulary tiny_vocab() {
  tok::Vocabulary v;
  for (const char* t : {"tcp", "udp", "p80", "p443", "p53", "dns_query",
                        "dns_resp", "d_www", "d_video", "fl_S", "fl_SA",
                        "dir_up", "dir_dn", "pkt"})
    v.add(t);
  return v;
}

model::TransformerConfig tiny_config(std::size_t vocab) {
  auto config = model::TransformerConfig::tiny(vocab);
  config.max_seq_len = 24;
  config.dropout = 0.0f;
  return config;
}

/// Runs `body` once on a single-thread pool and once on the default pool.
template <typename Fn>
void with_thread_counts(Fn&& body) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    ThreadPool::reset_global(threads);
    body();
  }
  ThreadPool::reset_global(0);
}

TEST(InferenceGuard, NestsAndRestores) {
  EXPECT_FALSE(nn::inference_mode());
  {
    nn::InferenceGuard outer;
    EXPECT_TRUE(nn::inference_mode());
    {
      nn::InferenceGuard inner;
      EXPECT_TRUE(nn::inference_mode());
    }
    EXPECT_TRUE(nn::inference_mode());
  }
  EXPECT_FALSE(nn::inference_mode());
}

TEST(InferenceGuard, OpsBuildNoGraph) {
  Rng rng(11);
  const Tensor w = Tensor::randn({8, 8}, rng, 0.5f, /*requires_grad=*/true);
  const Tensor x = Tensor::randn({4, 8}, rng, 0.5f, /*requires_grad=*/false);
  nn::InferenceGuard guard;
  const Tensor y = nn::gelu(nn::matmul(x, w));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents.empty());
  EXPECT_FALSE(static_cast<bool>(y.node()->backward));
}

TEST(InferenceGuard, ForwardBitwiseEqualsGradRoute) {
  const tok::Vocabulary vocab = tiny_vocab();
  const model::TransformerEncoder encoder(tiny_config(vocab.size()));
  std::vector<core::Encoded> items = {
      core::encode_context({"tcp", "p80", "d_www"}, vocab, 12),
      core::encode_context({"udp", "p53", "dns_query", "dns_resp", "pkt"},
                           vocab, 12)};
  const model::Batch batch = core::make_batch(items);

  const Tensor reference = encoder.forward(batch, /*train=*/false);
  ASSERT_TRUE(reference.requires_grad());  // recording route built a graph

  with_thread_counts([&] {
    nn::InferenceGuard guard;
    const Tensor fast = encoder.forward(batch, /*train=*/false);
    EXPECT_FALSE(fast.requires_grad());
    ASSERT_EQ(fast.size(), reference.size());
    for (std::size_t i = 0; i < fast.size(); ++i)
      ASSERT_EQ(fast.data()[i], reference.data()[i]) << "element " << i;
  });
}

TEST(AttentionSoftmax, BitwiseEqualsComposedOps) {
  Rng rng(23);
  const std::size_t rows = 6, cols = 10;
  const Tensor scores = Tensor::randn({rows, cols}, rng, 2.0f, false);
  auto mask = std::make_shared<std::vector<float>>(rows * cols, 1.0f);
  // Mask a causal-ish ragged tail in each row.
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = cols - 1 - r % 3; c < cols; ++c)
      (*mask)[r * cols + c] = 0.0f;
  const float kScale = 0.3535f;

  const Tensor composed = nn::softmax(
      nn::masked_fill(nn::scale(scores, kScale), mask, -1e9f));
  with_thread_counts([&] {
    const Tensor fused = nn::attention_softmax(scores, mask, kScale, -1e9f);
    for (std::size_t i = 0; i < fused.size(); ++i)
      ASSERT_EQ(fused.data()[i], composed.data()[i]) << "element " << i;
  });
}

TEST(AttentionSoftmax, RejectsGradInput) {
  Rng rng(5);
  const Tensor scores = Tensor::randn({2, 4}, rng, 1.0f, true);
  auto mask = std::make_shared<std::vector<float>>(8, 1.0f);
  EXPECT_THROW(nn::attention_softmax(scores, mask, 1.0f, -1e9f),
               std::invalid_argument);
}

TEST(AttentionScores, BitwiseEqualsComposedOps) {
  Rng rng(31);
  const std::size_t bh = 6, t = 9, dk = 8;
  const Tensor q = Tensor::randn({bh, t, dk}, rng, 1.0f, false);
  const Tensor k = Tensor::randn({bh, t, dk}, rng, 1.0f, false);
  // Ragged key-padding mask plus a causal-style upper triangle.
  auto mask = std::make_shared<std::vector<float>>(bh * t * t, 1.0f);
  for (std::size_t lane = 0; lane < bh; ++lane)
    for (std::size_t i = 0; i < t; ++i)
      for (std::size_t j = 0; j < t; ++j)
        if (j > i || j >= t - lane % 3)
          (*mask)[(lane * t + i) * t + j] = 0.0f;
  const float kScale = 0.3535f;

  const Tensor composed = nn::softmax(nn::masked_fill(
      nn::scale(nn::matmul(q, nn::transpose(k)), kScale), mask, -1e9f));
  with_thread_counts([&] {
    const Tensor fused = nn::attention_scores(q, k, mask, kScale, -1e9f);
    ASSERT_EQ(fused.shape(), composed.shape());
    for (std::size_t i = 0; i < fused.size(); ++i)
      ASSERT_EQ(fused.data()[i], composed.data()[i]) << "element " << i;
  });
}

TEST(AttentionScores, RejectsGradInput) {
  Rng rng(7);
  const Tensor q = Tensor::randn({2, 3, 4}, rng, 1.0f, true);
  const Tensor k = Tensor::randn({2, 3, 4}, rng, 1.0f, false);
  auto mask = std::make_shared<std::vector<float>>(2 * 3 * 3, 1.0f);
  EXPECT_THROW(nn::attention_scores(q, k, mask, 1.0f, -1e9f),
               std::invalid_argument);
}

TEST(AttentionApply, BitwiseEqualsBatchedMatmul) {
  Rng rng(37);
  const std::size_t bh = 5, t = 11, dk = 8;
  const Tensor attn = Tensor::randn({bh, t, t}, rng, 1.0f, false);
  const Tensor v = Tensor::randn({bh, t, dk}, rng, 1.0f, false);

  const Tensor reference = nn::matmul(attn, v);
  with_thread_counts([&] {
    const Tensor fused = nn::attention_apply(attn, v);
    ASSERT_EQ(fused.shape(), reference.shape());
    for (std::size_t i = 0; i < fused.size(); ++i)
      ASSERT_EQ(fused.data()[i], reference.data()[i]) << "element " << i;
  });
}

TEST(AttentionApply, RejectsGradInput) {
  Rng rng(7);
  const Tensor attn = Tensor::randn({2, 3, 3}, rng, 1.0f, true);
  const Tensor v = Tensor::randn({2, 3, 4}, rng, 1.0f, false);
  EXPECT_THROW(nn::attention_apply(attn, v), std::invalid_argument);
}

TEST(KvCache, DecodeBitwiseEqualsFullRecompute) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  std::vector<int> ids = {tok::Vocabulary::kCls};
  for (const char* t : {"tcp", "p80", "fl_S", "dir_up", "pkt", "d_www",
                        "udp", "p53", "dns_query", "dns_resp"})
    ids.push_back(vocab.id(t));

  with_thread_counts([&] {
    core::LmDecoder decoder(lm);
    for (std::size_t t = 0; t < ids.size(); ++t) {
      const std::vector<float> fast = decoder.advance(ids[t]);
      const std::vector<float> reference =
          lm.next_logits(std::span<const int>(ids.data(), t + 1));
      ASSERT_EQ(fast.size(), reference.size());
      for (std::size_t i = 0; i < fast.size(); ++i)
        ASSERT_EQ(fast[i], reference[i]) << "step " << t << " logit " << i;
    }
    EXPECT_EQ(decoder.cached_tokens(), ids.size());
  });
}

TEST(KvCache, ResetReplaysFromColdCache) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<int> ids = {tok::Vocabulary::kCls, vocab.id("tcp"),
                                vocab.id("p443"), vocab.id("fl_SA")};
  core::LmDecoder decoder(lm);
  std::vector<std::vector<float>> first;
  for (int id : ids) first.push_back(decoder.advance(id));
  decoder.reset();
  EXPECT_EQ(decoder.cached_tokens(), 0u);
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const std::vector<float> replay = decoder.advance(ids[t]);
    for (std::size_t i = 0; i < replay.size(); ++i)
      ASSERT_EQ(replay[i], first[t][i]);
  }
}

TEST(KvCache, CacheFullAndGeometryChecks) {
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = tiny_config(vocab.size());
  config.max_seq_len = 4;
  const core::TrafficLM lm(vocab, config);
  core::LmDecoder decoder(lm);
  for (int t = 0; t < 4; ++t) decoder.advance(tok::Vocabulary::kCls);
  EXPECT_THROW(decoder.advance(tok::Vocabulary::kCls), std::invalid_argument);
}

TEST(KvCache, ScoreMatchesUncachedReference) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<std::string> tokens = {"tcp", "p80", "fl_S", "pkt"};
  const double cached = lm.score(tokens);

  // Same framing and the same log-softmax arithmetic over the uncached
  // reference logits; cached logits are bitwise-equal, so the scores are.
  std::vector<int> ids = {tok::Vocabulary::kCls};
  for (const auto& t : tokens) ids.push_back(vocab.id(t));
  ids.push_back(tok::Vocabulary::kSep);
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t t = 0; t + 1 < ids.size(); ++t) {
    const std::vector<float> logits =
        lm.next_logits(std::span<const int>(ids.data(), t + 1));
    float maxv = logits[0];
    for (float v : logits) maxv = std::max(maxv, v);
    double denom = 0.0;
    for (float v : logits) denom += std::exp(static_cast<double>(v - maxv));
    total -= static_cast<double>(
                 logits[static_cast<std::size_t>(ids[t + 1])] - maxv) -
             std::log(denom);
    ++count;
  }
  EXPECT_DOUBLE_EQ(cached, total / static_cast<double>(count));
}

TEST(EmbedFlows, BitwiseEqualsPerFlowLoop) {
  const tok::Vocabulary vocab = tiny_vocab();
  core::NetFM fm(vocab, tiny_config(vocab.size()));
  const std::vector<std::vector<std::string>> flows = {
      {"tcp", "p80", "d_www"},
      {"udp", "p53", "dns_query", "dns_resp"},
      {"tcp", "p443", "fl_S", "fl_SA", "dir_up", "dir_dn"},
  };
  with_thread_counts([&] {
    const auto batched = fm.embed_flows(flows, 16);
    ASSERT_EQ(batched.size(), flows.size());
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const std::vector<float> single = fm.embed(flows[f], 16);
      ASSERT_EQ(batched[f].size(), single.size());
      for (std::size_t d = 0; d < single.size(); ++d)
        ASSERT_EQ(batched[f][d], single[d]) << "flow " << f << " dim " << d;
    }
  });
  EXPECT_TRUE(fm.embed_flows({}, 16).empty());
}

TEST(Workspace, RecyclesBuffersAcrossForwards) {
  const tok::Vocabulary vocab = tiny_vocab();
  const model::TransformerEncoder encoder(tiny_config(vocab.size()));
  const model::Batch batch = model::Batch::single(std::vector<int>{
      tok::Vocabulary::kCls, vocab.id("tcp"), vocab.id("p80"),
      tok::Vocabulary::kSep});

  nn::Workspace::current().clear();
  // Warm-up: the pool sizes itself over the first few passes. bytes_held()
  // counts heap capacity, so it also sees the transient reallocs while
  // request/buffer pairing settles (a big request landing on a smaller
  // recycled block grows it in place); a handful of passes reaches the
  // fixed point.
  std::size_t warm_bytes = 0;
  for (int pass = 0; pass < 8; ++pass) {
    nn::InferenceGuard guard;
    encoder.forward(batch, /*train=*/false);
    const std::size_t held = nn::Workspace::current().bytes_held();
    if (held == warm_bytes) break;
    warm_bytes = held;
  }
  EXPECT_GT(warm_bytes, 0u);
  // Steady state: every further pass draws each buffer from the free list
  // and returns it — zero capacity growth.
  for (int pass = 0; pass < 3; ++pass) {
    nn::InferenceGuard guard;
    encoder.forward(batch, /*train=*/false);
    EXPECT_EQ(nn::Workspace::current().bytes_held(), warm_bytes)
        << "steady-state pass " << pass << " grew the pool";
  }
  nn::Workspace::current().clear();
}

TEST(Workspace, AcquireReusesReleasedCapacity) {
  nn::Workspace& ws = nn::Workspace::current();
  ws.clear();
  nn::FloatBuffer a = ws.acquire(256);
  const float* block = a.data();
  ws.release(std::move(a));
  nn::FloatBuffer b = ws.acquire(256);
  EXPECT_EQ(b.data(), block);  // same heap block came back
  ws.release(std::move(b));
  ws.clear();
}

TEST(Workspace, ScratchInvalidatesOnReset) {
  nn::Workspace& ws = nn::Workspace::current();
  ws.clear();
  std::span<float> a = ws.scratch(64);
  std::span<float> b = ws.scratch(64);
  EXPECT_NE(a.data(), b.data());  // live spans never alias
  ws.reset_scratch();
  std::span<float> c = ws.scratch(64);
  EXPECT_EQ(c.data(), a.data());  // slabs recycle after reset
  ws.clear();
}

TEST(Workspace, PooledTensorMayOutliveGuard) {
  Tensor kept;
  {
    nn::InferenceGuard guard;
    Rng rng(3);
    const Tensor x = Tensor::randn({4, 4}, rng, 1.0f, false);
    kept = nn::gelu(x);
  }
  // Guard is gone; the pooled tensor is still valid and returns its buffer
  // whenever it dies.
  EXPECT_EQ(kept.size(), 16u);
  const float first = kept.data()[0];
  EXPECT_EQ(first, first);  // finite read, no poison
}

// ---- Paged KV & cross-session batched decode ----------------------------
//
// The decode route's contract (DESIGN.md "Paged KV & batched decode") is
// bitwise equivalence with the full forward (TrafficLM::next_logits) at
// every batch size, block size, backend, thread count, and quant setting —
// so all comparisons below are exact. B = 1 is the serial case.

/// Four token streams of `len` tokens each ([CLS], then the stream's words
/// cycled), with distinct content (lockstep batches feed one token per live
/// stream per step).
std::vector<std::vector<int>> batch_token_ids(const tok::Vocabulary& vocab,
                                              std::size_t len) {
  const std::vector<std::vector<const char*>> words = {
      {"tcp", "p80", "fl_S", "dir_up", "pkt", "d_www"},
      {"udp", "p53", "dns_query", "dns_resp", "pkt", "dir_dn"},
      {"tcp", "p443", "fl_SA", "d_video", "dir_dn", "pkt"},
      {"udp", "p80", "pkt", "pkt", "dir_up", "d_www"},
  };
  std::vector<std::vector<int>> ids;
  for (const auto& seq : words) {
    std::vector<int> stream = {tok::Vocabulary::kCls};
    for (std::size_t p = 0; stream.size() < len; ++p)
      stream.push_back(vocab.id(seq[p % seq.size()]));
    ids.push_back(std::move(stream));
  }
  return ids;
}

/// Exact equality of two logits rows, naming the first differing logit.
::testing::AssertionResult same_logits(const std::vector<float>& got,
                                       const std::vector<float>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (std::size_t j = 0; j < got.size(); ++j)
    if (got[j] != want[j])
      return ::testing::AssertionFailure()
             << "logit " << j << ": " << got[j] << " vs " << want[j];
  return ::testing::AssertionSuccess();
}

TEST(PagedKv, AdvanceBatchBitwiseEqualsSerialAcrossBackendsAndQuant) {
  const tok::Vocabulary vocab = tiny_vocab();
  const model::TransformerConfig config = tiny_config(vocab.size());
  const core::TrafficLM lm(vocab, config);
  // Decode all the way to max_seq_len, so every block size below crosses
  // at least one block boundary.
  const std::size_t steps = config.max_seq_len;
  const std::vector<std::vector<int>> ids = batch_token_ids(vocab, steps);
  const std::size_t batch = ids.size();

  for (const bool quant_on : {false, true}) {
    QuantGuard quant_guard(quant_on);
    if (quant_on) lm.prequantize();
    BackendGuard backend_guard;
    for (kernels::Backend b : kernels::available()) {
      kernels::set_backend(b);
      const std::string route =
          std::string(kernels::backend_name(b)) + (quant_on ? "/quant" : "");
      with_thread_counts([&] {
        // Oracles: the full forward over each prefix, and the serial route
        // (one private-pool decoder per stream, B = 1), which must agree.
        std::vector<std::vector<std::vector<float>>> want(batch);
        for (std::size_t i = 0; i < batch; ++i) {
          core::LmDecoder decoder(lm);
          for (std::size_t t = 0; t < steps; ++t) {
            want[i].push_back(
                lm.next_logits(std::span<const int>(ids[i].data(), t + 1)));
            ASSERT_TRUE(same_logits(decoder.advance(ids[i][t]), want[i][t]))
                << route << " serial stream " << i << " step " << t;
          }
        }

        // Batched route: every decoder draws from one shared pool, at
        // block sizes from one token per block up to the default.
        for (const std::size_t block_tokens :
             {std::size_t{1}, std::size_t{3}, model::kKvBlockTokens}) {
          const auto pool = std::make_shared<model::KvBlockPool>(
              config.num_layers, config.num_heads, config.head_dim(),
              block_tokens, batch * model::kv_blocks_for(steps, block_tokens));
          std::vector<std::unique_ptr<core::LmDecoder>> decoders;
          std::vector<core::LmDecoder*> ptrs;
          for (std::size_t i = 0; i < batch; ++i) {
            decoders.push_back(std::make_unique<core::LmDecoder>(lm, pool));
            ptrs.push_back(decoders.back().get());
          }
          for (std::size_t t = 0; t < steps; ++t) {
            std::vector<int> step;
            for (std::size_t i = 0; i < batch; ++i) step.push_back(ids[i][t]);
            const std::vector<std::vector<float>> got =
                core::LmDecoder::advance_batch(ptrs, step);
            ASSERT_EQ(got.size(), batch);
            for (std::size_t i = 0; i < batch; ++i)
              ASSERT_TRUE(same_logits(got[i], want[i][t]))
                  << route << " block_tokens " << block_tokens << " stream "
                  << i << " step " << t;
          }
          EXPECT_EQ(pool->blocks_in_use(), pool->capacity_blocks());
        }
      });
    }
  }
}

TEST(PagedKv, ScoreBatchBitwiseEqualsSerial) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  // Differing lengths: short streams fall out of the lockstep early.
  const std::vector<std::vector<std::string>> sequences = {
      {"tcp", "p80", "fl_S", "pkt"},
      {"udp", "p53", "dns_query", "dns_resp", "pkt", "dir_dn"},
      {"tcp", "p443"},
      {"udp", "p80", "pkt", "d_www", "dir_up"},
  };
  with_thread_counts([&] {
    const auto pool =
        lm.make_kv_pool(sequences.size() * lm.kv_blocks_per_sequence());
    std::vector<std::unique_ptr<core::LmDecoder>> decoders;
    std::vector<core::LmDecoder*> ptrs;
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      decoders.push_back(std::make_unique<core::LmDecoder>(lm, pool));
      ptrs.push_back(decoders.back().get());
    }
    const std::vector<double> batched = lm.score_batch(sequences, ptrs);
    ASSERT_EQ(batched.size(), sequences.size());
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      core::LmDecoder serial(lm);
      ASSERT_EQ(batched[i], lm.score(sequences[i], serial))
          << "sequence " << i;
    }
  });
}

TEST(PagedKv, SampleBatchBitwiseEqualsSerial) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  std::vector<core::SampleOptions> options(3);
  options[0].max_tokens = 8;
  options[1].max_tokens = 12;
  options[1].temperature = 0.7;
  options[1].top_k = 4;
  options[2].max_tokens = 5;
  options[2].temperature = 1.3;

  with_thread_counts([&] {
    // Serial oracle, one fresh RNG per stream.
    std::vector<std::vector<std::string>> want;
    for (std::size_t i = 0; i < options.size(); ++i) {
      Rng rng(100 + i);
      core::LmDecoder decoder(lm);
      want.push_back(lm.sample(options[i], rng, decoder));
    }

    const auto pool =
        lm.make_kv_pool(options.size() * lm.kv_blocks_per_sequence());
    std::vector<Rng> rngs;
    rngs.reserve(options.size());
    std::vector<Rng*> rng_ptrs;
    std::vector<std::unique_ptr<core::LmDecoder>> decoders;
    std::vector<core::LmDecoder*> ptrs;
    for (std::size_t i = 0; i < options.size(); ++i) {
      rngs.emplace_back(100 + i);
      rng_ptrs.push_back(&rngs.back());
      decoders.push_back(std::make_unique<core::LmDecoder>(lm, pool));
      ptrs.push_back(decoders.back().get());
    }
    const std::vector<std::vector<std::string>> got =
        lm.sample_batch(options, rng_ptrs, ptrs);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(got[i], want[i]) << "stream " << i;
  });
}

TEST(PagedKv, PoolExhaustionIsTypedAndRollsBack) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));

  // A one-block pool shared by two decoders: the first advance takes the
  // only block.
  const auto pool = lm.make_kv_pool(1);
  core::LmDecoder first(lm, pool);
  core::LmDecoder second(lm, pool);
  const std::vector<float> cold = first.advance(tok::Vocabulary::kCls);
  EXPECT_EQ(pool->blocks_in_use(), 1u);

  try {
    second.advance(vocab.id("tcp"));
    FAIL() << "expected ContextFullError";
  } catch (const model::ContextFullError& e) {
    EXPECT_TRUE(e.pool_exhausted());
  }
  // The failed advance left no trace: no tokens cached, no blocks held,
  // nothing leaked from the in-flight reservation.
  EXPECT_EQ(second.cached_tokens(), 0u);
  EXPECT_EQ(second.held_kv_blocks(), 0u);
  EXPECT_EQ(pool->blocks_in_use(), 1u);

  // Freeing the first decoder's block unblocks the retry, which produces
  // exactly what the first cold advance did.
  first.release_kv();
  EXPECT_EQ(pool->blocks_in_use(), 0u);
  const std::vector<float> retried = second.advance(tok::Vocabulary::kCls);
  ASSERT_EQ(retried.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i)
    ASSERT_EQ(retried[i], cold[i]) << "logit " << i;
}

TEST(PagedKv, AdvanceBatchRollsBackOnExhaustion) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));

  // Two fresh decoders both need a first block; the pool holds only one.
  const auto pool = lm.make_kv_pool(1);
  core::LmDecoder a(lm, pool);
  core::LmDecoder b(lm, pool);
  core::LmDecoder* ptrs[] = {&a, &b};
  const int step[] = {tok::Vocabulary::kCls, tok::Vocabulary::kCls};
  try {
    core::LmDecoder::advance_batch(ptrs, step);
    FAIL() << "expected ContextFullError";
  } catch (const model::ContextFullError& e) {
    EXPECT_TRUE(e.pool_exhausted());
  }
  // All-or-nothing: neither decoder advanced and the partial reservation
  // was rolled back, so the step is retryable after blocks free up.
  EXPECT_EQ(a.cached_tokens(), 0u);
  EXPECT_EQ(b.cached_tokens(), 0u);
  EXPECT_EQ(a.held_kv_blocks(), 0u);
  EXPECT_EQ(b.held_kv_blocks(), 0u);
  EXPECT_EQ(pool->blocks_in_use(), 0u);
}

TEST(PagedKv, MaxContextIsTypedButNotPoolExhaustion) {
  const tok::Vocabulary vocab = tiny_vocab();
  auto config = tiny_config(vocab.size());
  config.max_seq_len = 4;
  const core::TrafficLM lm(vocab, config);
  core::LmDecoder decoder(lm);
  for (int t = 0; t < 4; ++t) decoder.advance(tok::Vocabulary::kCls);
  try {
    decoder.advance(tok::Vocabulary::kCls);
    FAIL() << "expected ContextFullError";
  } catch (const model::ContextFullError& e) {
    EXPECT_FALSE(e.pool_exhausted());  // at max_seq_len, pool has room
  }
}

TEST(PagedKv, ReleaseAndBlockReuseAreBitwiseInvisible) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<int> ids = {tok::Vocabulary::kCls, vocab.id("tcp"),
                                vocab.id("p443"), vocab.id("fl_SA"),
                                vocab.id("pkt")};

  // A pool holding exactly one sequence, so the second decoder can only
  // run on the first decoder's freed (dirty) blocks.
  const auto pool = lm.make_kv_pool(lm.kv_blocks_per_sequence());
  core::LmDecoder d1(lm, pool);
  std::vector<std::vector<float>> first;
  for (int id : ids) first.push_back(d1.advance(id));
  EXPECT_GT(d1.held_kv_blocks(), 0u);
  d1.release_kv();
  EXPECT_EQ(d1.cached_tokens(), 0u);
  EXPECT_EQ(pool->blocks_in_use(), 0u);

  core::LmDecoder d2(lm, pool);
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const std::vector<float> replay = d2.advance(ids[t]);
    ASSERT_EQ(replay.size(), first[t].size());
    for (std::size_t i = 0; i < replay.size(); ++i)
      ASSERT_EQ(replay[i], first[t][i]) << "step " << t << " logit " << i;
  }
  d2.release_kv();

  // And the releasing decoder itself decodes cleanly again afterwards.
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const std::vector<float> replay = d1.advance(ids[t]);
    for (std::size_t i = 0; i < replay.size(); ++i)
      ASSERT_EQ(replay[i], first[t][i]) << "step " << t << " logit " << i;
  }
}

}  // namespace
}  // namespace netfm
