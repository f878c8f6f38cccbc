// TrafficLM — a GPT-style autoregressive model over network tokens.
//
// The paper's §4.2 proposes synthetic trace generators as the way around
// privacy-locked network data, and §3.1 lists "generator" tasks among the
// downstream uses. TrafficLM closes that loop inside this library: train
// it on tokenized flows from a private capture, then sample synthetic
// token sequences that preserve the corpus statistics — usable as a
// shareable pretraining corpus (experiment E12 quantifies how much
// downstream utility such synthetic data retains).
#pragma once

#include <memory>

#include "core/netfm.h"  // TrainLog, data encoding

namespace netfm::core {

struct LmTrainOptions {
  std::size_t steps = 300;
  std::size_t batch_size = 8;
  std::size_t max_seq_len = 48;
  float peak_lr = 1e-3f;
  std::size_t warmup_steps = 20;
  std::uint64_t seed = 77;
  /// Periodic atomic checkpointing + auto-resume, as in PretrainOptions:
  /// batches derive per-step from `seed`, so a resumed run replays the
  /// uninterrupted run's data order.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 25;
};

struct SampleOptions {
  std::size_t max_tokens = 46;   // excludes the [CLS] start token
  double temperature = 1.0;      // <1 sharpens, >1 flattens
  std::size_t top_k = 0;         // 0 = full distribution
};

class LmDecoder;

class TrafficLM {
 public:
  /// Builds an untrained causal LM over the vocabulary.
  TrafficLM(tok::Vocabulary vocab, model::TransformerConfig config);

  const tok::Vocabulary& vocab() const noexcept { return vocab_; }

  /// Next-token training over token-string contexts ([CLS] acts as BOS,
  /// [SEP] as EOS). Returns per-step losses.
  TrainLog train(const std::vector<std::vector<std::string>>& corpus,
                 const LmTrainOptions& options);

  /// Streaming training over a memory-mapped sharded corpus through a
  /// prefetching data::StreamingLoader. Loss trajectory is bitwise equal
  /// to the in-RAM overload on the same corpus contents and options.
  TrainLog train(const data::CorpusReader& corpus,
                 const LmTrainOptions& options);

  /// Average next-token cross-entropy on a corpus (exp() = perplexity).
  double loss(const std::vector<std::vector<std::string>>& corpus,
              std::size_t max_seq_len) const;

  /// Samples one synthetic token sequence (without [CLS]/[SEP] framing).
  std::vector<std::string> sample(const SampleOptions& options,
                                  Rng& rng) const;

  /// Same draw through a caller-owned decoder (reset on entry): a pooled
  /// per-session decoder produces the exact tokens a fresh one would, so
  /// the serving layer can reuse a session's KV blocks across requests.
  /// sample_batch() with one stream.
  std::vector<std::string> sample(const SampleOptions& options, Rng& rng,
                                  LmDecoder& decoder) const;

  /// Samples a whole synthetic corpus.
  std::vector<std::vector<std::string>> sample_corpus(
      std::size_t count, const SampleOptions& options, Rng& rng) const;

  /// Mean next-token negative log-likelihood of one token sequence
  /// (framed [CLS] ... [SEP], truncated to max_seq_len). Runs through the
  /// KV-cached decoder, so a sequence of length T costs O(T^2) total work
  /// instead of the O(T^3) of scoring each prefix from scratch.
  double score(const std::vector<std::string>& tokens) const;

  /// score() through a caller-owned decoder (reset on entry). The cached
  /// logits are bitwise-equal after a reset, so a pooled per-session
  /// decoder returns the exact score a fresh one would. score_batch() with
  /// one sequence.
  double score(const std::vector<std::string>& tokens,
               LmDecoder& decoder) const;

  /// score() for many sequences at once, one decoder per sequence (all on
  /// this model, reset on entry), run as lockstep batched decode steps —
  /// one forward per step across every still-active sequence via
  /// LmDecoder::advance_batch. Element i does not depend on the other
  /// sequences: it is bitwise equal to score(sequences[i]).
  std::vector<double> score_batch(
      std::span<const std::vector<std::string>> sequences,
      std::span<LmDecoder* const> decoders) const;

  /// sample() for many streams at once (options[i]/rngs[i]/decoders[i]
  /// drive stream i; decoders reset on entry), decoded in lockstep batched
  /// steps. Each stream draws from its own Rng, so element i is bitwise
  /// equal to sample(options[i], *rngs[i]). Streams drop out of the batch
  /// as they emit [SEP] or hit their token limit.
  std::vector<std::vector<std::string>> sample_batch(
      std::span<const SampleOptions> options, std::span<Rng* const> rngs,
      std::span<LmDecoder* const> decoders) const;

  /// A shared paged KV block pool for this model: `num_blocks` 0 defers to
  /// NETFM_KV_BLOCKS, else one full sequence. Hand it to the pool-taking
  /// LmDecoder constructor so many sessions share one reservation.
  std::shared_ptr<model::KvBlockPool> make_kv_pool(
      std::size_t num_blocks = 0) const;

  /// KV blocks one max_seq_len sequence needs (sizing unit for pools).
  std::size_t kv_blocks_per_sequence() const noexcept;

  nn::ParameterList parameters() const;

  /// Eagerly packs all int8 weight caches so the first quantized inference
  /// pays no pack cost (no-op when NETFM_QUANT is off).
  void prequantize() const;

  /// Logits for the next token after `ids` (ids start with [CLS]).
  /// Re-runs the full forward every call — the uncached oracle that
  /// LmDecoder's logits equal bitwise. Throws invalid_argument on empty
  /// input.
  std::vector<float> next_logits(std::span<const int> ids) const;

  /// next_logits() for many sequences at once: pads to the longest
  /// sequence, runs one batched no-grad forward, and applies the LM head
  /// only to each sequence's last real position. Element-for-element
  /// bitwise identical to calling next_logits() per sequence — the padded
  /// forward the serving scheduler batches compatible requests into.
  std::vector<std::vector<float>> next_logits_batch(
      std::span<const std::vector<int>> sequences) const;

 private:
  friend class LmDecoder;

  /// Shared step loop behind both train overloads; `fetch(step, indices)`
  /// returns the encoded batch rows in data::batch_indices order.
  TrainLog train_impl(std::size_t corpus_size,
                      const std::function<std::vector<Encoded>(
                          std::size_t, std::span<const std::size_t>)>& fetch,
                      const LmTrainOptions& options);

  tok::Vocabulary vocab_;
  std::unique_ptr<model::TransformerEncoder> encoder_;
  std::unique_ptr<model::MlmHead> head_;  // tied decoder reused as LM head
};

/// Incremental decoder: feeds tokens one at a time through the paged
/// KV-cached route (model::PagedKvCache), so appending a token to a
/// T-token prefix costs O(T) instead of the O(T^2) full re-forward of
/// TrafficLM::next_logits — with bit-identical logits. One decoder per
/// generation stream; reset() (or a fresh decoder) starts a new stream and
/// is also required after any weight mutation. Not thread-safe, but
/// decoders on *distinct* caches may decode concurrently even when they
/// share one block pool.
class LmDecoder {
 public:
  /// Decoder with a private block pool sized for one full sequence, so it
  /// can always reach max_seq_len.
  explicit LmDecoder(const TrafficLM& lm);

  /// Decoder drawing KV blocks from a shared pool (from
  /// TrafficLM::make_kv_pool). advance() throws
  /// model::ContextFullError{pool_exhausted()=true} when the pool runs
  /// dry, leaving the cache untouched so the step can be retried after
  /// release_kv() elsewhere frees blocks.
  LmDecoder(const TrafficLM& lm, std::shared_ptr<model::KvBlockPool> pool);

  /// Feeds `token_id` at position cached_tokens() and returns the logits
  /// for the *next* token: advance_batch() with one decoder. Observes the
  /// `core.decode.crash` fault point; after an injected crash, reset()
  /// restores a clean (cold-cache) state.
  std::vector<float> advance(int token_id);

  /// One lockstep decode step across many decoders (all on one TrafficLM,
  /// all distinct): feeds token_ids[i] to decoders[i] and returns each
  /// next-token logits row. Row i is bitwise equal to next_logits() over
  /// decoder i's prefix, whatever else shares the step — one forward
  /// replaces n serial ones. Observes `core.decode.crash` once per step; on
  /// ContextFullError no decoder has advanced.
  static std::vector<std::vector<float>> advance_batch(
      std::span<LmDecoder* const> decoders, std::span<const int> token_ids);

  /// Forgets the cached prefix; the next advance() starts a new sequence.
  /// Held KV blocks are kept for reuse (release_kv() returns them).
  void reset() noexcept { cache_.reset(); }

  /// reset() plus returning held KV blocks to the pool — what LRU session
  /// eviction calls so idle sessions stop pinning pool memory.
  void release_kv() noexcept { cache_.release(); }

  std::size_t cached_tokens() const noexcept { return cache_.length; }
  std::size_t held_kv_blocks() const noexcept { return cache_.held_blocks(); }

 private:
  const TrafficLM* lm_;
  model::PagedKvCache cache_;
};

}  // namespace netfm::core
