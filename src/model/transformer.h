// BERT-style transformer encoder built on the netfm::nn autograd engine.
//
// Forward is batched: a batch of B sequences of length T flows through the
// network as rank-2 [B*T, D] activations, with attention computed as
// batched rank-3 [B*H, T, *] matmuls (head split/merge via nn::remap).
// Post-LN residual blocks, learned positions, GELU FFN — the original BERT
// recipe, scaled down.
#pragma once

#include <memory>
#include <span>

#include "model/config.h"
#include "model/kv_pool.h"
#include "nn/optim.h"
#include "nn/quant.h"
#include "nn/tensor.h"

namespace netfm::model {

/// A batch of same-length token sequences plus masks.
struct Batch {
  std::size_t batch_size = 0;
  std::size_t seq_len = 0;
  std::vector<int> token_ids;    // B*T, row-major
  std::vector<int> segment_ids;  // B*T; all zero if unused
  std::vector<float> attention_mask;  // B*T; 1 = real token, 0 = padding

  /// Single-sequence convenience (B=1, no padding).
  static Batch single(std::span<const int> ids);
};

/// Per-forward attention geometry shared by every encoder block: the head
/// split/merge index maps and the key-padding/causal score mask are built
/// once per batch in TransformerEncoder::forward instead of once per layer
/// per forward. The maps depend only on (batch, seq, heads), so an encoder
/// reuses them across forwards with the same geometry; the score mask also
/// depends on the batch's attention_mask, so it is rebuilt per forward.
struct AttentionContext {
  std::size_t batch_size = 0, seq_len = 0, heads = 0, head_dim = 0;
  nn::Shape headed;  // [B*H, T, head_dim]
  std::shared_ptr<const std::vector<std::size_t>> split;  // [B*T,D]->headed
  std::shared_ptr<const std::vector<std::size_t>> merge;  // headed->[B*T,D]
  std::shared_ptr<const std::vector<float>> score_mask;   // [B*H, T, T]

  bool same_geometry(const Batch& batch,
                     const TransformerConfig& config) const noexcept;

  /// Builds the context; reuses `previous`'s index maps when the geometry
  /// matches (the common case of fixed-shape training batches).
  static AttentionContext build(const Batch& batch,
                                const TransformerConfig& config,
                                const AttentionContext* previous = nullptr);
};

/// Dense affine layer (weight [in, out], bias [out]).
class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in, std::size_t out, Rng& rng, const std::string& name);

  /// In inference mode with NETFM_QUANT on, routes through the int8
  /// weight-quantized GEMM (falling back to fp32 when the layer cannot
  /// quantize — see nn/quant.h); otherwise the fp32 autograd matmul.
  nn::Tensor forward(const nn::Tensor& x) const;
  void collect(nn::ParameterList& out) const;

  /// Eagerly packs the int8 weight cache (no-op when quant is off).
  void prequantize() const;

 private:
  nn::Parameter weight_, bias_;
  mutable nn::quant::PackedWeights quant_cache_;
};

/// LayerNorm with learned gain/bias.
class LayerNorm {
 public:
  LayerNorm() = default;
  LayerNorm(std::size_t dim, const std::string& name);

  nn::Tensor forward(const nn::Tensor& x) const;
  void collect(nn::ParameterList& out) const;

 private:
  nn::Parameter gain_, bias_;
};

/// One encoder block: self-attention + FFN, each with residual + LayerNorm.
class EncoderBlock {
 public:
  EncoderBlock(const TransformerConfig& config, Rng& rng,
               const std::string& prefix);

  /// x is [B*T, D]; returns same shape. `train` enables dropout. `ctx` is
  /// the batch's attention geometry, built once per forward by the encoder
  /// (AttentionContext::build) and shared across layers.
  nn::Tensor forward(const nn::Tensor& x, const AttentionContext& ctx,
                     bool train, Rng& rng) const;

  /// Batched one-token decode step over B independent sessions: x is
  /// [B, D] (row b is session b's token at position caches[b]->length).
  /// Appends each row's K/V into its session's current KV block and
  /// attends over that session's block table. Row b is bit-identical to
  /// the corresponding row of forward() over session b's prefix (see the
  /// implementation notes). Callers must have reserved each cache's block
  /// for this step already (see
  /// TransformerEncoder::forward_incremental_batch). Does not update
  /// last_attention().
  nn::Tensor forward_incremental_batch(const nn::Tensor& x,
                                       std::span<PagedKvCache* const> caches,
                                       std::size_t layer) const;

  void collect(nn::ParameterList& out) const;

  /// Eagerly packs every projection's int8 weight cache (no-op when quant
  /// is off).
  void prequantize() const;

  /// Attention probabilities from the most recent forward: one tensor of
  /// shape [B*H, T, T]. Kept for interpretability (attention rollout).
  const nn::Tensor& last_attention() const noexcept { return last_attention_; }

 private:
  const TransformerConfig* config_;
  Linear query_, key_, value_, output_;
  Linear ffn_in_, ffn_out_;
  LayerNorm norm_attn_, norm_ffn_;
  mutable nn::Tensor last_attention_;
};

/// The full encoder: embeddings -> N blocks.
class TransformerEncoder {
 public:
  explicit TransformerEncoder(const TransformerConfig& config);

  /// Returns contextual embeddings [B*T, D].
  nn::Tensor forward(const Batch& batch, bool train = false) const;

  /// A shared paged KV block pool sized for this encoder. `num_blocks` 0
  /// means NETFM_KV_BLOCKS when set, else exactly one full sequence
  /// (ceil(max_seq_len / kKvBlockTokens)).
  std::shared_ptr<KvBlockPool> make_block_pool(std::size_t num_blocks = 0) const;

  /// Blocks one max_seq_len sequence needs at kKvBlockTokens per block.
  std::size_t blocks_per_sequence() const noexcept;

  /// An empty paged cache drawing from `pool` (geometry must match this
  /// encoder; any block size).
  PagedKvCache make_paged_cache(std::shared_ptr<KvBlockPool> pool) const;

  /// One lockstep decode step across B sessions: token_ids[b] is fed to
  /// caches[b] at its current length; returns the B contextual embeddings
  /// as [B, D]. Requires a causal config. Row b is bit-identical to the
  /// last row of forward() over session b's prefix, at O(T) cost per step
  /// instead of O(T^2); B = 1 is the serial case. Throws ContextFullError
  /// when a session is at max_seq_len or (pool_exhausted()) the pools
  /// cannot supply this step's blocks — the reservation is all-or-nothing,
  /// so on exhaustion every cache is left unmodified and the step can be
  /// retried after blocks are freed. Typically run under
  /// nn::InferenceGuard; no dropout is applied (equivalent to train=false).
  nn::Tensor forward_incremental_batch(std::span<const int> token_ids,
                                       std::span<PagedKvCache* const> caches) const;

  const TransformerConfig& config() const noexcept { return config_; }
  nn::ParameterList parameters() const;

  /// Eagerly packs all layers' int8 weight caches so the first quantized
  /// inference pays no pack cost (no-op when quant is off).
  void prequantize() const;

  /// Token embedding table [V, D] (tied into the MLM decoder).
  const nn::Tensor& token_embeddings() const noexcept {
    return token_embed_.tensor;
  }

  /// Per-layer attention maps from the last forward ([B*H, T, T] each).
  std::vector<nn::Tensor> last_attentions() const;

 private:
  TransformerConfig config_;
  mutable Rng rng_;  // dropout stream (forward-only state)
  // Attention geometry from the previous forward; its index maps are
  // reused whenever the batch shape is unchanged.
  mutable AttentionContext attn_ctx_;
  nn::Parameter token_embed_, position_embed_, segment_embed_;
  LayerNorm embed_norm_;
  std::vector<std::unique_ptr<EncoderBlock>> blocks_;
};

}  // namespace netfm::model
