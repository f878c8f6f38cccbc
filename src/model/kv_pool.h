// Paged attention KV storage: a shared pool of fixed-size token blocks plus
// per-session block tables (vLLM-style). This is the only incremental-decode
// KV store; TransformerEncoder::forward_incremental_batch reads and appends
// through it.
//
// A KvBlockPool owns, per layer, one K and one V buffer laid out as
// [num_blocks][heads][block_tokens][head_dim] — so each (block, head) is a
// contiguous run of `block_tokens` rows, exactly the row-major stride the
// dispatched weighted_sum_acc kernel consumes. Blocks are handed out from a
// mutex-protected free list; a PagedKvCache records which blocks hold its
// tokens, in token order. Many sessions share one pool, so resident KV
// memory scales with *live decoded tokens* instead of with
// sessions x max_seq_len.
//
// Thread safety: try_alloc/free_block synchronize through the pool mutex,
// which is also the handoff edge for block contents — two sessions never
// hold the same block, so concurrent decodes on distinct caches touch
// disjoint rows. Cached rows are projections of the current weights:
// reset() after any weight mutation (training step, checkpoint load) —
// stale rows would silently mix old and new parameters.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/tensor.h"

namespace netfm::model {

/// Thrown when an incremental decode cannot append another token: either
/// the session hit the model's max_seq_len, or (pool_exhausted()) the
/// shared block pool has no free block. Derives std::invalid_argument, so
/// a "cache full" catch of invalid_argument sees both cases; the serving
/// layer maps pool_exhausted() to a typed `context_full` reject.
class ContextFullError : public std::invalid_argument {
 public:
  explicit ContextFullError(const std::string& what, bool pool_exhausted = false)
      : std::invalid_argument(what), pool_exhausted_(pool_exhausted) {}
  bool pool_exhausted() const noexcept { return pool_exhausted_; }

 private:
  bool pool_exhausted_;
};

/// Tokens per KV block in pools built by TransformerEncoder::make_block_pool.
/// Decoded logits are bit-identical at every block size; KvBlockPool itself
/// takes any positive size.
inline constexpr std::size_t kKvBlockTokens = 16;

/// Shared-pool block count override: NETFM_KV_BLOCKS, 0 when unset. Read
/// once. Consumers fall back to their own sizing rule when 0.
std::size_t default_kv_pool_blocks() noexcept;

/// ceil(tokens / block_tokens): blocks needed to hold `tokens` tokens.
constexpr std::size_t kv_blocks_for(std::size_t tokens,
                                    std::size_t block_tokens) noexcept {
  return block_tokens == 0 ? 0 : (tokens + block_tokens - 1) / block_tokens;
}

class KvBlockPool {
 public:
  KvBlockPool(std::size_t layers, std::size_t heads, std::size_t head_dim,
              std::size_t block_tokens, std::size_t num_blocks);
  ~KvBlockPool();
  KvBlockPool(const KvBlockPool&) = delete;
  KvBlockPool& operator=(const KvBlockPool&) = delete;

  /// Pops a free block into *block. False (and *block untouched) when the
  /// pool is exhausted.
  bool try_alloc(std::uint32_t* block);
  /// Returns `block` to the free list.
  void free_block(std::uint32_t block) noexcept;

  std::size_t layers() const noexcept { return layers_; }
  std::size_t heads() const noexcept { return heads_; }
  std::size_t head_dim() const noexcept { return head_dim_; }
  std::size_t block_tokens() const noexcept { return block_tokens_; }
  std::size_t capacity_blocks() const noexcept { return num_blocks_; }
  /// K + V bytes one block reserves across all layers.
  std::size_t bytes_per_block() const noexcept {
    return layers_ * 2 * heads_ * block_tokens_ * head_dim_ * sizeof(float);
  }

  std::size_t blocks_in_use() const noexcept;
  std::size_t free_blocks() const noexcept;
  /// High-water mark of blocks_in_use() over the pool's lifetime.
  std::size_t peak_blocks_in_use() const noexcept;
  std::size_t bytes_in_use() const noexcept {
    return blocks_in_use() * bytes_per_block();
  }

  /// Base of head h's contiguous [block_tokens, head_dim] key run inside
  /// `block` of `layer`. Row `offset` of that run is the (block-local)
  /// token at that offset.
  float* key_head(std::size_t layer, std::uint32_t block,
                  std::size_t head) noexcept {
    return keys_[layer].data() + run_base(block, head);
  }
  float* value_head(std::size_t layer, std::uint32_t block,
                    std::size_t head) noexcept {
    return values_[layer].data() + run_base(block, head);
  }
  const float* key_head(std::size_t layer, std::uint32_t block,
                        std::size_t head) const noexcept {
    return keys_[layer].data() + run_base(block, head);
  }
  const float* value_head(std::size_t layer, std::uint32_t block,
                          std::size_t head) const noexcept {
    return values_[layer].data() + run_base(block, head);
  }

 private:
  std::size_t run_base(std::uint32_t block, std::size_t head) const noexcept {
    return (static_cast<std::size_t>(block) * heads_ + head) * block_tokens_ *
           head_dim_;
  }

  std::size_t layers_, heads_, head_dim_, block_tokens_, num_blocks_;
  std::vector<nn::FloatBuffer> keys_, values_;  // one per layer

  struct State;
  std::unique_ptr<State> state_;  // mutex + free list + in-use/peak counts
};

/// One session's view into a KvBlockPool: a block table in token order.
/// Token t of the sequence lives at offset t % block_tokens of block
/// blocks[t / block_tokens]. Move-only; the destructor returns held blocks
/// to the pool.
struct PagedKvCache {
  std::shared_ptr<KvBlockPool> pool;
  std::vector<std::uint32_t> blocks;  // block table, in token order
  std::size_t capacity = 0;           // max tokens (model max_seq_len)
  std::size_t length = 0;             // tokens cached so far

  PagedKvCache() = default;
  PagedKvCache(std::shared_ptr<KvBlockPool> p, std::size_t cap)
      : pool(std::move(p)), capacity(cap) {}
  PagedKvCache(const PagedKvCache&) = delete;
  PagedKvCache& operator=(const PagedKvCache&) = delete;
  PagedKvCache(PagedKvCache&& other) noexcept { *this = std::move(other); }
  PagedKvCache& operator=(PagedKvCache&& other) noexcept {
    if (this != &other) {
      release();
      pool = std::move(other.pool);
      blocks = std::move(other.blocks);
      capacity = other.capacity;
      length = other.length;
      other.blocks.clear();
      other.length = 0;
    }
    return *this;
  }
  ~PagedKvCache() { release(); }

  /// Forgets all cached tokens but keeps the held blocks — a recycled
  /// session replays into the same blocks with zero allocator traffic.
  void reset() noexcept { length = 0; }

  /// Forgets all cached tokens AND returns held blocks to the pool.
  void release() noexcept {
    if (pool)
      for (const std::uint32_t b : blocks) pool->free_block(b);
    blocks.clear();
    length = 0;
  }

  std::size_t held_blocks() const noexcept { return blocks.size(); }
};

}  // namespace netfm::model
