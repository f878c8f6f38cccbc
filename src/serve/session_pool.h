// Pool of per-session KV-cached decoders for the serving layer.
//
// Each live client session owns one core::LmDecoder whose paged KV cache
// draws blocks from ONE pool-wide model::KvBlockPool — resident KV memory
// scales with live decoded tokens, not with sessions x max_seq_len. A
// decoder is *checked out* for the duration of one request and returned
// afterwards; while checked out, the session is busy and a second checkout
// is refused (decoders are not thread-safe, and the scheduler serializes
// per-session work through this). When a new session arrives at capacity,
// the least-recently-used idle session is evicted, its KV blocks are
// returned to the shared pool, and its decoder is reset and handed to the
// newcomer; if every decoder is checked out, the checkout fails with
// kSessionsFull. reclaim_kv() additionally evicts idle LRU sessions purely
// to free blocks — eviction is bitwise-invisible because score/sample
// reset their decoder on entry.
//
// Observability: serve.sessions gauge (live entries), serve.session.evicted
// counter, serve.kv.evicted_blocks counter (blocks freed by eviction).
// Fault point `serve.session.evict` force-evicts an idle session on
// checkout even below capacity — simulated memory pressure for the
// fault-injection suite.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/traffic_lm.h"
#include "serve/protocol.h"

namespace netfm::serve {

class SessionPool {
 public:
  /// `capacity` bounds live sessions. `kv_blocks` sizes the shared KV
  /// block pool: 0 defers to NETFM_KV_BLOCKS, else defaults to capacity x
  /// blocks-per-sequence / 2, floored at one full sequence — LRU block
  /// reclaim covers the rest.
  SessionPool(const core::TrafficLM& lm, std::size_t capacity,
              std::size_t kv_blocks = 0);

  /// RAII checkout: returns the decoder to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          session_(other.session_),
          decoder_(std::move(other.decoder_)) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        give_back();
        pool_ = std::exchange(other.pool_, nullptr);
        session_ = other.session_;
        decoder_ = std::move(other.decoder_);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { give_back(); }

    core::LmDecoder& decoder() noexcept { return *decoder_; }

   private:
    friend class SessionPool;
    Lease(SessionPool* pool, std::uint64_t session,
          std::unique_ptr<core::LmDecoder> decoder) noexcept
        : pool_(pool), session_(session), decoder_(std::move(decoder)) {}
    void give_back() noexcept;

    SessionPool* pool_ = nullptr;
    std::uint64_t session_ = 0;
    std::unique_ptr<core::LmDecoder> decoder_;
  };

  /// Checks the session's decoder out (creating or evicting-and-recycling
  /// as needed). On failure returns nullopt and sets `why` to
  /// kSessionBusy (already checked out) or kSessionsFull (pool exhausted,
  /// nothing idle to evict).
  std::optional<Lease> checkout(std::uint64_t session, RejectReason* why);

  /// Live sessions (idle + checked out).
  std::size_t live() const;

  /// Total evictions since construction.
  std::uint64_t evictions() const noexcept;

  /// The shared KV block pool every session decoder draws from.
  const std::shared_ptr<model::KvBlockPool>& kv_pool() const noexcept {
    return kv_pool_;
  }

  /// KV blocks one max_seq_len sequence needs.
  std::size_t kv_blocks_per_sequence() const noexcept {
    return blocks_per_sequence_;
  }

  /// Evicts idle LRU sessions (dropping their entries and returning their
  /// KV blocks to the shared pool) until at least `want_free` blocks are
  /// free or nothing idle remains. Returns blocks freed. Evicted sessions
  /// re-enter later as new sessions — bitwise-invisible to score/sample,
  /// which reset their decoder on entry.
  std::size_t reclaim_kv(std::size_t want_free);

 private:
  struct Entry {
    std::unique_ptr<core::LmDecoder> decoder;  // null while checked out
    std::uint64_t last_used = 0;
  };

  void give_back(std::uint64_t session,
                 std::unique_ptr<core::LmDecoder> decoder) noexcept;
  /// Evicts the LRU idle entry; returns its decoder (or null if none idle).
  std::unique_ptr<core::LmDecoder> evict_lru_locked();

  const core::TrafficLM* lm_;
  std::size_t capacity_;
  std::shared_ptr<model::KvBlockPool> kv_pool_;
  std::size_t blocks_per_sequence_ = 0;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t clock_ = 0;       // LRU ordering: bumped per checkout
  std::uint64_t evictions_ = 0;
};

}  // namespace netfm::serve
