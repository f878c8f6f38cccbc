#include "serve/session_pool.h"

#include <stdexcept>

#include "common/fault.h"
#include "common/metrics.h"

namespace netfm::serve {

namespace {

void set_sessions_gauge(std::size_t live) noexcept {
  static const auto g_sessions = metrics::gauge("serve.sessions", "session");
  g_sessions.set(static_cast<double>(live));
}

}  // namespace

SessionPool::SessionPool(const core::TrafficLM& lm, std::size_t capacity,
                         std::size_t kv_blocks)
    : lm_(&lm), capacity_(capacity) {
  if (capacity == 0)
    throw std::invalid_argument("SessionPool: capacity must be positive");
  blocks_per_sequence_ = lm.kv_blocks_per_sequence();
  if (kv_blocks == 0) kv_blocks = model::default_kv_pool_blocks();
  if (kv_blocks == 0)
    // Half of one full sequence per session: most sessions are far from
    // max_seq_len at any instant, and reclaim_kv() evicts idle LRU
    // sessions when the pool runs tight.
    kv_blocks = std::max(blocks_per_sequence_,
                         capacity * blocks_per_sequence_ / 2);
  kv_pool_ = lm.make_kv_pool(kv_blocks);
}

void SessionPool::Lease::give_back() noexcept {
  if (pool_ && decoder_) pool_->give_back(session_, std::move(decoder_));
  pool_ = nullptr;
}

std::optional<SessionPool::Lease> SessionPool::checkout(
    std::uint64_t session, RejectReason* why) {
  static const auto f_evict = fault::point("serve.session.evict");
  static const auto c_evicted = metrics::counter("serve.session.evicted");
  static const auto c_evicted_blocks =
      metrics::counter("serve.kv.evicted_blocks", "block");

  std::lock_guard<std::mutex> lock(mutex_);
  ++clock_;

  if (const auto it = entries_.find(session); it != entries_.end()) {
    if (!it->second.decoder) {
      if (why) *why = RejectReason::kSessionBusy;
      return std::nullopt;
    }
    it->second.last_used = clock_;
    return Lease(this, session, std::move(it->second.decoder));
  }

  // New session. Under injected memory pressure, or at capacity, recycle
  // the LRU idle decoder instead of allocating a fresh one; its KV blocks
  // go back to the shared pool so the newcomer allocates from a clean
  // slate.
  std::unique_ptr<core::LmDecoder> decoder;
  if (entries_.size() >= capacity_ || (f_evict.fire() && !entries_.empty())) {
    decoder = evict_lru_locked();
    if (!decoder && entries_.size() >= capacity_) {
      if (why) *why = RejectReason::kSessionsFull;
      return std::nullopt;
    }
    if (decoder) {
      c_evicted.add();
      c_evicted_blocks.add(decoder->held_kv_blocks());
      decoder->release_kv();
    }
  }
  if (!decoder) decoder = std::make_unique<core::LmDecoder>(*lm_, kv_pool_);

  entries_[session] = Entry{nullptr, clock_};
  set_sessions_gauge(entries_.size());
  return Lease(this, session, std::move(decoder));
}

std::size_t SessionPool::reclaim_kv(std::size_t want_free) {
  static const auto c_evicted = metrics::counter("serve.session.evicted");
  static const auto c_evicted_blocks =
      metrics::counter("serve.kv.evicted_blocks", "block");
  if (!kv_pool_) return 0;
  if (want_free > kv_pool_->capacity_blocks())
    want_free = kv_pool_->capacity_blocks();

  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t freed = 0;
  while (kv_pool_->free_blocks() < want_free) {
    std::unique_ptr<core::LmDecoder> victim = evict_lru_locked();
    if (!victim) break;  // nothing idle left to reclaim
    const std::size_t blocks = victim->held_kv_blocks();
    c_evicted.add();
    c_evicted_blocks.add(blocks);
    victim->release_kv();
    freed += blocks;
  }
  if (freed > 0) set_sessions_gauge(entries_.size());
  return freed;
}

std::unique_ptr<core::LmDecoder> SessionPool::evict_lru_locked() {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (!it->second.decoder) continue;  // checked out: not evictable
    if (victim == entries_.end() ||
        it->second.last_used < victim->second.last_used)
      victim = it;
  }
  if (victim == entries_.end()) return nullptr;
  std::unique_ptr<core::LmDecoder> decoder = std::move(victim->second.decoder);
  entries_.erase(victim);
  ++evictions_;
  return decoder;
}

void SessionPool::give_back(std::uint64_t session,
                            std::unique_ptr<core::LmDecoder> decoder) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(session);
  // The entry survives while its decoder is out (checked-out entries are
  // never evicted), so this lookup only misses if the session was force-
  // dropped — then the decoder just dies here.
  if (it != entries_.end()) it->second.decoder = std::move(decoder);
}

std::size_t SessionPool::live() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t SessionPool::evictions() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

}  // namespace netfm::serve
