// Serving layer: wire framing, the per-session decoder pool, the
// continuous-batching scheduler, and the embedded HTTP server.
//
// The serving contract is the library contract: a served `score` or
// `next_logits` reply carries the exact bits the direct TrafficLM call
// returns, so every equivalence test here compares with exact equality.
// Runs in its own binary under the ctest label `serve`; the CI TSan lane
// includes it because the scheduler, session pool, and HTTP handlers are
// all concurrent by construction.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/threadpool.h"
#include "nn/quant.h"
#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/session_pool.h"

namespace netfm {
namespace {

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

/// Deterministic per-session token-id streams (non-special ids).
std::vector<int> session_ids(const tok::Vocabulary& vocab,
                             std::uint64_t session, std::size_t n) {
  Rng rng(0x5e55 + session);
  std::vector<int> ids = {tok::Vocabulary::kCls};
  for (std::size_t i = 0; i + 1 < n; ++i)
    ids.push_back(static_cast<int>(
        tok::Vocabulary::kNumSpecial +
        rng.uniform(vocab.size() - tok::Vocabulary::kNumSpecial)));
  return ids;
}

std::vector<std::string> session_tokens(const tok::Vocabulary& vocab,
                                        std::uint64_t session,
                                        std::size_t n) {
  const std::vector<int> ids = session_ids(vocab, session, n + 1);
  std::vector<std::string> tokens;
  for (std::size_t i = 1; i < ids.size(); ++i)
    tokens.push_back(vocab.token(ids[i]));
  return tokens;
}

// ---------------------------------------------------------------------------
// Wire framing

TEST(Protocol, HttpHeadParsesLengthAndConnection) {
  const auto head = serve::parse_http_head(
      "POST /v1/score HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 42\r\n"
      "Connection: close\r\n");
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->method, "POST");
  EXPECT_EQ(head->target, "/v1/score");
  EXPECT_EQ(head->content_length, 42u);
  EXPECT_FALSE(head->keep_alive);

  const auto keep = serve::parse_http_head("POST /v1/embed HTTP/1.1\r\n");
  ASSERT_TRUE(keep.has_value());
  EXPECT_TRUE(keep->keep_alive);
  const auto old = serve::parse_http_head("GET / HTTP/1.0\r\n");
  ASSERT_TRUE(old.has_value());
  EXPECT_FALSE(old->keep_alive);

  EXPECT_FALSE(serve::parse_http_head("nonsense").has_value());
  EXPECT_FALSE(serve::parse_http_head(
                   "POST /v1/score HTTP/1.1\r\nContent-Length: 1x\r\n")
                   .has_value());
}

TEST(Protocol, RequestJsonRoundTrips) {
  serve::Request request;
  request.op = serve::Op::kNextLogits;
  request.session = 77;
  request.ids = {2, 9, 11, 6};
  std::string error;
  const auto parsed = serve::parse_request(
      "/v1/next_logits", serve::request_to_json(request), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->session, 77u);
  EXPECT_EQ(parsed->ids, request.ids);

  EXPECT_FALSE(serve::parse_request("/v1/nope", "{}", &error).has_value());
  EXPECT_FALSE(
      serve::parse_request("/v1/next_logits", "{\"ids\":[]}", &error)
          .has_value());
  EXPECT_FALSE(
      serve::parse_request("/v1/score", "not json", &error).has_value());
}

TEST(Protocol, ReplyFloatsRoundTripBitwise) {
  serve::Reply reply;
  reply.logits = {1.0f, -2.5f, 3.14159274f, 1e-30f, -1e30f, 0.333333343f};
  const auto parsed = serve::parse_reply(
      serve::reply_to_json(reply, serve::Op::kNextLogits),
      serve::Op::kNextLogits);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->logits.size(), reply.logits.size());
  for (std::size_t i = 0; i < reply.logits.size(); ++i)
    EXPECT_EQ(parsed->logits[i], reply.logits[i]) << "logit " << i;

  const auto rejected = serve::parse_reply(
      serve::reply_to_json(
          serve::Reply::rejected(serve::RejectReason::kQueueFull),
          serve::Op::kScore),
      serve::Op::kScore);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->status, serve::Reply::Status::kRejected);
  EXPECT_EQ(rejected->reject, serve::RejectReason::kQueueFull);
}

TEST(Protocol, HttpHeadParsesDeadlineHeader) {
  const auto head = serve::parse_http_head(
      "POST /v1/score HTTP/1.1\r\n"
      "Content-Length: 7\r\n"
      "X-Netfm-Deadline-Ms: 1500\r\n");
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->deadline_ms, 1500u);

  const auto unset = serve::parse_http_head("POST /v1/score HTTP/1.1\r\n");
  ASSERT_TRUE(unset.has_value());
  EXPECT_EQ(unset->deadline_ms, 0u);

  // Non-decimal, empty, and absurd values are malformed, not clamped.
  EXPECT_FALSE(serve::parse_http_head(
                   "POST / HTTP/1.1\r\nX-Netfm-Deadline-Ms: 12x\r\n")
                   .has_value());
  EXPECT_FALSE(serve::parse_http_head(
                   "POST / HTTP/1.1\r\nX-Netfm-Deadline-Ms: \r\n")
                   .has_value());
  EXPECT_FALSE(serve::parse_http_head("POST / HTTP/1.1\r\n"
                                      "X-Netfm-Deadline-Ms: 99999999999\r\n")
                   .has_value());
}

TEST(Protocol, HttpHeadCapsHeaderCountAndHeadBytes) {
  std::string head = "POST /v1/score HTTP/1.1\r\n";
  for (std::size_t i = 0; i < serve::kMaxHttpHeaders; ++i)
    head += "X-H" + std::to_string(i) + ": v\r\n";
  EXPECT_TRUE(serve::parse_http_head(head).has_value());
  head += "X-One-Too-Many: v\r\n";
  EXPECT_FALSE(serve::parse_http_head(head).has_value());

  const std::string oversized = "POST / HTTP/1.1\r\nX-Pad: " +
                                std::string(serve::kMaxHttpHeadBytes, 'a') +
                                "\r\n";
  EXPECT_FALSE(serve::parse_http_head(oversized).has_value());
}

TEST(Protocol, RejectReasonsAndRetryHintRoundTrip) {
  for (const serve::RejectReason reason : serve::kAllRejectReasons) {
    const auto parsed = serve::parse_reply(
        serve::reply_to_json(serve::Reply::rejected(reason, 42),
                             serve::Op::kScore),
        serve::Op::kScore);
    ASSERT_TRUE(parsed.has_value())
        << serve::reject_reason_name(reason);
    EXPECT_EQ(parsed->status, serve::Reply::Status::kRejected);
    EXPECT_EQ(parsed->reject, reason);
    EXPECT_EQ(parsed->retry_after_ms, 42u);
  }
  // deadline_ms survives the request codec.
  serve::Request request;
  request.op = serve::Op::kScore;
  request.tokens = {"tcp"};
  request.deadline_ms = 250;
  std::string error;
  const auto parsed = serve::parse_request(
      "/v1/score", serve::request_to_json(request), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->deadline_ms, 250u);
}

// ---------------------------------------------------------------------------
// Core fast path under the serving boundary

TEST(NextLogits, RejectsEmptyInput) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  EXPECT_THROW(lm.next_logits({}), std::invalid_argument);
  EXPECT_THROW(lm.next_logits_batch(std::vector<std::vector<int>>{{}}),
               std::invalid_argument);
}

TEST(NextLogits, BatchBitwiseEqualsPerSequence) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  // Ragged lengths force real padding in the batched forward.
  std::vector<std::vector<int>> sequences;
  for (std::uint64_t s = 0; s < 6; ++s)
    sequences.push_back(session_ids(vocab, s, 3 + s * 2));

  with_thread_counts([&] {
    const auto batched = lm.next_logits_batch(sequences);
    ASSERT_EQ(batched.size(), sequences.size());
    for (std::size_t b = 0; b < sequences.size(); ++b) {
      const std::vector<float> single = lm.next_logits(sequences[b]);
      ASSERT_EQ(batched[b].size(), single.size());
      for (std::size_t i = 0; i < single.size(); ++i)
        ASSERT_EQ(batched[b][i], single[i])
            << "sequence " << b << " logit " << i;
    }
  });
  EXPECT_TRUE(lm.next_logits_batch({}).empty());
}

TEST(Decoder, PooledReuseReplaysBitwiseAcrossSessions) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<std::string> a = session_tokens(vocab, 1, 6);
  const std::vector<std::string> b = session_tokens(vocab, 2, 9);

  // One decoder serving interleaved sessions (reset between requests)
  // returns the exact bits fresh decoders would.
  core::LmDecoder pooled(lm);
  const double a_pooled = lm.score(a, pooled);
  const double b_pooled = lm.score(b, pooled);
  const double a_again = lm.score(a, pooled);
  EXPECT_EQ(a_pooled, lm.score(a));
  EXPECT_EQ(b_pooled, lm.score(b));
  EXPECT_EQ(a_again, a_pooled);

  core::SampleOptions sampling;
  sampling.max_tokens = 8;
  Rng fresh_rng(42), pooled_rng(42);
  const auto fresh = lm.sample(sampling, fresh_rng);
  const auto reused = lm.sample(sampling, pooled_rng, pooled);
  EXPECT_EQ(fresh, reused);
}

TEST(Decoder, ConcurrentSessionsOnDistinctCaches) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  constexpr std::size_t kSessions = 8;

  // References computed serially through the uncached route.
  std::vector<std::vector<int>> ids(kSessions);
  std::vector<std::vector<float>> reference(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids[s] = session_ids(vocab, s, 5 + s);
    reference[s] = lm.next_logits(ids[s]);
  }

  // Each thread decodes its own session on its own PagedKvCache while the
  // shared global pool runs the forwards underneath.
  std::vector<std::vector<float>> out(kSessions);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSessions; ++s)
    threads.emplace_back([&, s] {
      core::LmDecoder decoder(lm);
      std::vector<float> logits;
      for (const int id : ids[s]) logits = decoder.advance(id);
      out[s] = std::move(logits);
    });
  for (auto& t : threads) t.join();

  for (std::size_t s = 0; s < kSessions; ++s) {
    ASSERT_EQ(out[s].size(), reference[s].size());
    for (std::size_t i = 0; i < out[s].size(); ++i)
      ASSERT_EQ(out[s][i], reference[s][i]) << "session " << s;
  }
}

// ---------------------------------------------------------------------------
// Session pool

TEST(SessionPool, CheckoutReturnAndBusy) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  serve::SessionPool pool(lm, 4);

  serve::RejectReason why;
  auto lease = pool.checkout(1, &why);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(pool.live(), 1u);

  // Same session while checked out: busy.
  EXPECT_FALSE(pool.checkout(1, &why).has_value());
  EXPECT_EQ(why, serve::RejectReason::kSessionBusy);

  lease.reset();  // give back
  EXPECT_TRUE(pool.checkout(1, &why).has_value());
}

TEST(SessionPool, CacheFullRejectsWhenNothingIdle) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  serve::SessionPool pool(lm, 2);

  serve::RejectReason why;
  auto a = pool.checkout(1, &why);
  auto b = pool.checkout(2, &why);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());

  // Capacity reached and every decoder checked out: typed rejection.
  EXPECT_FALSE(pool.checkout(3, &why).has_value());
  EXPECT_EQ(why, serve::RejectReason::kSessionsFull);

  // Once one is idle, the newcomer evicts it and takes its allocation.
  a.reset();
  EXPECT_TRUE(pool.checkout(3, &why).has_value());
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool.evictions(), 1u);
}

TEST(SessionPool, EvictedSessionDecodesCorrectlyAfterRecycle) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  serve::SessionPool pool(lm, 1);
  const std::vector<std::string> tokens = session_tokens(vocab, 9, 5);
  const double expected = lm.score(tokens);

  serve::RejectReason why;
  {
    auto lease = pool.checkout(1, &why);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lm.score(tokens, lease->decoder()), expected);
  }
  {
    // Session 2 evicts session 1 and inherits its (reset) decoder.
    auto lease = pool.checkout(2, &why);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lm.score(tokens, lease->decoder()), expected);
  }
  EXPECT_EQ(pool.evictions(), 1u);
}

TEST(SessionPool, EvictFaultPointForcesEvictionBelowCapacity) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  serve::SessionPool pool(lm, 8);
  serve::RejectReason why;
  pool.checkout(1, &why).reset();
  {
    fault::Scope scope("serve.session.evict=1");
    pool.checkout(2, &why).reset();  // evicts session 1 despite free space
  }
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.evictions(), 1u);
}

TEST(SessionPool, ReclaimKvEvictsIdleAndReplaysBitwise) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  // Shared pool sized for two full sequences.
  serve::SessionPool pool(lm, 4, 2 * lm.kv_blocks_per_sequence());
  const auto& kv = pool.kv_pool();
  ASSERT_TRUE(kv != nullptr);

  const std::vector<std::string> tokens = session_tokens(vocab, 3, 5);
  const double expected = lm.score(tokens);
  serve::RejectReason why;
  for (std::uint64_t s : {1, 2}) {
    auto lease = pool.checkout(s, &why);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lm.score(tokens, lease->decoder()), expected);
  }
  EXPECT_GT(kv->blocks_in_use(), 0u);

  // Reclaiming the whole pool evicts every idle session and frees all of
  // their blocks.
  const std::size_t freed = pool.reclaim_kv(kv->capacity_blocks());
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(kv->blocks_in_use(), 0u);
  EXPECT_EQ(pool.live(), 0u);

  // An evicted session re-enters as a new one and replays bitwise.
  auto lease = pool.checkout(1, &why);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lm.score(tokens, lease->decoder()), expected);
}

// ---------------------------------------------------------------------------
// Scheduler

TEST(Scheduler, ServedRepliesBitwiseEqualDirectCalls) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  core::NetFM fm(vocab, tiny_config(vocab.size()));

  // References first: batched forwards are confined to the scheduler's
  // worker thread (TransformerEncoder::forward is not reentrant on one
  // instance), so direct calls must not overlap in-flight serving.
  constexpr std::size_t kSessions = 24;
  std::vector<double> expected_scores(kSessions);
  std::vector<std::vector<float>> expected_logits(kSessions);
  std::vector<std::vector<float>> expected_embeddings(kSessions);
  std::vector<std::vector<std::string>> expected_samples(kSessions);
  for (std::uint64_t s = 0; s < kSessions; ++s) {
    expected_scores[s] = lm.score(session_tokens(vocab, s, 4 + s % 5));
    expected_logits[s] = lm.next_logits(session_ids(vocab, s, 3 + s % 7));
    expected_embeddings[s] = fm.embed(session_tokens(vocab, s, 4 + s % 5), 16);
    core::SampleOptions sampling;
    sampling.max_tokens = 6;
    Rng rng(1000 + s);
    expected_samples[s] = lm.sample(sampling, rng);
  }

  serve::Scheduler scheduler(lm, &fm);
  std::vector<std::future<serve::Reply>> score_futures, logits_futures,
      embed_futures, generate_futures;
  for (std::uint64_t s = 0; s < kSessions; ++s) {
    serve::Request score;
    score.op = serve::Op::kScore;
    score.session = s;
    score.tokens = session_tokens(vocab, s, 4 + s % 5);
    score_futures.push_back(scheduler.submit(score));

    serve::Request logits;
    logits.op = serve::Op::kNextLogits;
    logits.session = s;
    logits.ids = session_ids(vocab, s, 3 + s % 7);
    logits_futures.push_back(scheduler.submit(logits));

    serve::Request embed;
    embed.op = serve::Op::kEmbed;
    embed.session = s;
    embed.tokens = session_tokens(vocab, s, 4 + s % 5);
    embed.max_seq_len = 16;
    embed_futures.push_back(scheduler.submit(embed));

    serve::Request generate;
    generate.op = serve::Op::kGenerate;
    generate.session = s;
    generate.sampling.max_tokens = 6;
    generate.seed = 1000 + s;
    generate_futures.push_back(scheduler.submit(generate));
  }

  for (std::uint64_t s = 0; s < kSessions; ++s) {
    const serve::Reply score = score_futures[s].get();
    ASSERT_EQ(score.status, serve::Reply::Status::kOk) << score.error;
    EXPECT_EQ(score.score, expected_scores[s]);

    const serve::Reply logits = logits_futures[s].get();
    ASSERT_EQ(logits.status, serve::Reply::Status::kOk) << logits.error;
    ASSERT_EQ(logits.logits.size(), expected_logits[s].size());
    for (std::size_t i = 0; i < expected_logits[s].size(); ++i)
      ASSERT_EQ(logits.logits[i], expected_logits[s][i]) << "session " << s;

    const serve::Reply embed = embed_futures[s].get();
    ASSERT_EQ(embed.status, serve::Reply::Status::kOk) << embed.error;
    ASSERT_EQ(embed.embedding.size(), expected_embeddings[s].size());
    for (std::size_t i = 0; i < expected_embeddings[s].size(); ++i)
      ASSERT_EQ(embed.embedding[i], expected_embeddings[s][i])
          << "session " << s;

    const serve::Reply generated = generate_futures[s].get();
    ASSERT_EQ(generated.status, serve::Reply::Status::kOk) << generated.error;
    EXPECT_EQ(generated.tokens, expected_samples[s]);
  }
  EXPECT_GT(scheduler.ticks(), 0u);
}

TEST(Scheduler, ShedsWithTypedRejects) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));

  serve::Request request;
  request.op = serve::Op::kNextLogits;
  request.ids = {tok::Vocabulary::kCls};
  {
    serve::SchedulerOptions options;
    options.max_queue = 0;  // admission always sheds
    serve::Scheduler scheduler(lm, nullptr, options);
    const serve::Reply reply = scheduler.submit(request).get();
    ASSERT_EQ(reply.status, serve::Reply::Status::kRejected);
    EXPECT_EQ(reply.reject, serve::RejectReason::kQueueFull);
  }
  {
    serve::SchedulerOptions options;
    options.per_session_pending = 0;  // per-session cap always sheds
    serve::Scheduler scheduler(lm, nullptr, options);
    const serve::Reply reply = scheduler.submit(request).get();
    ASSERT_EQ(reply.status, serve::Reply::Status::kRejected);
    EXPECT_EQ(reply.reject, serve::RejectReason::kSessionBusy);
  }
  {
    serve::Scheduler scheduler(lm, nullptr);
    scheduler.stop();
    const serve::Reply reply = scheduler.submit(request).get();
    ASSERT_EQ(reply.status, serve::Reply::Status::kRejected);
    EXPECT_EQ(reply.reject, serve::RejectReason::kShuttingDown);
  }
}

TEST(Scheduler, KvPoolExhaustionRejectsTypedContextFull) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));

  // One KV block (model::kKvBlockTokens = 16 tokens) for the whole
  // scheduler: a score whose frame exceeds one block exhausts the pool
  // mid-decode and must come back as a typed context_full reject, not an
  // untyped error.
  serve::SchedulerOptions options;
  options.kv_blocks = 1;
  serve::Scheduler scheduler(lm, nullptr, options);

  serve::Request request;
  request.op = serve::Op::kScore;
  request.session = 1;
  request.tokens = session_tokens(vocab, 1, 20);  // frames to 22 tokens
  const serve::Reply reply = scheduler.submit(request).get();
  ASSERT_EQ(reply.status, serve::Reply::Status::kRejected) << reply.error;
  EXPECT_EQ(reply.reject, serve::RejectReason::kContextFull);
  EXPECT_GT(reply.retry_after_ms, 0u);

  // The pool is not poisoned: a request that fits one block still serves,
  // reclaiming the failed session's block on the way in.
  serve::Request small;
  small.op = serve::Op::kScore;
  small.session = 2;
  small.tokens = session_tokens(vocab, 2, 5);
  const serve::Reply ok = scheduler.submit(small).get();
  ASSERT_EQ(ok.status, serve::Reply::Status::kOk) << ok.error;
  EXPECT_EQ(ok.score, lm.score(small.tokens));
}

TEST(Scheduler, BadRequestErrorsDoNotPoisonTickMates) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  serve::Scheduler scheduler(lm, nullptr);

  serve::Request good;
  good.op = serve::Op::kNextLogits;
  good.session = 1;
  good.ids = session_ids(vocab, 1, 5);
  serve::Request bad;
  bad.op = serve::Op::kNextLogits;
  bad.session = 2;
  bad.ids.assign(64, tok::Vocabulary::kCls);  // exceeds max_seq_len

  auto good_future = scheduler.submit(good);
  auto bad_future = scheduler.submit(bad);
  const serve::Reply good_reply = good_future.get();
  const serve::Reply bad_reply = bad_future.get();
  ASSERT_EQ(good_reply.status, serve::Reply::Status::kOk);
  const auto reference = lm.next_logits(good.ids);
  for (std::size_t i = 0; i < reference.size(); ++i)
    ASSERT_EQ(good_reply.logits[i], reference[i]);
  EXPECT_EQ(bad_reply.status, serve::Reply::Status::kError);

  // Embed without a NetFM: typed error, scheduler stays up.
  serve::Request embed;
  embed.op = serve::Op::kEmbed;
  embed.tokens = {"tcp"};
  EXPECT_EQ(scheduler.submit(embed).get().status,
            serve::Reply::Status::kError);
}

TEST(Scheduler, ConcurrentSubmittersDrainClean) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  serve::SchedulerOptions options;
  options.session_capacity = 16;
  serve::Scheduler scheduler(lm, nullptr, options);

  constexpr std::size_t kThreads = 4, kPerThread = 16;
  std::vector<std::thread> submitters;
  std::vector<std::vector<double>> scores(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        serve::Request request;
        request.op = serve::Op::kScore;
        request.session = t;  // per-session cap: retry on busy
        request.tokens = session_tokens(vocab, t, 4);
        for (;;) {
          const serve::Reply reply = scheduler.submit(request).get();
          if (reply.status == serve::Reply::Status::kOk) {
            scores[t].push_back(reply.score);
            break;
          }
          ASSERT_EQ(reply.status, serve::Reply::Status::kRejected);
          std::this_thread::yield();
        }
      }
    });
  for (auto& t : submitters) t.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    const double expected = lm.score(session_tokens(vocab, t, 4));
    ASSERT_EQ(scores[t].size(), kPerThread);
    for (const double s : scores[t]) ASSERT_EQ(s, expected);
  }
}

TEST(Scheduler, DeadlineExpiryShedsTypedAtDequeueAndInBatch) {
  metrics::set_enabled(true);
  metrics::reset();
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  serve::SchedulerOptions options;
  options.degrade = false;
  options.tick_stall_ms = 400;
  fault::Scope stall("serve.tick.stall=1");  // every tick stalls 400ms
  serve::Scheduler scheduler(lm, nullptr, options);

  // In-batch: dequeued fresh (150ms budget), expires during the stall.
  serve::Request fast;
  fast.op = serve::Op::kNextLogits;
  fast.session = 1;
  fast.ids = session_ids(vocab, 1, 4);
  fast.deadline_ms = 150;
  const serve::Reply in_batch = scheduler.submit(fast).get();
  ASSERT_EQ(in_batch.status, serve::Reply::Status::kRejected);
  EXPECT_EQ(in_batch.reject, serve::RejectReason::kDeadlineExceeded);

  // At-dequeue: parked behind a stalled tick, already dead when popped.
  serve::Request slow = fast;
  slow.session = 2;
  slow.deadline_ms = 0;  // no budget: survives the stall
  auto slow_future = scheduler.submit(slow);
  while (scheduler.queued() != 0) std::this_thread::yield();
  serve::Request doomed = fast;
  doomed.session = 3;
  doomed.deadline_ms = 50;  // expires inside slow's 400ms stall
  auto doomed_future = scheduler.submit(doomed);
  EXPECT_EQ(slow_future.get().status, serve::Reply::Status::kOk);
  const serve::Reply at_dequeue = doomed_future.get();
  ASSERT_EQ(at_dequeue.status, serve::Reply::Status::kRejected);
  EXPECT_EQ(at_dequeue.reject, serve::RejectReason::kDeadlineExceeded);

  // Both shed paths are observable separately.
  std::uint64_t n_dequeue = 0, n_batch = 0;
  for (const auto& [name, v] : metrics::snapshot().counters) {
    if (name == "serve.deadline.at_dequeue") n_dequeue = v;
    if (name == "serve.deadline.in_batch") n_batch = v;
  }
  EXPECT_GE(n_dequeue, 1u);
  EXPECT_GE(n_batch, 1u);
  metrics::set_enabled(false);
}

TEST(Scheduler, DegradationLadderWalksUpShedsGenerateAndWalksDown) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const bool quant_configured = nn::quant::enabled();
  serve::SchedulerOptions options;
  options.degrade = true;
  options.max_queue = 256;
  options.max_batch = 4;
  options.degrade_queue_high = 8;
  options.degrade_queue_low = 2;
  options.degrade_hold_ticks = 2;
  serve::Scheduler scheduler(lm, nullptr, options);

  // Burst far past the pressure threshold: depth stays >= 8 for many
  // ticks, so the ladder must climb one level per tick to the top.
  constexpr std::size_t kBurst = 60;
  std::vector<std::future<serve::Reply>> futures;
  for (std::size_t s = 0; s < kBurst; ++s) {
    serve::Request request;
    request.op = serve::Op::kScore;
    request.session = s;
    request.tokens = session_tokens(vocab, s, 4);
    futures.push_back(scheduler.submit(request));
  }

  // At level 3 the expensive op sheds typed while score stays served.
  int max_level = 0;
  bool generate_shed = false;
  while (scheduler.queued() != 0) {
    max_level = std::max(max_level, scheduler.degrade_level());
    if (!generate_shed && scheduler.degrade_level() == 3) {
      serve::Request generate;
      generate.op = serve::Op::kGenerate;
      generate.session = 9999;
      generate.sampling.max_tokens = 4;
      const serve::Reply reply = scheduler.submit(generate).get();
      if (reply.status == serve::Reply::Status::kRejected &&
          reply.reject == serve::RejectReason::kOverloaded) {
        EXPECT_GT(reply.retry_after_ms, 0u);
        generate_shed = true;
      }
    }
    std::this_thread::yield();
  }
  EXPECT_EQ(max_level, 3);
  EXPECT_TRUE(generate_shed);

  // Every burst request still gets served (score survives every level).
  for (auto& f : futures)
    EXPECT_EQ(f.get().status, serve::Reply::Status::kOk);

  // Calm ticks walk the ladder home and restore the quant configuration.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scheduler.degrade_level() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(scheduler.degrade_level(), 0);
  EXPECT_EQ(nn::quant::enabled(), quant_configured);
}

TEST(Scheduler, DrainAnswersInFlightAndShedsNewWork) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  serve::SchedulerOptions options;
  options.degrade = false;
  options.tick_stall_ms = 300;
  fault::Scope stall("serve.tick.stall=1");  // keep work genuinely in flight
  serve::Scheduler scheduler(lm, nullptr, options);

  std::vector<std::future<serve::Reply>> futures;
  for (std::size_t s = 0; s < 6; ++s) {
    serve::Request request;
    request.op = serve::Op::kScore;
    request.session = s;
    request.tokens = session_tokens(vocab, s, 4);
    futures.push_back(scheduler.submit(request));
  }

  scheduler.begin_drain();
  EXPECT_TRUE(scheduler.draining());

  // Admission is closed, typed.
  serve::Request late;
  late.op = serve::Op::kScore;
  late.session = 99;
  late.tokens = session_tokens(vocab, 99, 4);
  const serve::Reply shed = scheduler.submit(late).get();
  ASSERT_EQ(shed.status, serve::Reply::Status::kRejected);
  EXPECT_EQ(shed.reject, serve::RejectReason::kShuttingDown);

  // Everything admitted before the drain is answered, not dropped.
  for (auto& f : futures)
    EXPECT_EQ(f.get().status, serve::Reply::Status::kOk);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!scheduler.drained() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(scheduler.drained());
}

TEST(Scheduler, StopRacingSubmitsNeverHangsClients) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  const std::vector<std::string> tokens = session_tokens(vocab, 1, 4);

  for (int round = 0; round < 10; ++round) {
    auto scheduler =
        std::make_unique<serve::Scheduler>(lm, nullptr);
    std::vector<std::future<serve::Reply>> futures;
    std::mutex futures_mutex;
    std::atomic<bool> go{false};
    std::thread submitter([&] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t i = 0; i < 32; ++i) {
        serve::Request request;
        request.op = serve::Op::kScore;
        request.session = i;  // distinct sessions: no per-session shed
        request.tokens = tokens;
        auto future = scheduler->submit(request);
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(future));
      }
    });
    std::thread stopper1([&] {
      while (!go.load()) std::this_thread::yield();
      scheduler->stop();
    });
    std::thread stopper2([&] {  // concurrent stop(): join must not race
      while (!go.load()) std::this_thread::yield();
      scheduler->stop();
    });
    go.store(true);
    submitter.join();
    stopper1.join();
    stopper2.join();
    // Every future resolves — served or typed shutting_down, never hung.
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
                std::future_status::ready)
          << "round " << round;
      const serve::Reply reply = f.get();
      if (reply.status == serve::Reply::Status::kRejected)
        EXPECT_EQ(reply.reject, serve::RejectReason::kShuttingDown);
      else
        EXPECT_EQ(reply.status, serve::Reply::Status::kOk);
    }
  }
}

TEST(Scheduler, InjectedDecodeCrashYieldsTypedErrorAndWorkerSurvives) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  serve::Scheduler scheduler(lm, nullptr);

  serve::Request request;
  request.op = serve::Op::kScore;
  request.session = 1;
  request.tokens = session_tokens(vocab, 1, 5);
  {
    // CrashInjected is NOT a std::exception — the scheduler must catch it
    // explicitly or the worker thread dies and every future after hangs.
    fault::Scope scope("core.decode.crash=1");
    const serve::Reply reply = scheduler.submit(request).get();
    ASSERT_EQ(reply.status, serve::Reply::Status::kError);
    EXPECT_NE(reply.error.find("core.decode.crash"), std::string::npos);
  }
  // Same session, same decoder: recovery is bitwise-clean.
  const serve::Reply after = scheduler.submit(request).get();
  ASSERT_EQ(after.status, serve::Reply::Status::kOk);
  EXPECT_EQ(after.score, lm.score(request.tokens));
}

// ---------------------------------------------------------------------------
// HTTP server (loopback)

class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const noexcept { return connected_; }

  /// Sends one POST; returns (status, body) or nullopt if the server
  /// closed the connection without a full reply.
  std::optional<std::pair<int, std::string>> post(
      const std::string& target, const std::string& body,
      const std::vector<std::pair<std::string, std::string>>& headers = {}) {
    std::string head = "POST " + target + " HTTP/1.1\r\n" +
                       "Host: localhost\r\n" +
                       "Content-Length: " + std::to_string(body.size()) +
                       "\r\n";
    for (const auto& [name, value] : headers)
      head += name + ": " + value + "\r\n";
    return roundtrip(head + "\r\n" + body);
  }

  /// Sends one GET (the health/drain surface) and reads the reply.
  std::optional<std::pair<int, std::string>> get(const std::string& target) {
    return roundtrip("GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
  }

 private:
  std::optional<std::pair<int, std::string>> roundtrip(
      const std::string& request) {
    if (::send(fd_, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size()))
      return std::nullopt;
    // Read status line + headers.
    while (buffer_.find("\r\n\r\n") == std::string::npos)
      if (!read_more()) return std::nullopt;
    const std::size_t head_end = buffer_.find("\r\n\r\n");
    const std::string head = buffer_.substr(0, head_end);
    buffer_.erase(0, head_end + 4);
    const int status = std::atoi(head.c_str() + head.find(' ') + 1);
    std::size_t length = 0;
    const std::size_t at = head.find("Content-Length: ");
    if (at != std::string::npos)
      length = static_cast<std::size_t>(
          std::atoll(head.c_str() + at + std::strlen("Content-Length: ")));
    while (buffer_.size() < length)
      if (!read_more()) return std::nullopt;
    std::string reply_body = buffer_.substr(0, length);
    buffer_.erase(0, length);
    return std::make_pair(status, std::move(reply_body));
  }

  bool read_more() {
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(got));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

class HttpServerTest : public ::testing::Test {
 protected:
  HttpServerTest()
      : vocab_(tiny_vocab()),
        lm_(vocab_, tiny_config(vocab_.size())),
        scheduler_(lm_, nullptr),
        server_(scheduler_) {
    server_.start();
  }
  ~HttpServerTest() override { server_.stop(); }

  tok::Vocabulary vocab_;
  core::TrafficLM lm_;
  serve::Scheduler scheduler_;
  serve::HttpServer server_;
};

TEST_F(HttpServerTest, ServedLogitsBitwiseEqualDirectOverKeepAlive) {
  HttpClient client(server_.port());
  ASSERT_TRUE(client.connected());

  // Two requests on one keep-alive connection.
  for (const std::uint64_t session : {std::uint64_t{3}, std::uint64_t{5}}) {
    serve::Request request;
    request.op = serve::Op::kNextLogits;
    request.session = session;
    request.ids = session_ids(vocab_, session, 4 + session);
    const auto response = client.post("/v1/next_logits",
                                      serve::request_to_json(request));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->first, 200);
    const auto reply =
        serve::parse_reply(response->second, serve::Op::kNextLogits);
    ASSERT_TRUE(reply.has_value());
    const auto reference = lm_.next_logits(request.ids);
    ASSERT_EQ(reply->logits.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      ASSERT_EQ(reply->logits[i], reference[i]) << "session " << session;
  }
}

TEST_F(HttpServerTest, ServedScoreEqualsDirect) {
  HttpClient client(server_.port());
  ASSERT_TRUE(client.connected());
  serve::Request request;
  request.op = serve::Op::kScore;
  request.session = 11;
  request.tokens = session_tokens(vocab_, 11, 6);
  const auto response =
      client.post("/v1/score", serve::request_to_json(request));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->first, 200);
  const auto reply = serve::parse_reply(response->second, serve::Op::kScore);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->score, lm_.score(request.tokens));
}

TEST_F(HttpServerTest, BadRequestsGetTypedHttpErrors) {
  HttpClient client(server_.port());
  ASSERT_TRUE(client.connected());
  auto bad_json = client.post("/v1/score", "not json at all");
  ASSERT_TRUE(bad_json.has_value());
  EXPECT_EQ(bad_json->first, 400);

  HttpClient client2(server_.port());
  auto bad_target = client2.post("/v1/does_not_exist", "{}");
  ASSERT_TRUE(bad_target.has_value());
  EXPECT_EQ(bad_target->first, 404);
}

TEST_F(HttpServerTest, ConnDropFaultSeversBeforeReply) {
  fault::Scope scope("serve.conn.drop=1");
  HttpClient client(server_.port());
  ASSERT_TRUE(client.connected());
  serve::Request request;
  request.op = serve::Op::kNextLogits;
  request.ids = session_ids(vocab_, 1, 4);
  // The reply is computed, then the connection is dropped: the client
  // sees EOF instead of a response.
  EXPECT_FALSE(client.post("/v1/next_logits",
                           serve::request_to_json(request))
                   .has_value());
}

TEST_F(HttpServerTest, ManyConnectionsConcurrently) {
  constexpr std::size_t kClients = 12;
  // References before any traffic: direct forwards must not overlap the
  // scheduler worker's batched forwards on the shared encoder.
  std::vector<double> expected(kClients);
  for (std::size_t c = 0; c < kClients; ++c)
    expected[c] = lm_.score(session_tokens(vocab_, c, 4));
  std::vector<std::thread> threads;
  // vector<char>, not vector<bool>: bit-packing would make concurrent
  // per-client writes race on the shared word.
  std::vector<char> ok(kClients, 0);
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      HttpClient client(server_.port());
      if (!client.connected()) return;
      serve::Request request;
      request.op = serve::Op::kScore;
      request.session = c;
      request.tokens = session_tokens(vocab_, c, 4);
      const auto response =
          client.post("/v1/score", serve::request_to_json(request));
      if (!response || response->first != 200) return;
      const auto reply =
          serve::parse_reply(response->second, serve::Op::kScore);
      ok[c] = reply.has_value() && reply->score == expected[c];
    });
  for (auto& t : threads) t.join();
  for (std::size_t c = 0; c < kClients; ++c)
    EXPECT_TRUE(ok[c]) << "client " << c;
}

TEST_F(HttpServerTest, HealthzAlwaysUpAndReadyzTracksWorker) {
  HttpClient client(server_.port());
  ASSERT_TRUE(client.connected());
  const auto health = client.get("/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->first, 200);
  const auto ready = client.get("/readyz");
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(ready->first, 200);
  EXPECT_NE(ready->second.find("\"worker_alive\":true"), std::string::npos);
}

TEST_F(HttpServerTest, DeadlineHeaderShedsParkedRequestTyped) {
  // A stalled first tick parks the second request past its header budget.
  fault::Scope scope("serve.tick.stall=@1");
  HttpClient slow(server_.port());
  HttpClient doomed(server_.port());
  ASSERT_TRUE(slow.connected());
  ASSERT_TRUE(doomed.connected());

  serve::Request request;
  request.op = serve::Op::kScore;
  request.session = 1;
  request.tokens = session_tokens(vocab_, 1, 4);
  std::thread slow_thread([&] {
    (void)slow.post("/v1/score", serve::request_to_json(request));
  });
  // Wait until the stalled tick has dequeued it, then submit the doomed
  // request with a 50ms budget: it expires while parked behind the stall.
  while (scheduler_.queued() != 0 || scheduler_.active() == 0)
    std::this_thread::yield();
  serve::Request late = request;
  late.session = 2;
  const auto response = doomed.post(
      "/v1/score", serve::request_to_json(late),
      {{"X-Netfm-Deadline-Ms", "50"}});
  slow_thread.join();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->first, 503);
  const auto reply = serve::parse_reply(response->second, serve::Op::kScore);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, serve::Reply::Status::kRejected);
  EXPECT_EQ(reply->reject, serve::RejectReason::kDeadlineExceeded);
}

TEST_F(HttpServerTest, DrainzStopsAdmissionAndReportsDrained) {
  HttpClient client(server_.port());
  ASSERT_TRUE(client.connected());

  // Repeated polls: 202 while in flight, 200 once fully drained.
  int status = 0;
  std::string body;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto response = client.get("/drainz");
    ASSERT_TRUE(response.has_value());
    status = response->first;
    body = response->second;
    if (status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"drained\":true"), std::string::npos);

  // Draining server: not ready, sheds new work typed, but still live.
  const auto ready = client.get("/readyz");
  ASSERT_TRUE(ready.has_value());
  EXPECT_EQ(ready->first, 503);
  serve::Request request;
  request.op = serve::Op::kScore;
  request.session = 1;
  request.tokens = session_tokens(vocab_, 1, 4);
  const auto shed = client.post("/v1/score", serve::request_to_json(request));
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->first, 503);
  const auto reply = serve::parse_reply(shed->second, serve::Op::kScore);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->reject, serve::RejectReason::kShuttingDown);
  const auto health = client.get("/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->first, 200);
}

TEST(HttpServerWatchdog, ReadyzFlipsWhenWorkerWedgesAndRecovers) {
  const tok::Vocabulary vocab = tiny_vocab();
  const core::TrafficLM lm(vocab, tiny_config(vocab.size()));
  serve::SchedulerOptions options;
  options.degrade = false;
  options.tick_stall_ms = 1200;       // wedge far past the stale window
  options.heartbeat_stale_ms = 250;
  fault::Scope scope("serve.tick.stall=@1");  // exactly one wedged tick
  serve::Scheduler scheduler(lm, nullptr, options);
  serve::HttpServer server(scheduler);
  server.start();

  HttpClient client(server.port());
  ASSERT_TRUE(client.connected());
  const auto before = client.get("/readyz");
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->first, 200);

  serve::Request request;
  request.op = serve::Op::kScore;
  request.session = 1;
  request.tokens = session_tokens(vocab, 1, 4);
  auto future = scheduler.submit(request);

  // Mid-wedge the heartbeat goes stale and readiness flips; liveness holds.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const auto during = client.get("/readyz");
  ASSERT_TRUE(during.has_value());
  EXPECT_EQ(during->first, 503);
  EXPECT_NE(during->second.find("\"worker_alive\":false"),
            std::string::npos);
  const auto health = client.get("/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->first, 200);

  // The wedged tick completes, the request is served, readiness returns.
  EXPECT_EQ(future.get().status, serve::Reply::Status::kOk);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto after = client.get("/readyz");
    ASSERT_TRUE(after.has_value());
    status = after->first;
    if (status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(status, 200);
  server.stop();
}

}  // namespace
}  // namespace netfm
