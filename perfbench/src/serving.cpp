// The two serving workloads.
//
// serve_open drives an in-process serve::Scheduler from one generator
// thread: an open-loop Poisson phase at a fixed rate (latency is timed
// from each request's due time), then a saturating phase that keeps a
// fixed window of requests outstanding (capacity). serve_http drives
// serve::HttpServer over loopback with a few keep-alive connections from
// one thread, closed loop. Both serve a TrafficLM and a NetFM built on one
// vocabulary, and both check every reply against a direct library call.
#include <poll.h>
#include <sys/socket.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/metrics.h"
#include "core/netfm.h"
#include "core/traffic_lm.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {
namespace {

using netfm::Rng;
using netfm::core::LmDecoder;
using netfm::core::NetFM;
using netfm::core::SampleOptions;
using netfm::core::TrafficLM;
using netfm::serve::Op;
using netfm::serve::Reply;
using netfm::serve::Request;
using netfm::serve::Scheduler;

// Session population against the pools: more sessions than the session
// pool holds (so LRU session eviction runs) and far more than the KV block
// pool can back at once (so LRU block reclaim runs). kKvBlocks stays
// above kMaxBatch full sequences, so a tick's decode wave always fits
// after reclaim and no request is refused for want of blocks.
constexpr std::size_t kSessions = 1536;
constexpr std::size_t kSessionCapacity = 1024;
constexpr std::size_t kKvBlocks = 384;
constexpr std::size_t kMaxBatch = 32;
constexpr std::size_t kMaxQueue = 4096;

// The seeded capture the prompts are cut from: one prompt template per
// flow.
constexpr double kCaptureSeconds = 240.0;
constexpr std::size_t kCaptureSessions = 1500;

/// Prompt lengths in tokens (stratified over [min_tokens, max_tokens],
/// capped by the flow), the embed pooling window and the number of
/// generate templates of a workload.
struct PromptShape {
  std::size_t min_tokens, max_tokens, embed_window, generate_templates;
};
constexpr PromptShape kOpenPrompts{4, 46, 48, 1024};
// serve_http keeps prompts short so that model work per request stays
// small next to JSON framing and the server's read/write loop. Its mix
// has no generate.
constexpr PromptShape kHttpPrompts{2, 8, 8, 0};
constexpr std::size_t kScoreReferences = 48;
// Absolute tolerance between a served score and the benchmark's own
// log-softmax NLL: the library subtracts the max logit in float before
// widening, the reference works in double throughout.
constexpr double kScoreTolerance = 1e-5;

// serve_open load shape. The open-loop rate is half the saturating
// capacity the reference host keeps in its slow stretches (about 1400
// req/s, see the README), so the queue stays bounded however slow the
// host runs, while ticks still batch requests behind decode waves.
constexpr double kOpenRate = 700.0;           // req/s, Poisson
constexpr std::size_t kSatWindow = 4 * kMaxBatch;  // outstanding requests
constexpr std::size_t kSatRound = 2048;       // requests per round
constexpr std::size_t kWarmupRequests = 1024;
// Share of --seconds the open-loop phase takes; the saturating phase gets
// the rest. Both are cut into kCycles slices run alternately, so each
// phase's medians sample the whole run rather than one stretch of it: the
// host's speed moves over stretches of 10 to 30 s.
constexpr double kOpenShare = 0.7;
constexpr std::size_t kCycles = 3;
// Latency windows hold ~1000 requests, so each window's p99 has ten
// samples beyond it.
constexpr double kLatencyWindowS = 1000.0 / kOpenRate;
// The generator sleeps until this long before each due time and spins
// the rest: waking a sleeping thread can take milliseconds on a VM, and
// that delay would be timed as serving latency.
constexpr auto kSpinAhead = std::chrono::milliseconds(1);
// A run whose generator lag p99 exceeds this share of the open-loop p99
// latency is flagged on stderr: its latency figures include
// load-generator delay.
constexpr double kMaxLagShare = 0.1;

// serve_http load shape.
constexpr std::size_t kHttpConnections = 3;
constexpr std::size_t kHttpRound = 2048;
constexpr std::size_t kHttpWarmup = 512;

// Op shares. serve_open keeps the fast stateless ops at 65%, so the
// median request is a fast one and the tail is decode-bound.
struct Mix {
  double score, generate, next_logits, embed;
};
constexpr Mix kOpenMix{0.25, 0.10, 0.40, 0.25};
constexpr Mix kHttpMix{0.10, 0.00, 0.60, 0.30};
constexpr std::size_t kMixBlock = 20;

struct Planned {
  Op op = Op::kScore;
  std::uint32_t session = 0;
  std::uint32_t tmpl = 0;  // context template, or generate template
};

/// Everything the serving workloads build before timing.
struct ServeInputs {
  std::unique_ptr<TrafficLM> lm;
  std::unique_ptr<NetFM> fm;
  std::size_t embed_window = 0;
  // Context templates cut from the seeded capture.
  std::vector<std::vector<std::string>> score_tokens;
  std::vector<std::vector<int>> logits_ids;
  std::vector<std::vector<std::string>> embed_tokens;
  // Generate templates.
  std::vector<std::uint64_t> gen_seed;
  std::vector<SampleOptions> gen_options;
  // References: one per template, and a reference NLL for a sample of
  // score templates.
  std::vector<std::vector<float>> ref_logits, ref_embed;
  std::vector<std::vector<std::string>> ref_generate;
  std::unordered_map<std::uint32_t, double> ref_nll;
};

ServeInputs build_inputs(const Args& args, const PromptShape& shape) {
  ServeInputs in;
  in.embed_window = shape.embed_window;
  const netfm::tok::Vocabulary vocab = model_vocabulary();
  const auto config = model_config(vocab.size());
  in.lm = std::make_unique<TrafficLM>(vocab, config);
  in.fm = std::make_unique<NetFM>(vocab, config);

  const auto trace = make_capture(kCaptureSeconds, mix_seed(args.seed, 1),
                                  0.0, kCaptureSessions);
  const auto contexts = capture_contexts(trace);
  Rng rng(mix_seed(args.seed, 2));
  // Prompt lengths are stratified and dealt to the contexts in a seeded
  // order, so the length mix is the same whatever the seed.
  const auto lengths = [&](std::size_t n) {
    std::vector<std::size_t> out(n);
    const std::size_t span = shape.max_tokens - shape.min_tokens + 1;
    for (std::size_t i = 0; i < n; ++i) out[i] = shape.min_tokens + i % span;
    rng.shuffle(out);
    return out;
  };
  const auto score_len = lengths(contexts.size());
  const auto prefix_len = lengths(contexts.size());
  for (std::size_t k = 0; k < contexts.size(); ++k) {
    const auto& context = contexts[k];
    in.score_tokens.emplace_back(
        context.begin(),
        context.begin() + std::min(context.size(), score_len[k]));
    std::vector<int> ids = {netfm::tok::Vocabulary::kCls};
    for (std::size_t t = 0; t < std::min(context.size(), prefix_len[k]); ++t)
      ids.push_back(vocab.id(context[t]));
    in.logits_ids.push_back(std::move(ids));
    in.embed_tokens.emplace_back(
        context.begin(),
        context.begin() + std::min(context.size(), shape.embed_window - 2));
  }
  for (std::size_t g = 0; g < shape.generate_templates; ++g) {
    in.gen_seed.push_back(mix_seed(args.seed, 1000 + g));
    SampleOptions options;
    options.max_tokens = 16 + g % 31;  // 16..46 new tokens
    in.gen_options.push_back(options);
  }
  return in;
}

/// A stream of `count` requests whose ops follow `mix` exactly in every
/// block of kMixBlock requests (shuffled within the block), with sessions
/// and templates drawn uniformly.
std::vector<Planned> plan_stream(std::size_t count, const Mix& mix, Rng& rng,
                                 const ServeInputs& in) {
  std::vector<Op> block;
  for (const auto& [op, share] :
       {std::pair{Op::kScore, mix.score}, {Op::kGenerate, mix.generate},
        {Op::kNextLogits, mix.next_logits}, {Op::kEmbed, mix.embed}})
    block.insert(block.end(),
                 static_cast<std::size_t>(std::lround(share * kMixBlock)), op);
  std::vector<Planned> stream(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % block.size() == 0) rng.shuffle(block);
    Planned& p = stream[i];
    p.op = block[i % block.size()];
    p.session = static_cast<std::uint32_t>(rng.uniform(kSessions));
    p.tmpl = static_cast<std::uint32_t>(
        rng.uniform(p.op == Op::kGenerate ? in.gen_seed.size()
                                          : in.score_tokens.size()));
  }
  return stream;
}

Request make_request(const Planned& p, const ServeInputs& in) {
  Request r;
  r.op = p.op;
  r.session = p.session;
  switch (p.op) {
    case Op::kScore:
      r.tokens = in.score_tokens[p.tmpl];
      break;
    case Op::kNextLogits:
      r.ids = in.logits_ids[p.tmpl];
      break;
    case Op::kEmbed:
      r.tokens = in.embed_tokens[p.tmpl];
      r.max_seq_len = in.embed_window;
      break;
    case Op::kGenerate:
      r.sampling = in.gen_options[p.tmpl];
      r.seed = in.gen_seed[p.tmpl];
      break;
  }
  return r;
}

/// Mean next-token NLL of `tokens`, computed the long way: one uncached
/// TrafficLM::next_logits per prefix and a double-precision log-softmax.
double reference_nll(const TrafficLM& lm,
                     const std::vector<std::string>& tokens,
                     std::size_t max_seq_len) {
  std::vector<int> ids = {netfm::tok::Vocabulary::kCls};
  for (const std::string& t : tokens) ids.push_back(lm.vocab().id(t));
  ids.push_back(netfm::tok::Vocabulary::kSep);
  if (ids.size() > max_seq_len) ids.resize(max_seq_len);
  double total = 0.0;
  for (std::size_t t = 0; t + 1 < ids.size(); ++t) {
    const auto logits =
        lm.next_logits(std::span<const int>(ids.data(), t + 1));
    double maxv = -INFINITY;
    for (const float v : logits) maxv = std::max(maxv, double{v});
    double denom = 0.0;
    for (const float v : logits) denom += std::exp(double{v} - maxv);
    total += maxv + std::log(denom) -
             double{logits[static_cast<std::size_t>(ids[t + 1])]};
  }
  return total / static_cast<double>(ids.size() - 1);
}

/// Direct-call references for every template, so set-up does the same
/// work whatever the seed or the run length, and a mean-NLL reference for
/// the first kScoreReferences score templates the streams use.
void build_references(ServeInputs& in,
                      std::initializer_list<const std::vector<Planned>*> streams) {
  for (const auto& ids : in.logits_ids)
    in.ref_logits.push_back(in.lm->next_logits(ids));
  for (const auto& tokens : in.embed_tokens)
    in.ref_embed.push_back(in.fm->embed(tokens, in.embed_window));
  for (std::size_t g = 0; g < in.gen_seed.size(); ++g) {
    Rng rng(in.gen_seed[g]);
    in.ref_generate.push_back(in.lm->sample(in.gen_options[g], rng));
  }
  const std::size_t max_seq_len = in.fm->config().max_seq_len;
  for (const auto* stream : streams)
    for (const Planned& p : *stream)
      if (p.op == Op::kScore && in.ref_nll.size() < kScoreReferences &&
          !in.ref_nll.contains(p.tmpl))
        in.ref_nll[p.tmpl] =
            reference_nll(*in.lm, in.score_tokens[p.tmpl], max_seq_len);
}

/// Context tokens the requests of `stream` carry to the model: the score
/// prompt, the next_logits prefix after [CLS], the embed context.
double request_tokens(const std::vector<Planned>& stream,
                      const ServeInputs& in) {
  std::size_t tokens = 0;
  for (const Planned& p : stream) {
    if (p.op == Op::kScore) tokens += in.score_tokens[p.tmpl].size();
    if (p.op == Op::kNextLogits) tokens += in.logits_ids[p.tmpl].size() - 1;
    if (p.op == Op::kEmbed) tokens += in.embed_tokens[p.tmpl].size();
  }
  return static_cast<double>(tokens);
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Decoder steps a reply cost: score feeds its framed prompt minus the
/// last token; generate feeds [CLS] plus every emitted token except the
/// one that reached the limit.
std::size_t decode_tokens(const Planned& p, const Reply& reply,
                          const ServeInputs& in, std::size_t max_seq_len) {
  if (p.op == Op::kScore)
    return std::min(in.score_tokens[p.tmpl].size() + 2, max_seq_len) - 1;
  if (p.op == Op::kGenerate) {
    const std::size_t max_tokens = in.gen_options[p.tmpl].max_tokens;
    const std::size_t limit =
        max_tokens >= max_seq_len ? max_seq_len : max_tokens + 1;
    const std::size_t out = reply.tokens.size();
    return out + (out + 1 < limit ? 1 : 0);
  }
  return 0;
}

/// Checks one served reply against the references and returns its
/// decoder-step count. Score replies of one template must also agree
/// bitwise with each other.
class Verifier {
 public:
  explicit Verifier(const ServeInputs& in)
      : in_(in),
        max_seq_len_(in.fm->config().max_seq_len),
        first_score_(in.score_tokens.size(), NAN) {}

  std::size_t operator()(const Planned& p, const Reply& reply,
                         Result& result) {
    ++result.attempted;
    if (reply.status != Reply::Status::kOk) {
      ++result.failed;
      result.check(false, std::string("request not served: ") +
                              (reply.status == Reply::Status::kRejected
                                   ? std::string(reject_reason_name(reply.reject))
                                   : reply.error));
      return 0;
    }
    switch (p.op) {
      case Op::kNextLogits:
        result.check(same_bits(reply.logits, in_.ref_logits[p.tmpl]),
                     "next_logits reply differs from next_logits()");
        break;
      case Op::kEmbed:
        result.check(same_bits(reply.embedding, in_.ref_embed[p.tmpl]),
                     "embed reply differs from embed()");
        break;
      case Op::kGenerate:
        result.check(reply.tokens == in_.ref_generate[p.tmpl],
                     "generate reply differs from sample() on its seed");
        break;
      case Op::kScore: {
        double& first = first_score_[p.tmpl];
        if (std::isnan(first)) first = reply.score;
        result.check(std::memcmp(&first, &reply.score, sizeof first) == 0,
                     "score replies of one prompt differ");
        const auto ref = in_.ref_nll.find(p.tmpl);
        if (ref != in_.ref_nll.end())
          result.check(std::fabs(reply.score - ref->second) <= kScoreTolerance,
                       "score reply differs from the reference NLL");
        break;
      }
    }
    return decode_tokens(p, reply, in_, max_seq_len_);
  }

 private:
  const ServeInputs& in_;
  std::size_t max_seq_len_;
  std::vector<double> first_score_;
};

netfm::serve::SchedulerOptions scheduler_options() {
  netfm::serve::SchedulerOptions options;
  options.max_queue = kMaxQueue;
  options.max_batch = kMaxBatch;
  // No session ever has this many requests queued, so per-session
  // shedding never fires and every request is admitted.
  options.per_session_pending = 64;
  options.session_capacity = kSessionCapacity;
  options.kv_blocks = kKvBlocks;
  options.default_deadline_ms = 0;
  options.degrade = true;
  return options;
}

/// The share of each prompt that an earlier prompt in the stream already
/// shares as a prefix (longest common token prefix / prompt length),
/// averaged over prompts — what a prefix cache could at best reuse.
double shared_prefix_share(const std::vector<Planned>& stream,
                           const ServeInputs& in) {
  struct Node {
    std::unordered_map<std::string, std::unique_ptr<Node>> next;
  };
  Node root;
  double sum = 0.0;
  std::size_t prompts = 0;
  for (const Planned& p : stream) {
    std::vector<std::string> prompt;
    if (p.op == Op::kScore) prompt = in.score_tokens[p.tmpl];
    else if (p.op == Op::kEmbed) prompt = in.embed_tokens[p.tmpl];
    else if (p.op == Op::kNextLogits)
      for (const int id : in.logits_ids[p.tmpl])
        prompt.push_back(std::to_string(id));
    else continue;
    if (prompt.empty()) continue;
    Node* node = &root;
    std::size_t shared = 0;
    bool matching = true;
    for (const std::string& t : prompt) {
      auto& child = node->next[t];
      if (!child) {
        child = std::make_unique<Node>();
        matching = false;
      } else if (matching) {
        ++shared;
      }
      node = child.get();
    }
    sum += static_cast<double>(shared) / static_cast<double>(prompt.size());
    ++prompts;
  }
  return prompts == 0 ? 0.0 : sum / static_cast<double>(prompts);
}

// ---- Per-layer replays (traced runs) --------------------------------------

/// Requests of one op from `stream`, in order, at most `limit`.
std::vector<const Planned*> of_op(const std::vector<Planned>& stream, Op op,
                                  std::size_t limit) {
  std::vector<const Planned*> out;
  for (const Planned& p : stream)
    if (p.op == op && out.size() < limit) out.push_back(&p);
  return out;
}

double op_share(const std::vector<Planned>& stream, Op op) {
  std::size_t n = 0;
  for (const Planned& p : stream) n += p.op == op;
  return stream.empty() ? 0.0 : static_cast<double>(n) / stream.size();
}

/// Group size the scheduler formed for `op`: requests per tick times the
/// op's share of the stream.
std::size_t group_size(double requests_per_tick,
                       const std::vector<Planned>& stream, Op op) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(requests_per_tick * op_share(stream, op))));
}

/// Replays `stream`'s stateless ops through the batched core calls at the
/// group sizes the scheduler formed, one span per call.
void replay_stateless(const ServeInputs& in, const std::vector<Planned>& stream,
                      double requests_per_tick, Tracer& tracer,
                      Result& result) {
  {
    const auto reqs = of_op(stream, Op::kNextLogits, 2048);
    const std::size_t g = group_size(requests_per_tick, stream, Op::kNextLogits);
    for (std::size_t at = 0; at < reqs.size(); at += g) {
      std::vector<std::vector<int>> ids;
      for (std::size_t i = at; i < std::min(at + g, reqs.size()); ++i)
        ids.push_back(in.logits_ids[reqs[i]->tmpl]);
      Tracer::Scope span(tracer, "core.next_logits_batch", ids.size());
      (void)in.lm->next_logits_batch(ids);
    }
    result.layer("core.next_logits_batch_us_per_req",
                 tracer.total_us("core.next_logits_batch") /
                     tracer.total_items("core.next_logits_batch"),
                 "us");
  }
  {
    const auto reqs = of_op(stream, Op::kEmbed, 2048);
    const std::size_t g = group_size(requests_per_tick, stream, Op::kEmbed);
    for (std::size_t at = 0; at < reqs.size(); at += g) {
      std::vector<std::vector<std::string>> contexts;
      for (std::size_t i = at; i < std::min(at + g, reqs.size()); ++i)
        contexts.push_back(in.embed_tokens[reqs[i]->tmpl]);
      Tracer::Scope span(tracer, "core.embed_flows", contexts.size());
      (void)in.fm->embed_flows(contexts, in.embed_window);
    }
    result.layer("core.embed_flows_us_per_req",
                 tracer.total_us("core.embed_flows") /
                     tracer.total_items("core.embed_flows"),
                 "us");
  }
}

/// Replays the decoder-backed ops (score_batch, sample_batch and raw
/// advance_batch steps) at the group sizes the scheduler formed.
void replay_decode(const ServeInputs& in, const std::vector<Planned>& stream,
                   double requests_per_tick, Tracer& tracer, Result& result) {
  const std::size_t max_seq_len = in.fm->config().max_seq_len;
  const std::size_t g_score = group_size(requests_per_tick, stream, Op::kScore);
  const std::size_t g_gen = group_size(requests_per_tick, stream, Op::kGenerate);
  const std::size_t b_max = std::max(g_score, g_gen);
  auto pool = in.lm->make_kv_pool(b_max * in.lm->kv_blocks_per_sequence());
  std::vector<std::unique_ptr<LmDecoder>> owned;
  std::vector<LmDecoder*> decoders;
  for (std::size_t i = 0; i < b_max; ++i) {
    owned.push_back(std::make_unique<LmDecoder>(*in.lm, pool));
    decoders.push_back(owned.back().get());
  }

  const auto scores = of_op(stream, Op::kScore, 1024);
  for (std::size_t at = 0; at < scores.size(); at += g_score) {
    std::vector<std::vector<std::string>> seqs;
    std::size_t tokens = 0;
    for (std::size_t i = at; i < std::min(at + g_score, scores.size()); ++i) {
      seqs.push_back(in.score_tokens[scores[i]->tmpl]);
      tokens += decode_tokens(*scores[i], Reply{}, in, max_seq_len);
    }
    Tracer::Scope span(tracer, "core.score_batch", tokens);
    (void)in.lm->score_batch(
        seqs, std::span<LmDecoder* const>(decoders.data(), seqs.size()));
  }
  result.layer("core.score_batch_us_per_tok",
               tracer.total_us("core.score_batch") /
                   tracer.total_items("core.score_batch"),
               "us");

  const auto gens = of_op(stream, Op::kGenerate, 512);
  for (std::size_t at = 0; at < gens.size(); at += g_gen) {
    std::vector<SampleOptions> options;
    std::vector<Rng> rngs;
    std::vector<Rng*> rng_ptrs;
    const std::size_t end = std::min(at + g_gen, gens.size());
    rngs.reserve(end - at);
    for (std::size_t i = at; i < end; ++i) {
      options.push_back(in.gen_options[gens[i]->tmpl]);
      rngs.emplace_back(in.gen_seed[gens[i]->tmpl]);
    }
    for (Rng& r : rngs) rng_ptrs.push_back(&r);
    Tracer::Scope span(tracer, "core.sample_batch");
    const auto out = in.lm->sample_batch(
        options, rng_ptrs,
        std::span<LmDecoder* const>(decoders.data(), options.size()));
    std::size_t tokens = 0;
    for (std::size_t i = at; i < end; ++i) {
      Reply reply;
      reply.tokens = out[i - at];
      tokens += decode_tokens(*gens[i], reply, in, max_seq_len);
    }
    span.set_items(tokens);
  }
  result.layer("core.sample_batch_us_per_tok",
               tracer.total_us("core.sample_batch") /
                   tracer.total_items("core.sample_batch"),
               "us");

  // Raw lockstep steps over whole sequences at B=1 and at the largest
  // group the scheduler formed.
  const auto advance = [&](std::size_t b, const char* name) {
    std::span<LmDecoder* const> group(decoders.data(), b);
    for (std::size_t rep = 0; rep < 16; ++rep) {
      for (LmDecoder* d : group) d->reset();
      const auto& ids = in.logits_ids[rep % in.logits_ids.size()];
      for (std::size_t t = 0; t + 1 < max_seq_len; ++t) {
        const std::vector<int> step(b, t < ids.size() ? ids[t] : ids.back());
        Tracer::Scope span(tracer, name, b);
        (void)LmDecoder::advance_batch(group, step);
      }
    }
    return median(tracer.durations_us(name));
  };
  result.layer("core.advance_batch_us_b1", advance(1, "core.advance_batch_b1"),
               "us");
  result.layer("core.advance_batch_us_bmax",
               advance(b_max, "core.advance_batch_bmax"), "us");
}

/// Multiply-adds x2 per decoded token at context length T: per layer the
/// Q/K/V/O and FFN projections plus QK^T and AV over T cached positions,
/// then the LM head. Computed from the config, not measured.
double decode_flops_per_token(const netfm::model::TransformerConfig& c,
                              double context) {
  const double d = c.d_model, f = c.d_ffn, v = c.vocab_size;
  const double per_layer = 2.0 * (4 * d * d + 2 * d * f) + 4.0 * context * d;
  return c.num_layers * per_layer + 2.0 * d * v;
}

void report_kv(Scheduler& scheduler, Result& result) {
  const auto& kv = scheduler.sessions().kv_pool();
  const double mb = static_cast<double>(kv->bytes_per_block()) / (1 << 20);
  result.layer("kv.reserved_mb", kv->capacity_blocks() * mb, "MB");
  result.layer("kv.peak_used_mb", kv->peak_blocks_in_use() * mb, "MB");
  std::uint64_t evicted_blocks = 0;
  for (const auto& [name, value] : netfm::metrics::snapshot().counters)
    if (name == "serve.kv.evicted_blocks") evicted_blocks = value;
  result.layer("kv.evicted_blocks", static_cast<double>(evicted_blocks),
               "count");
  result.layer("session.evicted",
               static_cast<double>(scheduler.sessions().evictions()), "count");
}

/// Median over kLatencyWindowS-long windows (by due time) of each
/// window's q-th latency quantile; a stall in one window moves one entry.
double windowed_quantile(const std::vector<double>& due_s,
                         const std::vector<double>& latency_ms, double q) {
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(due_s[i] / kLatencyWindowS);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(latency_ms[i]);
  }
  std::vector<double> per_window;
  for (const auto& w : windows)
    if (w.size() >= 700) per_window.push_back(quantile(w, q));
  return median(per_window);
}

/// Joins a thread on scope exit, after running `close` (exception paths
/// included).
template <typename Close>
struct Joiner {
  std::thread& thread;
  Close close;
  ~Joiner() {
    close();
    if (thread.joinable()) thread.join();
  }
};

struct OpenLoop {
  std::vector<double> due_s, latency_ms, lag_ms, depth;
  std::uint64_t ticks = 0;
  int max_degrade = 0;
};

/// Sends stream[first, last) at the planned offsets (open loop), the slice
/// of the timeline that starts at `slice_s` beginning now, and times each
/// reply from its due time into `out`, whose due_s, latency_ms and lag_ms
/// hold one entry per request of the stream. A collector thread takes
/// replies in submission order, which is the order the FIFO scheduler
/// completes them in.
void run_open_loop(Scheduler& scheduler, const ServeInputs& in,
                   const std::vector<Planned>& stream,
                   const std::vector<double>& offsets_s, double slice_s,
                   std::size_t first, std::size_t last, Verifier& verify,
                   Result& result, Tracer& tracer, OpenLoop& out) {
  struct Flight {
    std::size_t index;
    Clock::time_point due;
    std::future<Reply> reply;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Flight> flights;  // guarded by mutex
  bool closed = false;         // guarded by mutex

  const std::uint64_t ticks_before = scheduler.ticks();
  std::exception_ptr collector_error;  // rethrown once the thread is joined
  std::thread collector([&] {
    try {
      for (;;) {
        Flight flight;
        {
          std::unique_lock<std::mutex> lock(mutex);
          ready.wait(lock, [&] { return closed || !flights.empty(); });
          if (flights.empty()) return;
          flight = std::move(flights.front());
          flights.pop_front();
        }
        const Reply reply = flight.reply.get();
        const auto done = Clock::now();
        out.latency_ms[flight.index] = ms_between(flight.due, done);
        tracer.record("request", flight.due, done, flight.index + 1);
        verify(stream[flight.index], reply, result);
      }
    } catch (...) {
      collector_error = std::current_exception();
    }
  });
  {
    const auto close = [&] {
      {
        std::lock_guard<std::mutex> lock(mutex);
        closed = true;
      }
      ready.notify_one();
    };
    Joiner<decltype(close)> joiner{collector, close};
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = first; i < last; ++i) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offsets_s[i] - slice_s));
      std::this_thread::sleep_until(due - kSpinAhead);
      while (Clock::now() < due) {
      }
      out.lag_ms[i] = ms_between(due, Clock::now());
      out.max_degrade = std::max(out.max_degrade, scheduler.degrade_level());
      if (tracer.on())
        out.depth.push_back(static_cast<double>(scheduler.queued()));
      Request request = make_request(stream[i], in);
      std::future<Reply> reply;
      {
        Tracer::Scope span(tracer, "scheduler.submit", 1, i + 1);
        reply = scheduler.submit(std::move(request));
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        flights.push_back({i, due, std::move(reply)});
      }
      ready.notify_one();
    }
  }
  if (collector_error) std::rethrow_exception(collector_error);
  out.ticks += scheduler.ticks() - ticks_before;
}

struct Saturated {
  std::vector<double> round_s;  // duration of each whole round
  std::size_t completed = 0;
  std::uint64_t ticks = 0;
  double tokens_per_round = 0.0;
  int max_degrade = 0;
};

/// Keeps kSatWindow requests outstanding, cycling `round` until `seconds`
/// have passed at a round boundary. Rounds are whole: every run attempts
/// the same requests a whole number of times.
Saturated run_saturating(Scheduler& scheduler, const ServeInputs& in,
                         const std::vector<Planned>& round, double seconds,
                         Verifier& verify, Result& result) {
  Saturated out;
  std::deque<std::pair<std::size_t, std::future<Reply>>> window;
  const std::uint64_t ticks_before = scheduler.ticks();
  const auto start = Clock::now();
  auto last_round_end = start;
  const auto complete_front = [&] {
    auto [seq, future] = std::move(window.front());
    window.pop_front();
    const Reply reply = future.get();
    const std::size_t tokens = verify(round[seq % round.size()], reply, result);
    if (seq < round.size()) out.tokens_per_round += static_cast<double>(tokens);
    ++out.completed;
    if ((seq + 1) % round.size() == 0) {
      const auto now = Clock::now();
      out.round_s.push_back(seconds_between(last_round_end, now));
      last_round_end = now;
    }
  };
  for (std::size_t seq = 0;; ++seq) {
    if (seq > 0 && seq % round.size() == 0 &&
        seconds_between(start, Clock::now()) >= seconds)
      break;
    while (window.size() >= kSatWindow) complete_front();
    out.max_degrade = std::max(out.max_degrade, scheduler.degrade_level());
    window.emplace_back(
        seq, scheduler.submit(make_request(round[seq % round.size()], in)));
  }
  while (!window.empty()) complete_front();
  out.ticks = scheduler.ticks() - ticks_before;
  return out;
}

void check_ladder(const Scheduler& scheduler, int max_degrade_seen,
                  Result& result) {
  result.check(max_degrade_seen == 0 && scheduler.degrade_level() == 0,
               "degradation ladder left level 0");
}

}  // namespace

Result run_serve_open(const Args& args, Tracer& tracer) {
  Result result;
  ServeInputs in = build_inputs(args, kOpenPrompts);
  Rng rng(mix_seed(args.seed, 3));
  const double open_seconds = args.seconds * kOpenShare;
  std::vector<double> offsets;
  for (double t = rng.exponential(kOpenRate); t < open_seconds;
       t += rng.exponential(kOpenRate))
    offsets.push_back(t);
  const auto open_stream = plan_stream(offsets.size(), kOpenMix, rng, in);
  const auto sat_round = plan_stream(kSatRound, kOpenMix, rng, in);
  build_references(in, {&open_stream, &sat_round});
  const double setup_s = seconds_between(args.started, Clock::now());

  RssPeak rss_peak;
  Scheduler scheduler(*in.lm, in.fm.get(), scheduler_options());
  Verifier verify(in);
  {
    // Warm-up (untimed, unchecked beyond the verifier): pages in the
    // scheduler's pools and the workspace arenas.
    Result warm;
    const std::vector<Planned> warm_round(sat_round.begin(),
                                          sat_round.begin() + kWarmupRequests);
    run_saturating(scheduler, in, warm_round, 0.0, verify, warm);
    result.check(warm.mismatch_count == 0 && warm.failed == 0,
                 "warm-up replies failed their checks");
  }

  OpenLoop open;
  open.due_s = offsets;
  open.latency_ms.assign(open_stream.size(), 0.0);
  open.lag_ms.assign(open_stream.size(), 0.0);
  Saturated sat;
  for (std::size_t c = 0, first = 0; c < kCycles; ++c) {
    const double slice_s = open_seconds * c / kCycles;
    std::size_t last = first;
    while (last < offsets.size() &&
           offsets[last] < open_seconds * (c + 1) / kCycles)
      ++last;
    run_open_loop(scheduler, in, open_stream, offsets, slice_s, first, last,
                  verify, result, tracer, open);
    first = last;
    const Saturated part =
        run_saturating(scheduler, in, sat_round,
                       (args.seconds - open_seconds) / kCycles, verify,
                       result);
    sat.round_s.insert(sat.round_s.end(), part.round_s.begin(),
                       part.round_s.end());
    sat.completed += part.completed;
    sat.ticks += part.ticks;
    sat.tokens_per_round = part.tokens_per_round;
    sat.max_degrade = std::max(sat.max_degrade, part.max_degrade);
  }
  check_ladder(scheduler, std::max(open.max_degrade, sat.max_degrade), result);
  const double rss = rss_peak.stop();
  scheduler.stop();

  std::vector<double> rates, token_rates;
  for (const double s : sat.round_s) {
    rates.push_back(static_cast<double>(kSatRound) / s);
    token_rates.push_back(sat.tokens_per_round / s);
  }
  result.metric("setup_s", setup_s, "s");
  result.metric("peak_rss_mb", rss, "MB");
  const double p99_ms = windowed_quantile(open.due_s, open.latency_ms, 0.99);
  const double lag_p99_ms = quantile(open.lag_ms, 0.99);
  result.metric("ops_per_s", median(rates), "1/s");
  result.metric("tok_per_s", median(token_rates), "tok/s");
  std::fprintf(stderr,
               "serve_open: %zu open-loop requests at %.0f req/s, %zu "
               "saturating requests in %zu rounds; %zu prompt templates, "
               "shared prefix share %.3f; generator lag p99 %.3f ms; "
               "open-loop requests per tick %.2f\n",
               open_stream.size(), kOpenRate, sat.completed, sat.round_s.size(),
               in.score_tokens.size(), shared_prefix_share(open_stream, in),
               lag_p99_ms,
               static_cast<double>(open_stream.size()) /
                   std::max<std::uint64_t>(1, open.ticks));
  if (lag_p99_ms > kMaxLagShare * p99_ms)
    std::fprintf(stderr,
                 "serve_open: WARNING: generator lag p99 %.3f ms exceeds %.0f%% "
                 "of the latency p99 %.3f ms; the latency figures include "
                 "load-generator delay\n",
                 lag_p99_ms, kMaxLagShare * 100, p99_ms);

  if (tracer.on()) {
    const double open_rpt =
        static_cast<double>(open_stream.size()) / std::max<std::uint64_t>(1, open.ticks);
    const double sat_rpt =
        static_cast<double>(sat.completed) / std::max<std::uint64_t>(1, sat.ticks);
    result.layer("scheduler.requests_per_tick", sat_rpt, "req/tick");
    result.layer("scheduler.queue_depth_p50", median(open.depth), "req");
    result.layer("scheduler.submit_us",
                 median(tracer.durations_us("scheduler.submit")), "us");
    result.layer("loadgen.lag_ms_p99", lag_p99_ms, "ms");
    // Not end-to-end metrics: they did not repeat within their bounds
    // from run to run (see the README).
    result.layer("serve.p50_ms",
                 windowed_quantile(open.due_s, open.latency_ms, 0.50), "ms");
    result.layer("serve.p99_ms", p99_ms, "ms");
    report_kv(scheduler, result);
    replay_stateless(in, open_stream, open_rpt, tracer, result);
    replay_decode(in, sat_round, sat_rpt, tracer, result);
    const std::size_t b_max =
        std::max(group_size(sat_rpt, sat_round, Op::kScore),
                 group_size(sat_rpt, sat_round, Op::kGenerate));
    result.layer("nn.matmul_gflops",
                 matmul_gflops(model_config(in.lm->vocab().size()), b_max,
                               tracer),
                 "GFLOP/s");
    const auto config = model_config(in.lm->vocab().size());
    result.layer("nn.decode_flops_per_tok",
                 decode_flops_per_token(config, config.max_seq_len / 2.0),
                 "FLOP");
  }
  return result;
}

// ---------------------------------------------------------------------------

namespace {

/// Blocking-send, poll-driven HTTP/1.1 keep-alive client: one thread
/// keeps one request outstanding on each of its connections.
class HttpConnections {
 public:
  HttpConnections(std::uint16_t port, std::size_t count) {
    for (std::size_t c = 0; c < count; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("socket() failed");
      conns_.push_back(Conn{fd, {}});
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) != 0)
        throw std::runtime_error("connect() to the server failed");
    }
  }
  ~HttpConnections() {
    for (const Conn& c : conns_) ::close(c.fd);
  }
  HttpConnections(const HttpConnections&) = delete;
  HttpConnections& operator=(const HttpConnections&) = delete;

  std::size_t size() const noexcept { return conns_.size(); }

  bool send(std::size_t c, const std::string& wire) {
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(conns_[c].fd, wire.data() + sent,
                               wire.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Waits until some connection has a whole response; returns its index
  /// and moves the status and body out. Throws on a dead connection or a
  /// five-second stall.
  std::size_t next_response(int* status, std::string* body) {
    for (;;) {
      for (std::size_t c = 0; c < conns_.size(); ++c)
        if (take_response(conns_[c].buffer, status, body)) return c;
      std::vector<pollfd> fds;
      for (const Conn& c : conns_) fds.push_back({c.fd, POLLIN, 0});
      const int ready = ::poll(fds.data(), fds.size(), 5000);
      if (ready <= 0) throw std::runtime_error("HTTP client stalled");
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        char chunk[65536];
        const ssize_t got = ::recv(conns_[c].fd, chunk, sizeof chunk, 0);
        if (got <= 0) throw std::runtime_error("server closed a connection");
        conns_[c].buffer.append(chunk, static_cast<std::size_t>(got));
      }
    }
  }

 private:
  struct Conn {
    int fd;
    std::string buffer;
  };

  static bool take_response(std::string& buffer, int* status,
                            std::string* body) {
    const std::size_t head_end = buffer.find("\r\n\r\n");
    if (head_end == std::string::npos) return false;
    const std::size_t at = buffer.find("Content-Length: ");
    if (at == std::string::npos || at > head_end)
      throw std::runtime_error("response without Content-Length");
    const std::size_t length = std::strtoull(
        buffer.c_str() + at + std::strlen("Content-Length: "), nullptr, 10);
    if (buffer.size() < head_end + 4 + length) return false;
    *status = std::atoi(buffer.c_str() + std::strlen("HTTP/1.1 "));
    body->assign(buffer, head_end + 4, length);
    buffer.erase(0, head_end + 4 + length);
    return true;
  }

  std::vector<Conn> conns_;
};

std::string target_of(Op op) {
  return "/v1/" + std::string(netfm::serve::op_name(op));
}

std::string http_wire(const Request& request) {
  const std::string body = netfm::serve::request_to_json(request);
  return "POST " + target_of(request.op) +
         " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

struct HttpPhase {
  std::vector<double> round_s;
  std::vector<std::vector<double>> round_latency_ms;
  std::size_t completed = 0;
  std::uint64_t ticks = 0;
  std::uint64_t reply_bytes = 0;
  int max_degrade = 0;
};

/// Cycles `round` over the connections, closed loop, until `seconds` have
/// passed at a round boundary. The next request on a connection goes out
/// as soon as its reply has arrived; the reply is then parsed and checked.
HttpPhase run_http(HttpConnections& conns, Scheduler& scheduler,
                   const std::vector<Planned>& round,
                   const std::vector<std::string>& wires, double seconds,
                   Verifier& verify, Result& result, Tracer& tracer) {
  HttpPhase out;
  out.round_latency_ms.emplace_back();
  const std::uint64_t ticks_before = scheduler.ticks();
  std::vector<std::size_t> on_conn(conns.size());
  std::vector<Clock::time_point> sent_at(conns.size());
  std::size_t next = 0, outstanding = 0, done_in_round = 0;
  bool issuing = true;
  const auto start = Clock::now();
  auto last_round_end = start;
  const auto issue = [&](std::size_t c) {
    if (!issuing) return;
    out.max_degrade = std::max(out.max_degrade, scheduler.degrade_level());
    if (next > 0 && next % round.size() == 0 &&
        seconds_between(start, Clock::now()) >= seconds) {
      issuing = false;
      return;
    }
    on_conn[c] = next;
    sent_at[c] = Clock::now();
    if (!conns.send(c, wires[next % round.size()]))
      throw std::runtime_error("send() to the server failed");
    ++next;
    ++outstanding;
  };
  for (std::size_t c = 0; c < conns.size(); ++c) issue(c);
  int status = 0;
  std::string body;
  while (outstanding > 0) {
    const std::size_t c = conns.next_response(&status, &body);
    const auto now = Clock::now();
    --outstanding;
    const std::size_t seq = on_conn[c];
    out.round_latency_ms.back().push_back(ms_between(sent_at[c], now));
    tracer.record("http.request", sent_at[c], now, seq + 1);
    issue(c);

    const Planned& p = round[seq % round.size()];
    out.reply_bytes += body.size();
    std::optional<Reply> reply;
    {
      Tracer::Scope span(tracer, "protocol.parse_reply", 1, seq + 1);
      reply = netfm::serve::parse_reply(body, p.op);
    }
    if (status != 200 || !reply) {
      ++result.attempted;
      ++result.failed;
      result.check(false, "HTTP request failed with status " +
                              std::to_string(status));
    } else {
      verify(p, *reply, result);
    }
    ++out.completed;
    if (++done_in_round == round.size()) {
      out.round_s.push_back(seconds_between(last_round_end, now));
      last_round_end = now;
      done_in_round = 0;
      out.round_latency_ms.emplace_back();
    }
  }
  out.round_latency_ms.pop_back();  // the empty tail after the last round
  out.ticks = scheduler.ticks() - ticks_before;
  return out;
}

}  // namespace

Result run_serve_http(const Args& args, Tracer& tracer) {
  Result result;
  ServeInputs in = build_inputs(args, kHttpPrompts);
  Rng rng(mix_seed(args.seed, 4));
  const auto round = plan_stream(kHttpRound, kHttpMix, rng, in);
  build_references(in, {&round});
  std::vector<std::string> wires;
  for (const Planned& p : round) wires.push_back(http_wire(make_request(p, in)));
  const double setup_s = seconds_between(args.started, Clock::now());

  RssPeak rss_peak;
  Scheduler scheduler(*in.lm, in.fm.get(), scheduler_options());
  netfm::serve::HttpServer server(scheduler);
  server.start();
  Verifier verify(in);
  HttpPhase phase;
  {
    HttpConnections conns(server.port(), kHttpConnections);
    {
      Result warm;
      const std::vector<Planned> warm_round(round.begin(),
                                            round.begin() + kHttpWarmup);
      run_http(conns, scheduler, warm_round, wires, 0.0, verify, warm,
               tracer);
      result.check(warm.mismatch_count == 0 && warm.failed == 0,
                   "warm-up replies failed their checks");
    }
    phase = run_http(conns, scheduler, round, wires, args.seconds, verify,
                     result, tracer);
  }
  check_ladder(scheduler, phase.max_degrade, result);
  const double rss = rss_peak.stop();

  const double round_tokens = request_tokens(round, in);
  std::vector<double> rates, token_rates, p50s, p99s;
  for (std::size_t r = 0; r < phase.round_s.size(); ++r) {
    rates.push_back(static_cast<double>(round.size()) / phase.round_s[r]);
    token_rates.push_back(round_tokens / phase.round_s[r]);
    p50s.push_back(quantile(phase.round_latency_ms[r], 0.50));
    p99s.push_back(quantile(phase.round_latency_ms[r], 0.99));
  }
  result.metric("setup_s", setup_s, "s");
  result.metric("peak_rss_mb", rss, "MB");
  result.metric("ops_per_s", median(rates), "1/s");
  result.metric("tok_per_s", median(token_rates), "tok/s");
  std::fprintf(stderr,
               "serve_http: %zu requests over %zu connections in %zu rounds; "
               "shared prefix share %.3f\n",
               phase.completed, kHttpConnections, phase.round_s.size(),
               shared_prefix_share(round, in));

  if (tracer.on()) {
    const double rpt = static_cast<double>(phase.completed) /
                       std::max<std::uint64_t>(1, phase.ticks);
    result.layer("scheduler.requests_per_tick", rpt, "req/tick");
    // Not end-to-end metrics: they did not repeat within their bounds
    // from run to run (see the README).
    result.layer("http.p50_ms", median(p50s), "ms");
    result.layer("http.p99_ms", median(p99s), "ms");
    result.layer("protocol.parse_reply_us",
                 median(tracer.durations_us("protocol.parse_reply")), "us");
    result.layer("protocol.reply_bytes",
                 static_cast<double>(phase.reply_bytes) / phase.completed,
                 "B");
    // Server overhead: the same round with one request outstanding, over
    // HTTP and in process, so both paths form batches of one; what the
    // HTTP median adds to the in-process median is the server's and the
    // protocol's share.
    std::vector<double> http_ms, inproc_ms;
    {
      HttpConnections one(server.port(), 1);
      http_ms = run_http(one, scheduler, round, wires, 0.0, verify, result,
                         tracer)
                    .round_latency_ms.front();
    }
    for (const Planned& p : round) {
      Request request = make_request(p, in);
      const auto sent = Clock::now();
      const Reply reply = scheduler.submit(std::move(request)).get();
      inproc_ms.push_back(ms_between(sent, Clock::now()));
      verify(p, reply, result);
    }
    result.layer("server.overhead_us",
                 (median(http_ms) - median(inproc_ms)) * 1e3, "us");
    server.stop();
    scheduler.stop();

    for (std::size_t i = 0; i < std::min<std::size_t>(round.size(), 2048); ++i) {
      const std::string body =
          netfm::serve::request_to_json(make_request(round[i], in));
      const std::string target = target_of(round[i].op);
      std::string error;
      Tracer::Scope span(tracer, "protocol.parse_request", 1, i + 1);
      result.check(netfm::serve::parse_request(target, body, &error).has_value(),
                   "parse_request rejected a well-formed body");
    }
    result.layer("protocol.parse_request_us",
                 median(tracer.durations_us("protocol.parse_request")), "us");
    for (std::size_t i = 0; i < std::min<std::size_t>(round.size(), 2048); ++i) {
      const Planned& p = round[i];
      Reply reply;
      if (p.op == Op::kNextLogits) reply.logits = in.ref_logits[p.tmpl];
      if (p.op == Op::kEmbed) reply.embedding = in.ref_embed[p.tmpl];
      if (p.op == Op::kScore) reply.score = 1.0 / 3.0;
      Tracer::Scope span(tracer, "protocol.reply_to_json", 1, i + 1);
      (void)netfm::serve::reply_to_json(reply, p.op);
    }
    result.layer("protocol.reply_to_json_us",
                 median(tracer.durations_us("protocol.reply_to_json")), "us");
    replay_stateless(in, round, rpt, tracer, result);
  }
  return result;
}

}  // namespace perfbench
