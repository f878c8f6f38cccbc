// capture_pretrain: the path from captured bytes to a pretrained model.
//
// Set-up generates a labelled capture and writes it as a pcap. The timed
// part runs whole rounds of two phases: ingest (pcap bytes -> packets ->
// FlowTable -> flow contexts -> shard corpus on disk) and streamed MLM
// pretraining of a fresh NetFM over that corpus.
#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/fileio.h"
#include "context/context.h"
#include "core/data.h"
#include "core/netfm.h"
#include "data/corpus.h"
#include "data/loader.h"
#include "model/heads.h"
#include "net/flow.h"
#include "net/pcap.h"
#include "nn/optim.h"
#include "tokenize/tokenizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using netfm::Packet;

constexpr double kCaptureSeconds = 240.0;
constexpr std::size_t kCaptureSessions = 1440;
constexpr double kAttackFraction = 0.0;
constexpr std::size_t kCaptureBytes = 24u << 20;
constexpr std::size_t kShardBytes = 256 * 1024;

constexpr std::size_t kSteps = 100;  // pretraining steps per round
constexpr std::size_t kBatch = 16;
constexpr std::size_t kSeqLen = 48;
constexpr std::size_t kParitySteps = 20;  // streamed vs in-RAM prefix
constexpr std::size_t kLossWindow = 20;   // first/final loss windows
constexpr std::size_t kReplaySteps = 60;  // traced stage replay

// Share of --seconds spent ingesting; pretraining gets the rest. Rounds of
// the two phases alternate, so each phase's median samples the whole run
// rather than one stretch of it: the host's speed moves over stretches of
// 10 to 30 s.
constexpr double kIngestShare = 0.3;

struct Ingested {
  std::vector<Packet> packets;
  std::size_t rejected = 0;  // frames the FlowTable refused (not IPv4)
  std::size_t flowed = 0;    // packets that came out inside flows
  std::vector<std::vector<std::string>> contexts;
  bool written = false;
  std::uint64_t shard_bytes = 0;
};

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

/// One ingest round, each stage under its own span.
Ingested ingest(const std::string& pcap_path, const std::string& corpus_dir,
                Tracer& tracer) {
  Ingested out;
  std::optional<netfm::Bytes> bytes;
  {
    Tracer::Scope span(tracer, "net.read_file");
    bytes = netfm::io::read_file(pcap_path);
  }
  if (!bytes) return out;
  {
    Tracer::Scope span(tracer, "net.pcap_decode", bytes->size());
    auto packets = netfm::pcap_decode(*bytes);
    if (!packets) return out;
    out.packets = std::move(*packets);
  }
  std::vector<netfm::Flow> flows;
  {
    Tracer::Scope span(tracer, "net.flow_table", out.packets.size());
    netfm::FlowTable table;
    for (const Packet& packet : out.packets)
      if (!table.add(packet)) ++out.rejected;
    table.flush();
    flows = table.take_finished();
  }
  for (const netfm::Flow& flow : flows) out.flowed += flow.packet_count();
  {
    Tracer::Scope span(tracer, "context.flow_context", flows.size());
    const netfm::tok::FieldTokenizer tokenizer;
    const netfm::ctx::Options options;
    for (const netfm::Flow& flow : flows) {
      auto context = netfm::ctx::flow_context(flow, tokenizer, options);
      if (!context.empty()) out.contexts.push_back(std::move(context));
    }
  }
  {
    Tracer::Scope span(tracer, "data.corpus_write");
    netfm::data::CorpusWriter::Options options;
    options.target_shard_bytes = kShardBytes;
    netfm::data::CorpusWriter writer(corpus_dir, options);
    bool ok = true;
    for (const auto& context : out.contexts) ok = writer.add(context) && ok;
    out.written = writer.finish() && ok;
    out.shard_bytes = directory_bytes(corpus_dir);
    span.set_items(out.shard_bytes);
  }
  return out;
}

bool same_frames(const std::vector<Packet>& a, const std::vector<Packet>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].frame != b[i].frame) return false;
  return true;
}

netfm::core::PretrainOptions pretrain_options(std::uint64_t seed,
                                              std::size_t steps) {
  netfm::core::PretrainOptions options;
  options.steps = steps;
  options.batch_size = kBatch;
  options.max_seq_len = kSeqLen;
  options.seed = seed;
  return options;
}

/// Real (non-padding) tokens the pretraining batches of `steps` steps
/// hold: [CLS] context [SEP], truncated to the sequence length.
double pretrain_tokens(const std::vector<std::vector<std::string>>& contexts,
                       std::uint64_t seed, std::size_t steps) {
  double tokens = 0.0;
  for (std::size_t step = 0; step < steps; ++step)
    for (const std::size_t i :
         netfm::data::batch_indices(seed, step, kBatch, contexts.size()))
      tokens += static_cast<double>(
          std::min(contexts[i].size() + 2, kSeqLen));
  return tokens;
}

double window_mean(const std::vector<float>& losses, std::size_t begin) {
  double sum = 0.0;
  for (std::size_t i = begin; i < begin + kLossWindow; ++i) sum += losses[i];
  return sum / kLossWindow;
}

/// Replays pretraining steps through the public model/nn API, one span
/// per stage: loader fetch, forward (encoder + MLM head + loss), backward
/// (zero_grad, backward, clip) and optimizer step. Mirrors NetFM::pretrain
/// on an MLM-only task, so its losses must equal the streamed run's.
std::vector<float> replay_training(const netfm::tok::Vocabulary& vocab,
                                   const netfm::data::CorpusReader& corpus,
                                   std::uint64_t seed, Tracer& tracer) {
  using netfm::nn::Tensor;
  auto config = model_config(vocab.size());
  netfm::model::TransformerEncoder encoder(config);
  netfm::Rng head_rng(config.seed + 1);
  netfm::model::MlmHead head(encoder.config(), encoder.token_embeddings(),
                             head_rng);
  netfm::nn::ParameterList params = encoder.parameters();
  head.collect(params);
  const auto options = pretrain_options(seed, kSteps);
  netfm::nn::Adam adam(options.peak_lr, 0.9f, 0.999f, 1e-8f, 0.01f);
  netfm::nn::WarmupLinearSchedule schedule(
      options.peak_lr, static_cast<std::int64_t>(options.warmup_steps),
      static_cast<std::int64_t>(options.steps));
  netfm::data::StreamingLoader::Options loader_options;
  loader_options.seed = seed;
  loader_options.batch_size = kBatch;
  netfm::data::StreamingLoader loader(corpus, loader_options);

  std::vector<float> losses;
  for (std::size_t step = 0; step < kReplaySteps; ++step) {
    std::vector<std::vector<std::string>> rows;
    {
      Tracer::Scope span(tracer, "data.fetch", 1, step + 1);
      rows = loader.batch(step);
    }
    std::vector<netfm::core::Encoded> items;
    std::vector<int> targets;
    {
      Tracer::Scope span(tracer, "train.encode", 1, step + 1);
      netfm::Rng rng = netfm::data::step_rng(seed, step);
      for (const auto& row : rows) {
        items.push_back(netfm::core::encode_context(row, vocab, kSeqLen));
        const auto t = netfm::core::apply_mlm_mask(items.back().ids, vocab,
                                                   rng, options.mask_prob);
        targets.insert(targets.end(), t.begin(), t.end());
      }
    }
    Tensor loss;
    {
      Tracer::Scope span(tracer, "train.forward", 1, step + 1);
      const auto batch = netfm::core::make_batch(items);
      loss = netfm::nn::cross_entropy(
          head.forward(encoder.forward(batch, /*train=*/true)), targets);
      losses.push_back(loss.item());
    }
    {
      Tracer::Scope span(tracer, "train.backward", 1, step + 1);
      netfm::nn::zero_grad(params);
      loss.backward();
      netfm::nn::clip_grad_norm(params, 1.0f);
    }
    {
      Tracer::Scope span(tracer, "train.optim", 1, step + 1);
      adam.set_lr(schedule.lr_at(static_cast<std::int64_t>(step)));
      adam.step(params);
    }
  }
  return losses;
}

}  // namespace

Result run_capture_pretrain(const Args& args, Tracer& tracer) {
  Result result;
  const netfm::tok::Vocabulary vocab = model_vocabulary();
  const auto config = model_config(vocab.size());
  auto trace = make_capture(kCaptureSeconds, mix_seed(args.seed, 5),
                            kAttackFraction, kCaptureSessions);
  // A capture window of fixed size in frame bytes: how many bytes the
  // generator emits varies by seed, and ingest work and memory follow it.
  std::size_t window = 0, bytes = 0;
  while (window < trace.interleaved.size() && bytes < kCaptureBytes)
    bytes += trace.interleaved[window++].frame.size();
  if (bytes < kCaptureBytes)
    throw std::runtime_error("capture shorter than its window");
  trace.interleaved.resize(window);
  const std::string dir =
      args.out_dir + "/capture_pretrain-" + std::to_string(args.seed);
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string pcap_path = dir + "/capture.pcap";
  const std::string corpus_dir = dir + "/corpus";
  if (!netfm::pcap_write_file(pcap_path, trace.interleaved))
    throw std::runtime_error("cannot write " + pcap_path);
  // The benchmark's own contexts: built from the generator's packets,
  // without the pcap round trip the timed path takes.
  const auto reference_contexts = capture_contexts(trace);
  const std::uint64_t train_seed = mix_seed(args.seed, 6);
  const double round_tokens =
      pretrain_tokens(reference_contexts, train_seed, kSteps);
  const double setup_s = seconds_between(args.started, Clock::now());
  RssPeak rss_peak;

  // ---- Whole rounds of ingest and pretraining, alternated -------------
  // An ingest round runs whenever ingest has had less than its share of
  // the time so far (the first round ingests, so the corpus exists).
  std::vector<double> ingest_rates, pretrain_s;
  std::vector<float> first_losses;
  double ingest_spent = 0.0;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < args.seconds ||
         pretrain_s.empty()) {
    if (ingest_spent <= kIngestShare * seconds_between(start, Clock::now())) {
      fs::remove_all(corpus_dir);
      const auto t0 = Clock::now();
      const Ingested round = ingest(pcap_path, corpus_dir, tracer);
      const double s = seconds_between(t0, Clock::now());
      ingest_spent += s;
      ingest_rates.push_back(static_cast<double>(round.packets.size()) / s);
      ++result.attempted;
      const bool ok = round.written && round.contexts == reference_contexts;
      if (!ok) ++result.failed;
      result.check(round.written, "corpus write failed");
      result.check(same_frames(round.packets, trace.interleaved),
                   "decoded pcap frames differ from the generator's frames");
      result.check(round.flowed + round.rejected == round.packets.size(),
                   "FlowTable lost or invented packets");
      result.check(round.contexts == reference_contexts,
                   "ingested contexts differ from the benchmark's own");
      continue;
    }
    netfm::core::NetFM fm(vocab, config);
    const auto t0 = Clock::now();
    std::optional<netfm::data::CorpusReader> corpus;
    {
      Tracer::Scope span(tracer, "data.corpus_open");
      corpus = netfm::data::CorpusReader::open(corpus_dir);
    }
    if (!corpus) throw std::runtime_error("cannot open " + corpus_dir);
    netfm::core::TrainLog log;
    {
      Tracer::Scope span(tracer, "train.pretrain", kSteps);
      log = fm.pretrain(*corpus, {}, pretrain_options(train_seed, kSteps));
    }
    pretrain_s.push_back(seconds_between(t0, Clock::now()));
    ++result.attempted;
    if (first_losses.empty()) first_losses = log.losses;
    const bool same = log.losses.size() == kSteps &&
                      std::memcmp(log.losses.data(), first_losses.data(),
                                  kSteps * sizeof(float)) == 0;
    if (!same) ++result.failed;
    result.check(same, "pretraining rounds over one corpus disagree");
  }
  const double rss = rss_peak.stop();

  // ---- Checks against separately computed references -----------------
  const auto corpus = netfm::data::CorpusReader::open(corpus_dir);
  if (!corpus) throw std::runtime_error("cannot reopen " + corpus_dir);
  std::size_t context_tokens = 0, read_tokens = 0;
  for (const auto& context : reference_contexts)
    context_tokens += context.size();
  for (std::size_t i = 0; i < corpus->size(); ++i)
    read_tokens += corpus->sequence(i).size();
  result.check(corpus->size() == reference_contexts.size() &&
                   corpus->tokens() == context_tokens &&
                   read_tokens == context_tokens,
               "tokens read back through CorpusReader differ from the "
               "contexts' total");
  {
    netfm::core::NetFM fm(vocab, config);
    const auto log = fm.pretrain(reference_contexts, {},
                                 pretrain_options(train_seed, kParitySteps));
    result.check(log.losses.size() == kParitySteps &&
                     first_losses.size() >= kParitySteps &&
                     std::memcmp(log.losses.data(), first_losses.data(),
                                 kParitySteps * sizeof(float)) == 0,
                 "streamed pretraining differs from in-RAM pretraining");
  }
  if (first_losses.size() == kSteps) {
    const double first = window_mean(first_losses, 0);
    const double last = window_mean(first_losses, kSteps - kLossWindow);
    result.check(last < first && last < std::log(double(vocab.size())),
                 "pretraining loss did not fall below its start and ln(V)");
    std::fprintf(stderr,
                 "capture_pretrain: %zu packets, %zu contexts, %zu shards; "
                 "loss %.3f -> %.3f (ln V = %.3f); %zu ingest and %zu "
                 "pretraining rounds\n",
                 trace.interleaved.size(), reference_contexts.size(),
                 corpus->shard_count(), first, last,
                 std::log(double(vocab.size())), ingest_rates.size(),
                 pretrain_s.size());
  }

  result.metric("setup_s", setup_s, "s");
  result.metric("peak_rss_mb", rss, "MB");
  // Every round runs the same steps over the same corpus, so the median
  // round stands for both figures.
  const double round_s = median(pretrain_s);
  result.metric("ops_per_s", static_cast<double>(kSteps * kBatch) / round_s,
                "1/s");
  result.metric("tok_per_s", round_tokens / round_s, "tok/s");

  if (tracer.on()) {
    const auto rate_mb = [&](const char* name) {
      return static_cast<double>(tracer.total_items(name)) / (1 << 20) /
             (tracer.total_us(name) / 1e6);
    };
    // Ingest throughput is a per-layer figure, not an end-to-end one: its
    // spread between runs on a shared 4-core VM (0.22 and 0.33 of the
    // median over two sets of ten) was wider than any usable bound.
    result.layer("ingest.pkts_per_s", median(ingest_rates), "pkt/s");
    result.layer("net.pcap_decode_mb_per_s", rate_mb("net.pcap_decode"),
                 "MB/s");
    result.layer("net.flow_table_ns_per_pkt",
                 tracer.total_us("net.flow_table") * 1e3 /
                     tracer.total_items("net.flow_table"),
                 "ns");
    result.layer("context.flow_context_us_per_flow",
                 tracer.total_us("context.flow_context") /
                     tracer.total_items("context.flow_context"),
                 "us");
    result.layer("data.shard_write_mb_per_s", rate_mb("data.corpus_write"),
                 "MB/s");
    result.layer("data.corpus_open_ms",
                 median(tracer.durations_us("data.corpus_open")) / 1e3, "ms");
    const auto replayed = replay_training(vocab, *corpus, train_seed, tracer);
    result.check(replayed.size() == kReplaySteps &&
                     std::memcmp(replayed.data(), first_losses.data(),
                                 kReplaySteps * sizeof(float)) == 0,
                 "stage replay losses differ from NetFM::pretrain");
    for (const char* stage :
         {"data.fetch", "train.forward", "train.backward", "train.optim"})
      result.layer(std::string(stage) + "_ms_per_step",
                   median(tracer.durations_us(stage)) / 1e3, "ms");
    result.layer("nn.matmul_gflops",
                 matmul_gflops(config, kBatch * kSeqLen, tracer), "GFLOP/s");
  }
  fs::remove_all(dir);
  return result;
}

}  // namespace perfbench
