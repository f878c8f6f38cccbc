#include "context/context.h"
#include "nn/tensor.h"
#include "net/flow.h"
#include "tokenize/tokenizer.h"
#include "workloads.h"

namespace perfbench {

namespace {
// The reference capture the deployed vocabulary is built from. Fixed, so
// model shapes do not move with --seed.
constexpr std::uint64_t kModelCaptureSeed = 20221114;
constexpr double kModelCaptureSeconds = 60.0;
constexpr std::size_t kModelCaptureSessions = 360;
}  // namespace

netfm::gen::LabeledTrace make_capture(double seconds, std::uint64_t seed,
                                      double attack_fraction,
                                      std::size_t max_sessions) {
  netfm::gen::TraceConfig config;
  config.profile = netfm::gen::DeploymentProfile::site_a();
  config.duration_seconds = seconds;
  config.seed = seed;
  config.attack_fraction = attack_fraction;
  config.max_sessions = max_sessions;
  return netfm::gen::generate_trace(config);
}

std::vector<std::vector<std::string>> capture_contexts(
    const netfm::gen::LabeledTrace& trace) {
  netfm::FlowTable table;
  for (const netfm::Packet& packet : trace.interleaved) table.add(packet);
  table.flush();
  const netfm::tok::FieldTokenizer tokenizer;
  const netfm::ctx::Options options;
  std::vector<std::vector<std::string>> contexts;
  for (const netfm::Flow& flow : table.finished()) {
    auto context = netfm::ctx::flow_context(flow, tokenizer, options);
    if (!context.empty()) contexts.push_back(std::move(context));
  }
  return contexts;
}

netfm::tok::Vocabulary model_vocabulary() {
  return netfm::tok::Vocabulary::build(capture_contexts(make_capture(
      kModelCaptureSeconds, kModelCaptureSeed, 0.0, kModelCaptureSessions)));
}

netfm::model::TransformerConfig model_config(std::size_t vocab_size) {
  auto config = netfm::model::TransformerConfig::tiny(vocab_size);
  config.max_seq_len = 48;
  return config;
}

/// GEMM rate at the model's projection shapes for `rows` activation rows:
/// Q/K/V/O (D x D), FFN in (D x F), FFN out (F x D), LM head (D x V).
double matmul_gflops(const netfm::model::TransformerConfig& config,
                     std::size_t rows, Tracer& tracer) {
  using netfm::nn::Tensor;
  const std::size_t d = config.d_model, f = config.d_ffn,
                    v = config.vocab_size;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {d, d}, {d, d}, {d, d}, {d, d}, {d, f}, {f, d}, {d, v}};
  netfm::Rng rng(7);
  std::vector<std::pair<Tensor, Tensor>> operands;
  double flops_per_pass = 0.0;
  for (const auto& [k, n] : shapes) {
    operands.emplace_back(Tensor::randn({rows, k}, rng),
                          Tensor::randn({k, n}, rng));
    flops_per_pass += 2.0 * rows * k * n;
  }
  const netfm::nn::InferenceGuard guard;
  std::size_t passes = 0;
  const auto start = Clock::now();
  while (seconds_between(start, Clock::now()) < 0.2) {
    Tracer::Scope span(tracer, "nn.matmul", operands.size());
    for (const auto& [a, b] : operands) (void)netfm::nn::matmul(a, b);
    ++passes;
  }
  return flops_per_pass * passes / (tracer.total_us("nn.matmul") * 1e3);
}

}  // namespace perfbench
