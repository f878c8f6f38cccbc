// The benchmark's workloads and the model/input set-up they share.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "model/config.h"
#include "tokenize/vocab.h"
#include "trafficgen/generator.h"

namespace perfbench {

/// serve_open: open-loop Poisson load, then a saturating phase, through an
/// in-process serve::Scheduler.
Result run_serve_open(const Args& args, Tracer& tracer);

/// serve_http: closed-loop keep-alive HTTP over loopback.
Result run_serve_http(const Args& args, Tracer& tracer);

/// capture_pretrain: pcap -> flows -> contexts -> shard corpus, then
/// streamed MLM pretraining over that corpus.
Result run_capture_pretrain(const Args& args, Tracer& tracer);

// ---- Shared set-up --------------------------------------------------------

/// The deployed models' vocabulary. Built from a reference capture whose
/// seed is fixed, so the models (and their sizes) are the same whatever
/// --seed draws the inputs; tokens a seeded capture adds map to [UNK].
netfm::tok::Vocabulary model_vocabulary();

/// The model shape every workload serves or trains.
netfm::model::TransformerConfig model_config(std::size_t vocab_size);

/// A labelled site-A capture.
netfm::gen::LabeledTrace make_capture(double seconds, std::uint64_t seed,
                                      double attack_fraction,
                                      std::size_t max_sessions);

/// One flow context per flow of the capture (field tokenizer, flow
/// strategy), empty contexts dropped.
std::vector<std::vector<std::string>> capture_contexts(
    const netfm::gen::LabeledTrace& trace);

/// GEMM rate at the model's projection shapes for `rows` activation rows
/// (one "nn.matmul" span per pass over the shapes).
double matmul_gflops(const netfm::model::TransformerConfig& config,
                     std::size_t rows, Tracer& tracer);

}  // namespace perfbench
