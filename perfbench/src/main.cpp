// perfbench: runs one named workload from a seed, checks its outputs, and
// prints its metrics as the last line of stdout:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) record spans around every layer call, write them to
// <out-dir>/trace-<workload>-<seed>.json, and print the per-layer metrics.
// Exits non-zero when any correctness check fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/metrics.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

int usage() {
  std::fprintf(stderr,
               "usage: netfm_perfbench --workload serve_open|serve_http|"
               "capture_pretrain --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n");
  return 2;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out-dir") args.out_dir = value;
    else return usage();
  }
  if (argc % 2 == 0 || !(args.seconds > 0)) return usage();

  // The registry feeds per-layer counters only; untraced runs leave the
  // library's instrumentation off.
  netfm::metrics::set_enabled(args.trace);
  perfbench::Tracer tracer(args.trace);
  perfbench::Result result;
  std::filesystem::create_directories(args.out_dir);
  try {
    if (args.workload == "serve_open")
      result = perfbench::run_serve_open(args, tracer);
    else if (args.workload == "serve_http")
      result = perfbench::run_serve_http(args, tracer);
    else if (args.workload == "capture_pretrain")
      result = perfbench::run_capture_pretrain(args, tracer);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& m : result.mismatches)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", m.c_str());
  std::printf("host %s\n", perfbench::host_stamp_json().c_str());
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.write(path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    // End-to-end figures of the traced run, for the tracing overhead.
    std::printf("traced %s\n", metrics_json(result.metrics).c_str());
  }
  const bool correct = result.mismatch_count == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(args.trace ? result.layers : result.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
