// Shared plumbing for the perfbench workloads: timing and order
// statistics, the span recorder behind traced runs, the result every
// workload fills in, and the host stamp printed with it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// splitmix64: derives independent streams from (seed, salt).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Highest resident set size (MB) of this process while it is alive,
/// sampled every few milliseconds from /proc/self/statm by a background
/// thread. Construction first hands memory that set-up freed back to the
/// OS (malloc_trim), so the figure is what the timed phases hold, not what
/// building the inputs once touched.
class RssPeak {
 public:
  RssPeak();
  ~RssPeak();
  RssPeak(const RssPeak&) = delete;
  RssPeak& operator=(const RssPeak&) = delete;

  /// Stops sampling (idempotent) and returns the peak.
  double stop();

 private:
  void sample();

  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;  // guarded by mutex_
  double peak_mb_ = 0.0;   // written by the sampler until stop() joins it
  std::thread sampler_;
};

struct Args {
  Clock::time_point started = Clock::now();  // process start, for setup_s
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  // files a run writes (pcap, corpus)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(). `metrics` are the end-to-end
/// figures (printed by untraced runs), `layers` the per-layer figures
/// (printed by traced runs). A traced run still fills `metrics`, which
/// main() prints to stderr so the tracing overhead can be read off.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatch_count = 0;     // failed correctness checks
  std::vector<std::string> mismatches;  // the first few, for the log
  std::vector<Metric> metrics;
  std::vector<Metric> layers;

  /// Records a failed correctness check (kept to the first few messages).
  void check(bool ok, const std::string& what);
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
};

/// In-memory span recorder for traced runs. Spans are kept until the run
/// ends and then written once as Chrome trace-event JSON. When tracing is
/// off every call is a no-op that reads no clock.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;  // since the tracer's epoch
    std::uint64_t end_ns = 0;
    std::uint32_t parent = 0;    // 1-based span id, 0 = root
    std::uint64_t request = 0;   // request id (0 = none)
    std::uint64_t items = 0;     // work count the span covered
  };

  explicit Tracer(bool on);

  bool on() const noexcept { return on_; }

  /// RAII span on the calling thread; nests under the thread's innermost
  /// open Scope.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t items = 0,
          std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_items(std::uint64_t items) noexcept { items_ = items; }

   private:
    Tracer& tracer_;
    const char* name_;
    std::uint64_t items_;
    std::uint64_t request_;
    std::uint32_t parent_ = 0;
    std::uint32_t id_ = 0;
    std::uint64_t start_ns_ = 0;
  };

  /// Records a finished span whose ends were timed elsewhere (a request
  /// span opened by the generator and closed by the reply collector).
  void record(const char* name, Clock::time_point start,
              Clock::time_point end, std::uint64_t request = 0,
              std::uint64_t items = 0);

  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(const char* name) const;
  /// Sum of durations (us) and of items over spans called `name`.
  double total_us(const char* name) const;
  std::uint64_t total_items(const char* name) const;

  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  std::uint64_t now_ns() const noexcept;
  std::uint32_t reserve_id();
  void finish(std::uint32_t id, Span span);

  bool on_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // index id-1; guarded by mutex_
};

/// One line of JSON naming the host: nproc, CPU model, kernel backend,
/// thread-pool size and compiler.
std::string host_stamp_json();

}  // namespace perfbench
