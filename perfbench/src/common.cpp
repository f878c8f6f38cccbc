#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "common/json.h"
#include "common/threadpool.h"
#include "nn/kernels/kernels.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0, resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1 << 20);
}
}  // namespace

RssPeak::RssPeak() {
  ::malloc_trim(0);
  peak_mb_ = current_rss_mb();
  sampler_ = std::thread([this] { sample(); });
}

RssPeak::~RssPeak() { stop(); }

void RssPeak::sample() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!wake_.wait_for(lock, std::chrono::milliseconds(5),
                         [this] { return stopping_; }))
    peak_mb_ = std::max(peak_mb_, current_rss_mb());
}

double RssPeak::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_one();
  if (sampler_.joinable()) sampler_.join();
  return std::max(peak_mb_, current_rss_mb());
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  ++mismatch_count;
  if (mismatches.size() < 8) mismatches.push_back(what);
}

// ---------------------------------------------------------------------------

namespace {
thread_local std::uint32_t t_open_span = 0;  // innermost Scope on this thread
}  // namespace

Tracer::Tracer(bool on) : on_(on), epoch_(Clock::now()) {
  if (on_) spans_.reserve(1 << 16);
}

std::uint64_t Tracer::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

std::uint32_t Tracer::reserve_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.emplace_back();
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::finish(std::uint32_t id, Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1] = span;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t items,
                     std::uint64_t request)
    : tracer_(tracer), name_(name), items_(items), request_(request) {
  if (!tracer_.on_) return;
  id_ = tracer_.reserve_id();
  parent_ = t_open_span;
  t_open_span = id_;
  start_ns_ = tracer_.now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_.on_) return;
  const std::uint64_t end = tracer_.now_ns();
  t_open_span = parent_;
  tracer_.finish(id_, Span{name_, start_ns_, end, parent_, request_, items_});
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request,
                    std::uint64_t items) {
  if (!on_) return;
  const auto since = [&](Clock::time_point t) {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
               .count()));
  };
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, since(start), since(end), 0, request, items});
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return out;
}

double Tracer::total_us(const char* name) const {
  const auto d = durations_us(name);
  return std::accumulate(d.begin(), d.end(), 0.0);
}

std::uint64_t Tracer::total_items(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name) total += s.items;
  return total;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%u,\"request\":%llu,\"items\":%llu}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                  s.parent, static_cast<unsigned long long>(s.request),
                  static_cast<unsigned long long>(s.items));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

std::string host_stamp_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  netfm::json::Object o;
  o.emplace_back("nproc", netfm::json::Value(static_cast<double>(
                              std::thread::hardware_concurrency())));
  o.emplace_back("cpu", netfm::json::Value(cpu));
  o.emplace_back("kernel_backend",
                 netfm::json::Value(netfm::nn::kernels::active_name()));
  o.emplace_back("pool_threads",
                 netfm::json::Value(static_cast<double>(
                     netfm::ThreadPool::global().threads())));
  o.emplace_back("compiler", netfm::json::Value(std::string(__VERSION__)));
  return netfm::json::Value(std::move(o)).dump();
}

}  // namespace perfbench
