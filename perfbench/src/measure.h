// Measuring primitives of the two-clock benchmark: percentile choice,
// the simulated-bandwidth window, failure accounting, host clocks and
// peak RSS, and an in-memory span log. Everything here is independent of
// the workloads so tests/measure_test.cpp can pin it down.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

// ---- Order statistics --------------------------------------------------------

/// Median of `values` (mean of the middle pair for even sizes); 0 if empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Rank (1-based) of the nearest-rank p-th percentile of n samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank p-th percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

/// Nearest-rank p-th percentile of `values`; 0 if empty.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

/// Samples a tail percentile must leave beyond it to be reported.
constexpr std::size_t kMinBeyond = 10;

/// The tail percentile a distribution of `n` samples supports: the highest
/// of p99.99, p99.9, p99, p90 that leaves at least kMinBeyond samples
/// beyond it. `percentile` is 0 when even p90 is unsupported.
struct TailChoice {
  double percentile = 0;
  std::size_t beyond = 0;
};

inline TailChoice choose_tail(std::size_t n) {
  for (const double p : {99.99, 99.9, 99.0, 90.0}) {
    const std::size_t beyond = samples_beyond(n, p);
    if (beyond >= kMinBeyond) return TailChoice{p, beyond};
  }
  return TailChoice{};
}

/// "p99", "p99.9": the metric-name suffix of a percentile.
inline std::string percentile_label(double p) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "p%g", p);
  return buf;
}

// ---- Simulated bandwidth ------------------------------------------------------

/// The measurement window of a parallel operation: earliest start to latest
/// end over all participants, in simulated nanoseconds. Taking the minimum
/// end instead would cut the window short and inflate bandwidth.
class Window {
 public:
  void add(std::int64_t start, std::int64_t end) {
    start_ = std::min(start_, start);
    end_ = std::max(end_, end);
  }
  [[nodiscard]] bool empty() const noexcept { return end_ < start_; }
  [[nodiscard]] std::int64_t start() const noexcept { return start_; }
  [[nodiscard]] std::int64_t end() const noexcept { return end_; }
  [[nodiscard]] std::int64_t length_ns() const noexcept {
    return empty() ? 0 : end_ - start_;
  }
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(length_ns()) / 1e9;
  }

 private:
  std::int64_t start_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t end_ = std::numeric_limits<std::int64_t>::min();
};

/// Aggregate bandwidth in decimal MB/s: all participants' desired bytes
/// over one shared window (never a mean of per-participant rates).
inline double bandwidth_mb_s(double bytes, const Window& window) {
  const double s = window.seconds();
  return s > 0 ? bytes / 1e6 / s : 0;
}

// ---- Failure accounting -------------------------------------------------------

/// Attempted/failed tally. Only kOk succeeds where success is expected; in
/// particular kUnsupported is a failure, not a skipped op.
class OpTally {
 public:
  /// One operation whose status must be OK.
  bool record(const dtio::Status& status) {
    return expect(status, dtio::StatusCode::kOk);
  }
  /// One operation whose status must be exactly `expected`.
  bool expect(const dtio::Status& status, dtio::StatusCode expected) {
    ++attempted_;
    if (status.code() == expected) return true;
    ++failed_;
    return false;
  }
  /// One output check: passes when `ok`.
  bool check(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
    return ok;
  }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// Failed ÷ attempted; 1 when nothing was attempted (a run that did no
  /// work has not shown a single correct output).
  [[nodiscard]] double error_rate() const noexcept {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- Host clock and memory -------------------------------------------------------

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host seconds since `start_ns` (a host_now_ns() reading).
inline double host_since_s(std::int64_t start_ns) {
  return static_cast<double>(host_now_ns() - start_ns) / 1e9;
}

/// Peak resident set of this process so far, MiB. Reads VmHWM, which
/// starts afresh at exec; getrusage's ru_maxrss would carry over the peak
/// of the process that exec'd us (a Python launcher, say).
inline double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Span log -------------------------------------------------------------------

/// One benchmark-side span on both clocks. `op` groups the spans of one
/// logical operation; `parent` is the enclosing span's id (0 for roots).
struct BenchSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::string name;
  std::int64_t host_start_ns = 0;
  std::int64_t host_end_ns = 0;
  std::int64_t sim_start_ns = 0;
  std::int64_t sim_end_ns = 0;
};

/// Unbounded in-memory span log, written out once at the end. Untraced
/// runs have no log at all.
class SpanLog {
 public:
  [[nodiscard]] std::uint64_t new_op() noexcept { return ++op_seq_; }

  std::uint64_t begin(std::string name, std::uint64_t parent,
                      std::uint64_t op, std::int64_t sim_now) {
    BenchSpan s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.op = op;
    s.name = std::move(name);
    s.host_start_ns = host_now_ns();
    s.sim_start_ns = sim_now;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void end(std::uint64_t id, std::int64_t sim_now) {
    if (id == 0 || id > spans_.size()) return;
    BenchSpan& s = spans_[id - 1];
    s.host_end_ns = host_now_ns();
    s.sim_end_ns = sim_now;
  }
  [[nodiscard]] const std::vector<BenchSpan>& spans() const noexcept {
    return spans_;
  }

  /// One JSON object per line.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const BenchSpan& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                   "\"host_start_ns\":%lld,\"host_end_ns\":%lld,"
                   "\"sim_start_ns\":%lld,\"sim_end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op), s.name.c_str(),
                   static_cast<long long>(s.host_start_ns),
                   static_cast<long long>(s.host_end_ns),
                   static_cast<long long>(s.sim_start_ns),
                   static_cast<long long>(s.sim_end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::uint64_t op_seq_ = 0;
  std::vector<BenchSpan> spans_;
};

}  // namespace perfbench
