// Shared plumbing for the paper-reproduction benches: flag parsing,
// aligned table printing, and the per-method result record every figure
// bench reports.
//
// These benches measure SIMULATED time (the discrete-event clock), not
// wall time, which is why they use a custom main() rather than
// google-benchmark; the micro-benches (real computation: dataloop
// processing, packing) use google-benchmark.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "mpiio/file.h"
#include "obs/observability.h"
#include "obs/run_report.h"

namespace dtio::bench {

// ---- Flags -------------------------------------------------------------------

/// Value of `--name=N`, or `fallback` when the flag is absent. A value
/// that is empty or not a whole decimal number is a usage error: the
/// bench prints one naming the flag and exits with status 2.
inline std::int64_t flag_int(int argc, char** argv, const char* name,
                             std::int64_t fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      const char* text = argv[i] + len + 1;
      char* end = nullptr;
      errno = 0;
      const long long value = std::strtoll(text, &end, 10);
      if (*text == '\0' || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "error: %s expects an integer, got '%s'\n",
                     name, text);
        std::exit(2);
      }
      return value;
    }
  }
  return fallback;
}

inline std::string flag_str(int argc, char** argv, const char* name,
                            const char* fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::string(argv[i] + len + 1);
    }
  }
  return std::string(fallback);
}

inline bool flag_set(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Benches attach observability by default; --no-obs runs bare (useful for
/// checking that instrumentation does not perturb simulated results).
inline bool obs_enabled(int argc, char** argv) {
  return !flag_set(argc, argv, "--no-obs");
}

// ---- Results -----------------------------------------------------------------

struct MethodResult {
  mpiio::Method method = mpiio::Method::kPosix;
  bool supported = true;
  double seconds = 0;          ///< simulated seconds
  double bandwidth = 0;        ///< aggregate desired bytes / second
  IoStats per_client;          ///< rank 0's counters
  std::uint64_t events = 0;    ///< simulator events (sanity/efficiency)
  obs::LatencySummary latency; ///< client-op latency (zero when obs is off)
  std::uint64_t spans_recorded = 0;  ///< spans kept by the collector
  std::uint64_t spans_dropped = 0;   ///< spans lost to capacity (should be 0)
};

inline double to_mib(double bytes) { return bytes / (1024.0 * 1024.0); }
inline double to_mb(double bytes) { return bytes / 1e6; }

/// Pull the merged client-op latency distribution out of a finished run's
/// observability context into the result record, along with the span
/// accounting. Warns on stderr when the collector truncated: a truncated
/// trace silently skews phase attribution, so it should never pass
/// unnoticed in CI logs.
inline void capture_latency(MethodResult& r, const obs::Observability& obs) {
  r.latency = obs::LatencySummary::from(
      obs.metrics.merged_histogram("client_op_latency_ns"));
  r.spans_recorded = obs.spans.spans().size();
  r.spans_dropped = obs.spans.dropped();
  if (r.spans_dropped > 0) {
    std::fprintf(stderr,
                 "warning: span collector truncated: %llu spans dropped "
                 "(%llu recorded); raise SpanCollector capacity or expect "
                 "incomplete phase attribution\n",
                 static_cast<unsigned long long>(r.spans_dropped),
                 static_cast<unsigned long long>(r.spans_recorded));
  }
}

/// MethodResult -> the machine-readable report entry. `tag` prefixes the
/// method name ("read/27/" etc.) when one report covers several sweeps.
inline obs::MethodReport to_report(const MethodResult& r,
                                   const std::string& tag = "") {
  obs::MethodReport m;
  m.method = tag + std::string(mpiio::method_name(r.method));
  m.supported = r.supported;
  m.sim_seconds = r.seconds;
  m.bandwidth_mb_s = to_mb(r.bandwidth);
  m.events = r.events;
  m.per_client = r.per_client;
  m.latency = r.latency;
  m.spans_recorded = r.spans_recorded;
  m.spans_dropped = r.spans_dropped;
  return m;
}

/// Write the report to BENCH_<name>.json (or --json=PATH); prints where it
/// went. Skipped entirely under --no-obs.
inline void write_report(const obs::RunReport& report, int argc, char** argv,
                         const std::string& default_path) {
  if (!obs_enabled(argc, argv)) return;
  const std::string path =
      flag_str(argc, argv, "--json", default_path.c_str());
  if (report.write_file(path)) {
    std::fprintf(stderr, "bench report: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "error: could not write bench report %s\n",
                 path.c_str());
  }
}

/// "Figure 8"-style row: method, aggregate MB/s, simulated seconds.
inline void print_figure_row(const MethodResult& r) {
  if (!r.supported) {
    std::printf("  %-18s %12s %12s\n",
                std::string(mpiio::method_name(r.method)).c_str(), "n/a",
                "n/a");
    return;
  }
  std::printf("  %-18s %12.2f %12.2f\n",
              std::string(mpiio::method_name(r.method)).c_str(),
              to_mb(r.bandwidth), r.seconds);
}

inline void print_figure_header(const char* title) {
  std::printf("\n== %s ==\n", title);
  std::printf("  %-18s %12s %12s\n", "method", "agg MB/s", "sim sec");
}

/// "Table 1/2/3"-style row: per-client desired/accessed/ops/resent.
inline void print_table_row(const MethodResult& r) {
  if (!r.supported) {
    std::printf("  %-18s %11s %11s %11s %11s\n",
                std::string(mpiio::method_name(r.method)).c_str(), "-", "-",
                "-", "-");
    return;
  }
  char resent[32];
  if (r.per_client.resent_bytes == 0) {
    std::snprintf(resent, sizeof resent, "-");
  } else {
    std::snprintf(resent, sizeof resent, "%.2f MB",
                  to_mb(static_cast<double>(r.per_client.resent_bytes)));
  }
  std::printf("  %-18s %8.2f MB %8.2f MB %11llu %11s\n",
              std::string(mpiio::method_name(r.method)).c_str(),
              to_mb(static_cast<double>(r.per_client.desired_bytes)),
              to_mb(static_cast<double>(r.per_client.accessed_bytes)),
              static_cast<unsigned long long>(r.per_client.io_ops), resent);
}

inline void print_table_header(const char* title) {
  std::printf("\n== %s ==\n", title);
  std::printf("  %-18s %11s %11s %11s %11s\n", "method", "desired/cli",
              "accessed", "io ops/cli", "resent/cli");
}

inline const char* paper_note(const char* text) { return text; }

}  // namespace dtio::bench
