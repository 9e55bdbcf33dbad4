// Shared plumbing for the paper-reproduction benches: flag parsing,
// aligned table printing, the per-method result record every figure
// bench reports, and the one run harness every figure run goes through.
//
// run_ranks() is one figure run as a single self-contained call: it builds
// the cluster and the per-rank client/File stacks, has rank 0 create the
// file, then times every rank opening it and running the caller's
// per-rank program, and fills a MethodResult (simulated seconds, rank 0's
// IoStats, events, latency, failed and unsupported rank counts). A
// post-run hook hands the finished cluster and ranks to callers that read
// more from them. The FLASH and 3-D block rank programs are shared here by
// their figure benches and the ablations.
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
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "collective/comm.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"
#include "mpiio/file.h"
#include "obs/observability.h"
#include "obs/run_report.h"
#include "pfs/cluster.h"
#include "workloads/block3d.h"
#include "workloads/flash.h"

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
  int unsupported_ranks = 0;   ///< ranks whose program returned kUnsupported
  int failed_ranks = 0;        ///< ranks whose program returned another error
  double seconds = 0;          ///< simulated seconds
  double bandwidth = 0;        ///< aggregate desired bytes / second
  IoStats per_client;          ///< rank 0's counters
  std::uint64_t events = 0;    ///< simulator events (sanity/efficiency)
  obs::LatencySummary latency; ///< client-op latency (zero when obs is off)
  std::uint64_t spans_recorded = 0;  ///< spans kept by the collector
  std::uint64_t spans_dropped = 0;   ///< spans lost to capacity (should be 0)

  [[nodiscard]] bool supported() const { return unsupported_ranks == 0; }
};

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
/// method name ("read/27/" etc.) when one report covers several sweeps. An
/// unsupported method reports only its name.
inline obs::MethodReport to_report(const MethodResult& r,
                                   const std::string& tag = "") {
  obs::MethodReport m;
  m.method = tag + std::string(mpiio::method_name(r.method));
  m.supported = r.supported();
  if (!m.supported) return m;
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
  if (!r.supported()) {
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
  if (!r.supported()) {
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

// ---- Run harness ------------------------------------------------------------

/// One client stack per rank: pfs::Client and the mpiio::File on it.
/// Timing-only (no data bytes move) at this scale.
struct Ranks {
  std::vector<std::unique_ptr<pfs::Client>> clients;
  std::vector<std::unique_ptr<mpiio::File>> files;
};

inline Ranks make_ranks(pfs::Cluster& cluster) {
  Ranks out;
  for (int r = 0; r < cluster.config().num_clients; ++r) {
    out.clients.push_back(cluster.make_client(r));
    out.clients.back()->set_transfer_data(false);
    out.files.push_back(std::make_unique<mpiio::File>(io::Context{
        cluster.scheduler(), *out.clients.back(), cluster.config()}));
  }
  return out;
}

/// One rank's share of a figure run, started once the rank has the file
/// open; returns the status of its I/O.
using RankProgram = std::function<sim::Task<Status>(
    mpiio::File& file, coll::Communicator& comm, int rank)>;
/// Reads what only one caller needs from the finished run; `t0` is when
/// the timed window opened.
using AfterRun =
    std::function<void(pfs::Cluster& cluster, Ranks& ranks, SimTime t0)>;

/// One figure run: a cluster built from `cfg` (with `obs` attached when
/// given) and one rank per client. Rank 0 creates `path` untimed; then
/// every rank opens it (rank 0 already has it) and runs `program`, and the
/// timed window lasts until the cluster is quiescent. The path's length
/// rides every request descriptor, so callers keep their own.
inline MethodResult run_ranks(mpiio::Method method,
                              const net::ClusterConfig& cfg,
                              const std::string& path,
                              obs::Observability* obs,
                              const RankProgram& program,
                              const AfterRun& after = nullptr) {
  pfs::Cluster cluster(cfg);
  if (obs != nullptr) cluster.set_observability(obs);
  coll::Communicator comm(cluster.scheduler(), cluster.network(),
                          cluster.config(), cfg.num_clients);
  Ranks ranks = make_ranks(cluster);
  cluster.scheduler().spawn(
      [](mpiio::File& f, const std::string& p) -> sim::Task<void> {
        (void)co_await f.open(p, true);
      }(*ranks.files[0], path));
  cluster.run();

  MethodResult result;
  result.method = method;
  const SimTime t0 = cluster.scheduler().now();
  for (int r = 0; r < cfg.num_clients; ++r) {
    cluster.scheduler().spawn(
        [](mpiio::File& f, coll::Communicator& c, int rank,
           const std::string& p, const RankProgram& prog,
           MethodResult& out) -> sim::Task<void> {
          if (rank != 0) (void)co_await f.open(p, false);
          const Status s = co_await prog(f, c, rank);
          if (s.code() == StatusCode::kUnsupported) {
            ++out.unsupported_ranks;
          } else if (!s.is_ok()) {
            ++out.failed_ranks;
          }
        }(*ranks.files[r], comm, r, path, program, result));
  }
  cluster.run();

  result.seconds = to_seconds(cluster.scheduler().now() - t0);
  result.per_client = ranks.clients[0]->stats();
  result.events = cluster.scheduler().events_processed();
  if (obs != nullptr) capture_latency(result, *obs);
  if (after) after(cluster, ranks, t0);
  return result;
}

/// A failed rank op moved fewer bytes than a bandwidth would count, so a
/// run with one prints no number: it names the bench, point and method on
/// stderr and exits 1.
inline void require_no_failures(const MethodResult& r, const char* bench,
                                const std::string& point) {
  if (r.failed_ranks == 0) return;
  std::fprintf(stderr, "error: %s %s %s: %d rank(s) failed\n", bench,
               point.c_str(), std::string(mpiio::method_name(r.method)).c_str(),
               r.failed_ranks);
  std::exit(1);
}

// ---- Shared rank programs ---------------------------------------------------

/// FLASH checkpoint (Figure 12): the rank writes its blocks collectively.
inline sim::Task<Status> flash_checkpoint(mpiio::File& f,
                                          coll::Communicator& c,
                                          const workloads::FlashConfig& flash,
                                          int rank, mpiio::Method m) {
  f.set_view(flash.displacement(rank), types::byte_t(),
             flash.filetype(c.size()));
  auto memtype = flash.memtype();
  co_return co_await f.write_at_all(c, rank, 0, nullptr, 1, memtype, m);
}

/// 3-D block (Figure 10): the rank reads or writes its subarray
/// collectively.
inline sim::Task<Status> block3d_access(mpiio::File& f, coll::Communicator& c,
                                        const workloads::Block3dConfig& block,
                                        int rank, bool write,
                                        mpiio::Method m) {
  f.set_view(0, types::byte_t(), block.block_filetype(rank));
  auto memtype = block.memtype();
  if (write) {
    co_return co_await f.write_at_all(c, rank, 0, nullptr, 1, memtype, m);
  }
  co_return co_await f.read_at_all(c, rank, 0, nullptr, 1, memtype, m);
}

}  // namespace dtio::bench
