// Shared plumbing of the benchmark's workloads: assembling a cluster,
// driving one access method of a collective pattern through mpiio::File,
// reading every layer's public counters afterwards, and checking bytes
// against a JointWalker oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "io/joint.h"
#include "mpiio/file.h"
#include "net/cost_model.h"
#include "obs/span.h"
#include "pfs/cluster.h"
#include "measure.h"
#include "types/datatype.h"

namespace perfbench {

using dtio::mpiio::Method;

/// Metric-name form of a method: posix, sieving, two_phase, list, datatype.
const char* method_key(Method method);

/// Public counters of every layer after one run, read from the outside.
struct ClusterCounts {
  std::uint64_t events = 0;           ///< sim: Scheduler::events_processed
  std::uint64_t messages = 0;         ///< net
  std::uint64_t wire_bytes = 0;       ///< net
  double link_busy_max = 0;           ///< net: busiest link, fraction
  dtio::IoStats clients;              ///< pfs client, summed over ranks
  std::uint64_t srv_requests = 0;     ///< pfs server, summed over servers
  std::uint64_t regions_walked = 0;
  std::uint64_t dataloops_decoded = 0;
  std::uint64_t dataloop_cache_hits = 0;
  std::uint64_t disk_accesses = 0;
  double disk_busy_max = 0;
  double cpu_busy_max = 0;
  std::uint64_t max_backlog = 0;
  std::vector<std::uint64_t> shard_ops;  ///< meta ops per metadata shard
  std::uint64_t lock_waits = 0;

  /// Sums counts, takes maxima of the busy/backlog gauges.
  void add(const ClusterCounts& other);
};

ClusterCounts collect_counts(
    dtio::pfs::Cluster& cluster,
    const std::vector<std::unique_ptr<dtio::pfs::Client>>& clients);

/// Observability the program records in a traced run, read afterwards.
struct ObsCounts {
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t tp_rounds = 0;            ///< tp_rounds_total
  std::vector<double> lock_wait_sim_ms;   ///< "lock_wait" span durations
  std::vector<double> phase_ns = std::vector<double>(dtio::obs::kPhaseCount);

  void add(const ObsCounts& other);
};

ObsCounts collect_obs(const dtio::obs::Observability& obs);

/// How a run is instrumented. A run is traced when `spans` is set: it then
/// attaches the program's observability and records benchmark spans.
struct Tracing {
  SpanLog* spans = nullptr;
  std::uint64_t parent = 0;  ///< enclosing benchmark span
};

/// One method's run of a workload: host timings, the simulated window and
/// per-call latencies, rank 0's Table-1/3 counters, and layer counts.
struct MethodRun {
  std::string method;            ///< method_key(), or the workload's name
  double setup_host_s = 0;       ///< assembly, types, file create
  double run_host_s = 0;         ///< the timed cluster.run()
  Window window;                 ///< simulated, all ranks
  double desired_bytes = 0;      ///< all ranks
  /// Simulated latency per collective call; in the metadata storm, per
  /// metadata or lock call.
  std::vector<double> op_sim_ms;
  std::uint64_t calls_per_rank = 0;
  std::uint64_t calls_total = 0;  ///< client calls, all ranks
  std::uint64_t path_ops = 0;     ///< metadata calls routed by path hash
  std::uint64_t small_files = 0;  ///< files created with a small size hint
  dtio::IoStats rank0;
  ClusterCounts counts;
  ObsCounts obs;                 ///< traced runs only
};

/// A collective access pattern: every rank makes `calls` collective calls,
/// call k at view offset k * call_stride with `memtype` x 1.
struct Pattern {
  std::string path;
  bool write = false;
  int calls = 1;
  std::int64_t call_stride = 0;            ///< view bytes between calls
  std::int64_t bytes_per_call = 0;         ///< per rank
  dtio::types::Datatype memtype;
  std::vector<dtio::types::Datatype> filetypes;  ///< per rank
  std::vector<std::int64_t> displacements;       ///< per rank
};

/// Data-carrying mode of run_collective: per-rank memory buffers (sources
/// for writes, destinations for reads) and optional file contents written
/// contiguously before the timed calls.
struct DataPlan {
  std::vector<std::vector<std::uint8_t>>* buffers = nullptr;
  const std::vector<std::uint8_t>* preload = nullptr;
  /// After the run: the whole file read back contiguously (writes only).
  std::vector<std::uint8_t>* file_image = nullptr;
};

/// Assemble a fresh cluster for `cfg`, build the pattern with `make`
/// (types are constructed and their dataloops built inside the set-up
/// clock), create the file, then run every rank's calls with `method`.
/// Each call's status lands in `tally`.
MethodRun run_collective(const dtio::net::ClusterConfig& cfg,
                         const std::function<Pattern()>& make, Method method,
                         const Tracing& tracing, OpTally& tally,
                         const DataPlan& data = {});

/// The joint (memory, file) walk of rank `rank`'s call `call` of `p`.
dtio::io::JointWalker pattern_walker(const Pattern& p, int rank, int call);

/// Expected bytes for rank `rank`'s call `call` of `p` through a
/// JointWalker: calls `fn(mem_offset, file_offset, length)` per piece.
void walk_pattern(const Pattern& p, int rank, int call,
                  const std::function<void(std::int64_t, std::int64_t,
                                           std::int64_t)>& fn);

/// Deterministic content byte of a seeded stream at `offset`.
inline std::uint8_t content_byte(std::uint64_t seed, std::int64_t offset) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(offset) * 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 31;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 29;
  return static_cast<std::uint8_t>(z);
}

/// Host time per unit of `fn`: repeats `fn` (which returns the units of
/// work it did) for at least 20 host milliseconds, and returns nanoseconds
/// per unit.
double host_ns_per_unit(const std::function<std::uint64_t()>& fn);

}  // namespace perfbench
