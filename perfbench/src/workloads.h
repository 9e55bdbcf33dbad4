// The benchmark's three workloads. Each runs the paper's access pattern
// on freshly assembled clusters, checks its outputs, and times its own
// datatypes through the public dataloop/layout/meta entry points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// One timed pass over a workload: one MethodRun per access method (the
/// metadata storm has a single run).
struct Iteration {
  std::vector<MethodRun> runs;

  [[nodiscard]] double setup_host_s() const;
  [[nodiscard]] double run_host_s() const;
  [[nodiscard]] std::uint64_t events() const;
  [[nodiscard]] std::uint64_t path_ops() const;
  [[nodiscard]] std::uint64_t small_files() const;
  [[nodiscard]] double window_s() const;      ///< sum of the runs' windows
  /// Geometric means over the runs of simulated bandwidth and client
  /// calls per second, so that a change to any one method shows.
  [[nodiscard]] double sim_bw_mb_s() const;
  [[nodiscard]] double sim_ops_per_s() const;
  [[nodiscard]] ClusterCounts counts() const;
  [[nodiscard]] ObsCounts obs() const;
};

/// Host timings of public entry points on the workload's own types,
/// measured standalone (outside any simulation).
struct LayerTimings {
  double to_dataloop_us = 0;         ///< construct the types + Datatype::dataloop()
  double flatten_ns_per_region = 0;  ///< io::JointWalker::next per piece
  double codec_us = 0;               ///< dl::encode + dl::decode, shipped loop
  double encoded_bytes = 0;          ///< dl::encoded_size of that loop
  double place_ns = 0;               ///< FileLayout::place per call
  double shard_of_path_ns = 0;       ///< meta::ShardMap::shard_of_path per call
};

struct Workload {
  const char* name;
  /// One timed pass. `seed` generates every input that varies.
  Iteration (*iterate)(std::uint64_t seed, const Tracing& tracing,
                       OpTally& tally);
  /// Structural checks of a pass against the paper's tables; appends one
  /// line per check to `log`.
  void (*check)(const Iteration& it, OpTally& tally, std::string& log);
  /// Data-carrying pass through every method, compared byte for byte.
  void (*verify)(std::uint64_t seed, OpTally& tally, std::string& log);
  LayerTimings (*layers)();
};

extern const Workload kTileRead;    // data_workloads.cpp
extern const Workload kFlashWrite;  // data_workloads.cpp
extern const Workload kMetaStorm;   // meta_storm.cpp

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

}  // namespace perfbench
