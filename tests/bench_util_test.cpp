// The figure-bench run harness (bench/bench_util.h): one call builds the
// cluster and rank stacks, times every rank's program and counts the
// ranks whose program failed or came back unsupported.
#include <gtest/gtest.h>

#include <string>

#include "bench/bench_util.h"

namespace dtio {
namespace {

using mpiio::Method;
using sim::Task;

/// One contiguous 4 KiB write at the rank's own offset.
Task<Status> write_4k(mpiio::File& f, int rank) {
  const types::Datatype block = types::contiguous(4096, types::byte_t());
  f.set_view(rank * 4096, types::byte_t(), block);
  co_return co_await f.write_at(0, nullptr, 1, block, Method::kPosix);
}

/// Each rank writes 4 KiB of its own, then reports: rank 0 unsupported,
/// odd ranks a data loss, the rest OK.
Task<Status> mixed_outcome(mpiio::File& f, coll::Communicator&, int rank) {
  const Status s = co_await write_4k(f, rank);
  if (!s.is_ok()) co_return s;
  if (rank == 0) co_return unsupported("rank 0 has no such method");
  if (rank % 2 == 1) co_return data_loss("odd rank lost its bytes");
  co_return Status::ok();
}

net::ClusterConfig small_cluster() {
  net::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 5;
  return cfg;
}

TEST(RunRanks, CountsFailedAndUnsupportedRanks) {
  int hook_calls = 0;
  const bench::MethodResult r = bench::run_ranks(
      Method::kPosix, small_cluster(), "/harness", nullptr, mixed_outcome,
      [&](pfs::Cluster& cluster, bench::Ranks& ranks, SimTime t0) {
        ++hook_calls;
        EXPECT_EQ(ranks.clients.size(), 5u);
        EXPECT_EQ(ranks.files.size(), 5u);
        EXPECT_GT(cluster.scheduler().now(), t0);
      });
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(r.method, Method::kPosix);
  EXPECT_EQ(r.unsupported_ranks, 1);  // rank 0
  EXPECT_EQ(r.failed_ranks, 2);       // ranks 1 and 3
  EXPECT_FALSE(r.supported());
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.events, 0u);
  EXPECT_EQ(r.per_client.desired_bytes, 4096u);  // rank 0's write
}

TEST(RunRanks, AttachesObservabilityWhenGiven) {
  obs::Observability obs(1 << 12);
  const bench::MethodResult r = bench::run_ranks(
      Method::kPosix, small_cluster(), "/harness", &obs,
      [](mpiio::File& f, coll::Communicator&, int rank) {
        return write_4k(f, rank);
      });
  EXPECT_TRUE(r.supported());
  EXPECT_EQ(r.failed_ranks, 0);
  EXPECT_GT(r.spans_recorded, 0u);
  EXPECT_GT(r.latency.count, 0u);
}

TEST(RunRanks, UnsupportedMethodReportsOnlyItsName) {
  bench::MethodResult r;
  r.method = Method::kDataSieving;
  r.unsupported_ranks = 1;
  r.seconds = 1.5;
  r.events = 7;
  const obs::MethodReport m = bench::to_report(r, "write/8/");
  EXPECT_EQ(m.method, "write/8/Data Sieving I/O");
  EXPECT_FALSE(m.supported);
  EXPECT_EQ(m.sim_seconds, 0.0);
  EXPECT_EQ(m.events, 0u);
}

TEST(RunRanksDeathTest, FailedRankExitsNamingTheRun) {
  bench::MethodResult r;
  r.method = Method::kList;
  bench::require_no_failures(r, "flash_io", "8 clients");  // returns
  r.failed_ranks = 3;
  EXPECT_EXIT(bench::require_no_failures(r, "flash_io", "8 clients"),
              ::testing::ExitedWithCode(1), "flash_io 8 clients List I/O");
}

}  // namespace
}  // namespace dtio
