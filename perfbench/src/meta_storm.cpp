// meta_storm: 16 clients against 8 servers with 4 metadata shards,
// striped byte-range locks and per-file layouts. Every rank runs a
// seed-generated mix of create, stat, open, small hinted writes,
// stat-by-handle and remove over its own files, plus contended
// lock_range/unlock_range pairs on one shared file.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/units.h"
#include "dataloop/serialize.h"
#include "meta/shard_map.h"
#include "pfs/layout.h"
#include "workloads.h"

namespace perfbench {

namespace {

using dtio::SimTime;
using dtio::Status;
using dtio::StatusCode;
using dtio::sim::Task;

constexpr int kClients = 16;
constexpr int kFilesPerClient = 960;
constexpr int kVerifyFilesPerClient = 12;
constexpr int kLockEvery = 3;           ///< one lock pair every 3rd file
constexpr int kSharedRanges = 8;        ///< ~2 ranks contend per range
constexpr std::int64_t kChunk = 4 * 1024;
constexpr std::int64_t kMaxChunks = 8;  ///< files of 4..32 KiB
constexpr std::int64_t kLockRange = 256 * 1024;

dtio::net::ClusterConfig storm_cluster() {
  dtio::net::ClusterConfig cfg;
  cfg.num_servers = 8;
  cfg.num_clients = kClients;
  cfg.strip_size = 16 * dtio::kKiB;
  cfg.meta_shards = 4;
  cfg.lock_stripe_bytes = 64 * 1024;
  cfg.per_file_layouts = true;
  cfg.layout_small_file_bytes = 256 * 1024;
  cfg.layout_small_servers = 1;
  cfg.file_locking = true;
  return cfg;
}

std::string file_path(int rank, int i) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "/storm/r%d/f%d", rank, i);
  return buf;
}

constexpr const char* kSharedPath = "/storm/shared";

/// Content byte at offset `at` of rank `rank`'s file `i`.
std::uint8_t chunk_byte(std::uint64_t seed, int rank, int i, std::int64_t at) {
  return content_byte(seed ^ (static_cast<std::uint64_t>(rank) << 40) ^
                          (static_cast<std::uint64_t>(i) << 20),
                      at);
}

struct StormJob {
  dtio::pfs::Client* client = nullptr;
  dtio::sim::Scheduler* sched = nullptr;
  std::uint64_t seed = 0;
  int rank = 0;
  int files = 0;
  std::uint64_t shared = 0;
  bool carry_data = false;
  OpTally* tally = nullptr;
  MethodRun* run = nullptr;  ///< shared by all ranks
  std::uint64_t* byte_mismatches = nullptr;
  SpanLog* spans = nullptr;
  std::uint64_t parent = 0;
};

/// Times one call on both clocks: sim latency into op_sim_ms when `meta`,
/// a benchmark span when traced.
struct CallTimer {
  StormJob& job;
  bool meta;
  SimTime t0;
  std::uint64_t span;

  CallTimer(StormJob& j, const char* name, bool is_meta, std::uint64_t op)
      : job(j), meta(is_meta), t0(j.sched->now()),
        span(j.spans == nullptr ? 0 : j.spans->begin(name, j.parent, op, t0)) {}
  void done() {
    const SimTime now = job.sched->now();
    ++job.run->calls_total;
    if (meta) job.run->op_sim_ms.push_back(static_cast<double>(now - t0) / 1e6);
    if (job.spans != nullptr) job.spans->end(span, now);
  }
};

Task<void> storm_rank(StormJob& job) {
  dtio::Rng rng(dtio::mix_seed(job.seed, static_cast<std::uint64_t>(job.rank) + 1));
  dtio::pfs::Client& c = *job.client;
  OpTally& tally = *job.tally;
  const SimTime start = job.sched->now();
  std::vector<std::uint8_t> chunk(static_cast<std::size_t>(kChunk));
  std::vector<std::uint8_t> back(static_cast<std::size_t>(kChunk * kMaxChunks));
  for (int i = 0; i < job.files; ++i) {
    const std::string path = file_path(job.rank, i);
    const std::uint64_t op = job.spans == nullptr ? 0 : job.spans->new_op();
    const std::int64_t chunks = 1 + static_cast<std::int64_t>(rng.next_below(kMaxChunks));
    const std::int64_t size = chunks * kChunk;

    CallTimer create(job, "pfs.create", true, op);
    const dtio::pfs::MetaResult made = co_await c.create(path, size);
    create.done();
    ++job.run->path_ops;
    if (!tally.record(made.status)) co_return;
    const std::uint64_t handle = made.handle;

    std::vector<bool> chunk_written(static_cast<std::size_t>(chunks), false);
    std::int64_t extent = 0;
    // A seeded order of a fixed multiset, so every seed issues the same
    // number of each op and only order, sizes and offsets vary.
    int mix[] = {0, 1, 2, 2, 3};
    for (int k = 4; k > 0; --k) {
      std::swap(mix[k], mix[rng.next_below(static_cast<std::uint64_t>(k) + 1)]);
    }
    for (const int kind : mix) {
      switch (kind) {
        case 0: {  // stat by path: OK, size = bytes written so far
          CallTimer t(job, "pfs.stat", true, op);
          const dtio::pfs::MetaResult r = co_await c.stat(path);
          t.done();
          ++job.run->path_ops;
          tally.record(r.status);
          tally.check(r.size == extent);
          break;
        }
        case 1: {  // open: OK, same handle
          CallTimer t(job, "pfs.open", true, op);
          const dtio::pfs::MetaResult r = co_await c.open(path);
          t.done();
          ++job.run->path_ops;
          tally.record(r.status);
          tally.check(r.handle == handle);
          break;
        }
        case 2: {  // small hinted write of one chunk
          const std::int64_t ci = static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(chunks)));
          if (job.carry_data) {
            for (std::int64_t b = 0; b < kChunk; ++b) {
              chunk[static_cast<std::size_t>(b)] =
                  chunk_byte(job.seed, job.rank, i, ci * kChunk + b);
            }
          }
          CallTimer t(job, "pfs.write_contig", false, op);
          const Status s = co_await c.write_contig(
              handle, ci * kChunk, job.carry_data ? chunk.data() : nullptr,
              kChunk);
          t.done();
          tally.record(s);
          chunk_written[static_cast<std::size_t>(ci)] = true;
          extent = std::max(extent, (ci + 1) * kChunk);
          job.run->desired_bytes += static_cast<double>(kChunk);
          break;
        }
        default: {  // stat by handle: OK, same size
          CallTimer t(job, "pfs.stat_handle", true, op);
          const dtio::pfs::MetaResult r = co_await c.stat_handle(handle);
          t.done();
          tally.record(r.status);
          tally.check(r.size == extent);
          break;
        }
      }
    }

    if (job.carry_data && extent > 0) {
      const Status s = co_await c.read_contig(handle, 0, back.data(), extent);
      tally.record(s);
      for (std::int64_t ci = 0; ci < chunks; ++ci) {
        if (!chunk_written[static_cast<std::size_t>(ci)]) continue;
        bool ok = true;
        for (std::int64_t b = 0; b < kChunk && ok; ++b) {
          ok = back[static_cast<std::size_t>(ci * kChunk + b)] ==
               chunk_byte(job.seed, job.rank, i, ci * kChunk + b);
        }
        if (!tally.check(ok)) ++*job.byte_mismatches;
      }
    }

    if (i % kLockEvery == 0) {
      // Ranks rotate over the shared ranges in step, two per range.
      const std::int64_t off = ((job.rank + i / kLockEvery) % kSharedRanges) *
                               kLockRange;
      CallTimer lock(job, "pfs.lock_range", true, op);
      const Status ls = co_await c.lock_range(job.shared, off, kLockRange);
      lock.done();
      tally.record(ls);
      CallTimer unlock(job, "pfs.unlock_range", true, op);
      const Status us = co_await c.unlock_range(job.shared, off, kLockRange);
      unlock.done();
      tally.record(us);
    }

    CallTimer rm(job, "pfs.remove", true, op);
    const dtio::pfs::MetaResult removed = co_await c.remove(path);
    rm.done();
    ++job.run->path_ops;
    tally.record(removed.status);
    CallTimer gone(job, "pfs.stat", true, op);
    const dtio::pfs::MetaResult after = co_await c.stat(path);
    gone.done();
    ++job.run->path_ops;
    tally.expect(after.status, StatusCode::kNotFound);
  }
  job.run->window.add(start, job.sched->now());
}

Task<void> create_shared(dtio::pfs::Client& c, std::uint64_t& handle,
                         OpTally& tally) {
  const dtio::pfs::MetaResult r = co_await c.create(kSharedPath);
  tally.record(r.status);
  handle = r.handle;
}

/// One storm of `files` files per rank on a fresh cluster. Chunks that
/// read back wrong (data-carrying storms only) are counted in
/// `byte_mismatches`.
MethodRun run_storm(std::uint64_t seed, int files, bool carry_data,
                    const Tracing& tracing, OpTally& tally,
                    std::uint64_t& byte_mismatches) {
  MethodRun run;
  run.method = "meta_storm";
  SpanLog* log = tracing.spans;
  const std::uint64_t op = log == nullptr ? 0 : log->new_op();

  const std::int64_t setup_start = host_now_ns();
  const std::uint64_t setup_span =
      log == nullptr ? 0 : log->begin("setup", tracing.parent, op, 0);
  const dtio::net::ClusterConfig cfg = storm_cluster();
  dtio::pfs::Cluster cluster(cfg);
  dtio::obs::Observability obs(std::size_t{1} << 18);
  if (log != nullptr) cluster.set_observability(&obs);
  std::vector<std::unique_ptr<dtio::pfs::Client>> clients;
  for (int r = 0; r < kClients; ++r) {
    clients.push_back(cluster.make_client(r));
    clients.back()->set_transfer_data(carry_data);
  }
  std::uint64_t shared = 0;
  cluster.scheduler().spawn(create_shared(*clients[0], shared, tally));
  cluster.run();
  if (log != nullptr) log->end(setup_span, cluster.scheduler().now());
  run.setup_host_s = host_since_s(setup_start);

  std::vector<StormJob> jobs(kClients);
  const std::uint64_t run_span =
      log == nullptr ? 0
                     : log->begin("cluster.run:meta_storm", tracing.parent, op,
                                  cluster.scheduler().now());
  const std::int64_t run_start = host_now_ns();
  for (int r = 0; r < kClients; ++r) {
    StormJob& job = jobs[static_cast<std::size_t>(r)];
    job.client = clients[static_cast<std::size_t>(r)].get();
    job.sched = &cluster.scheduler();
    job.seed = seed;
    job.rank = r;
    job.files = files;
    job.shared = shared;
    job.carry_data = carry_data;
    job.tally = &tally;
    job.run = &run;
    job.byte_mismatches = &byte_mismatches;
    job.spans = log;
    job.parent = run_span;
    cluster.scheduler().spawn(storm_rank(job));
  }
  cluster.run();
  run.run_host_s = host_since_s(run_start);
  if (log != nullptr) log->end(run_span, cluster.scheduler().now());

  run.calls_per_rank = run.calls_total / kClients;
  run.small_files = static_cast<std::uint64_t>(files) * kClients;
  run.rank0 = clients[0]->stats();
  run.counts = collect_counts(cluster, clients);
  if (log != nullptr) run.obs = collect_obs(obs);
  return run;
}

Iteration storm_iterate(std::uint64_t seed, const Tracing& tracing,
                        OpTally& tally) {
  std::uint64_t byte_mismatches = 0;  // no data is carried
  Iteration it;
  it.runs.push_back(run_storm(seed, kFilesPerClient, false, tracing, tally,
                              byte_mismatches));
  return it;
}

void storm_check(const Iteration& it, OpTally& tally, std::string& log) {
  // Every rank issued the same number of metadata and lock calls, all
  // timed; p99 needs >= 10 samples beyond.
  const MethodRun& r = it.runs.front();
  const std::size_t n = r.op_sim_ms.size();
  const std::size_t locks = (kFilesPerClient + kLockEvery - 1) / kLockEvery;
  // create; stat, open, stat by handle from the mix; remove, stat
  const std::size_t per_file = 6;
  const std::size_t expected = kClients * (kFilesPerClient * per_file + 2 * locks);
  const bool ok = n == expected && samples_beyond(n, 99.0) >= kMinBeyond;
  tally.check(ok);
  char line[160];
  std::snprintf(line, sizeof line,
                "check meta_storm %zu metadata ops timed (%zu), %zu beyond "
                "p99 %s\n",
                n, expected, samples_beyond(n, 99.0), ok ? "ok" : "MISMATCH");
  log += line;
}

void storm_verify(std::uint64_t seed, OpTally& tally, std::string& log) {
  std::uint64_t byte_mismatches = 0;
  const MethodRun r = run_storm(seed, kVerifyFilesPerClient, true, Tracing{},
                                tally, byte_mismatches);
  char line[200];
  std::snprintf(line, sizeof line,
                "verify meta_storm %d ranks x %d files, %llu bytes written and "
                "read back, %llu chunks mismatched\n",
                kClients, kVerifyFilesPerClient,
                static_cast<unsigned long long>(r.desired_bytes),
                static_cast<unsigned long long>(byte_mismatches));
  log += line;
}

LayerTimings storm_layers() {
  LayerTimings t;
  // The small writes' type: one contiguous chunk.
  t.to_dataloop_us = host_ns_per_unit([] {
    const auto type = dtio::types::contiguous(kChunk, dtio::types::byte_t());
    (void)type.dataloop();
    return std::uint64_t{1};
  }) / 1e3;
  const auto type = dtio::types::contiguous(kChunk, dtio::types::byte_t());
  const dtio::dl::DataloopPtr& loop = type.dataloop();
  t.flatten_ns_per_region = host_ns_per_unit([&] {
    std::uint64_t pieces = 0;
    for (int i = 0; i < 1000; ++i) {
      dtio::io::JointWalker walker(dtio::dl::Cursor(loop, 0, 1),
                                   dtio::dl::Cursor(loop, i * kChunk, 1));
      dtio::io::JointWalker::Piece piece;
      while (walker.next(piece)) ++pieces;
    }
    return pieces;
  });
  t.encoded_bytes = static_cast<double>(dtio::dl::encoded_size(*loop));
  t.codec_us = host_ns_per_unit([&] {
    std::vector<std::uint8_t> wire;
    dtio::dl::encode(*loop, wire);
    const dtio::dl::DataloopPtr back = dtio::dl::decode(wire);
    asm volatile("" : : "r"(back.get()));
    return std::uint64_t{1};
  }) / 1e3;
  const dtio::pfs::FileLayout narrow(1, 16 * 1024, 3, 8);  // a narrowed file
  t.place_ns = host_ns_per_unit([&] {
    std::int64_t sink = 0;
    for (std::int64_t off = 0; off < kMaxChunks * kChunk; off += 64) {
      sink += narrow.place(off).physical;
    }
    asm volatile("" : : "r"(sink));
    return static_cast<std::uint64_t>(kMaxChunks * kChunk / 64);
  });
  std::vector<std::string> paths;
  for (int i = 0; i < kFilesPerClient; ++i) paths.push_back(file_path(0, i));
  const dtio::meta::ShardMap shards(4);
  t.shard_of_path_ns = host_ns_per_unit([&] {
    int sink = 0;
    for (const auto& p : paths) sink += shards.shard_of_path(p);
    asm volatile("" : : "r"(sink));
    return static_cast<std::uint64_t>(paths.size());
  });
  return t;
}

}  // namespace

const Workload kMetaStorm{"meta_storm", storm_iterate, storm_check,
                          storm_verify, storm_layers};

}  // namespace perfbench
