// Reproduces the paper's tile-reader experiment:
//   Figure 8 — aggregate read bandwidth of the five access methods for a
//              3x2 display wall playing back 100 frames of 10.2 MB;
//   Table 1  — per-client I/O characteristics (desired, accessed, op
//              count, resent data).
//
// Configuration mirrors §4.1/§4.2: 16 I/O servers, 64 KiB strips, 6
// clients (one process per node, fixed by the tile geometry), 4 MiB
// sieve/collective buffers.
//
// Flags:
//   --frames=N           frames per run (default 100, at least 1)
//   --csv                also print Figure 8 as csv rows
//   --trace=PATH         Chrome trace of the datatype-I/O run
//   --json=PATH          report path (default BENCH_tile_reader.json)
//   --no-obs             run without observability; writes no report
//   --chaos              fault-injection ablation
//   --overload           degraded-server tail-latency ablation plus the
//                        instrumented convoy (--trace-overload=PATH,
//                        default trace_overload.json)
//   --cache              server buffer-cache cold/warm ablation
//   --replication        degraded-read ablation (--replication-r=N sets the
//                        replicated arm's factor, default 2)
//   --media-faults       storage-integrity ablation (--media-r=N, default 2)
// The pruned-expansion ablation always runs. The others are off by
// default, so the default report is byte-identical to an ablation-free
// build. Every ablation records its numbers as report scalars and prints
// its summary from them.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "collective/comm.h"
#include "common/rng.h"
#include "io/methods.h"
#include "mpiio/file.h"
#include "net/fault.h"
#include "obs/phase.h"
#include "pfs/cluster.h"
#include "workloads/tile.h"

namespace dtio {
namespace {

using bench::MethodResult;
using bench::Ranks;
using mpiio::Method;
using sim::Task;
using Scalars = std::map<std::string, double>;

/// Rank 0 creates the frame file (contents are irrelevant for read timing).
void create_frames(pfs::Cluster& cluster, Ranks& ranks) {
  cluster.scheduler().spawn([](mpiio::File& f) -> Task<void> {
    (void)co_await f.open("/frames", true);
  }(*ranks.files[0]));
  cluster.run();
}

/// One rank's independent datatype pass over every frame of its tile.
/// Opens the frame file first unless this rank already has it open (a
/// write pass creates it on rank 0). Counts failed ops in `fail` and
/// keeps going.
Task<void> tile_pass(mpiio::File& f, const workloads::TileConfig& t, int rank,
                     int nframes, bool write, int& fail) {
  if (!f.is_open()) (void)co_await f.open("/frames", write && rank == 0);
  f.set_view(0, types::byte_t(), t.tile_filetype(rank));
  auto memtype = t.memtype();
  for (int frame = 0; frame < nframes; ++frame) {
    const std::int64_t offset =
        static_cast<std::int64_t>(frame) * t.tile_bytes();
    Status s;
    if (write) {
      s = co_await f.write_at(offset, nullptr, 1, memtype, Method::kDatatype);
    } else {
      s = co_await f.read_at(offset, nullptr, 1, memtype, Method::kDatatype);
    }
    if (!s.is_ok()) ++fail;
  }
}

/// Runs tile_pass on every rank to quiescence; returns simulated seconds.
double run_tile_pass(pfs::Cluster& cluster, Ranks& ranks,
                     const workloads::TileConfig& tile, int frames, bool write,
                     int& fail) {
  const SimTime t0 = cluster.scheduler().now();
  for (int r = 0; r < cluster.config().num_clients; ++r) {
    cluster.scheduler().spawn(
        tile_pass(*ranks.files[r], tile, r, frames, write, fail));
  }
  cluster.run();
  return to_seconds(cluster.scheduler().now() - t0);
}

/// Creates `path` through `c`, writes `chunks` copies of `chunk` back to
/// back from offset 0, then reads the first chunk `warmup_reads` times,
/// all as one op sequence, and runs the cluster to quiescence. Failed ops
/// count in `fail`. Returns the file's handle (0 if the create failed).
std::uint64_t seed_file(pfs::Cluster& cluster, pfs::Client& client,
                        const char* path,
                        const std::vector<std::uint8_t>& chunk, int chunks,
                        int warmup_reads, int& fail) {
  std::uint64_t handle = 0;
  cluster.scheduler().spawn(
      [](pfs::Client& c, const char* p, const std::vector<std::uint8_t>& buf,
         int n, int warmups, std::uint64_t& h, int& fail) -> Task<void> {
        pfs::MetaResult f = co_await c.create(p);
        if (!f.status.is_ok()) {
          ++fail;
          co_return;
        }
        h = f.handle;
        const auto len = static_cast<std::int64_t>(buf.size());
        for (int i = 0; i < n; ++i) {
          Status w = co_await c.write_contig(h, i * len, buf.data(), len);
          if (!w.is_ok()) ++fail;
        }
        std::vector<std::uint8_t> back(buf.size());
        for (int i = 0; i < warmups; ++i) {
          Status r = co_await c.read_contig(h, 0, back.data(), len);
          if (!r.is_ok()) ++fail;
        }
      }(client, path, chunk, chunks, warmup_reads, handle, fail));
  cluster.run();
  return handle;
}

/// Open-loop paced reads of `bytes` at offset 0: read i is spawned to
/// issue at t0 + i * pace, so a slow op cannot shield the ops behind it
/// from a fault window. Stores read i's latency in lat[i] and counts
/// successes in `ok`, failures in `fail`; runs the cluster to quiescence.
void paced_reads(pfs::Cluster& cluster, pfs::Client& client, std::uint64_t h,
                 std::size_t bytes, SimTime t0, SimTime pace,
                 std::vector<SimTime>& lat, int& ok, int& fail) {
  for (std::size_t i = 0; i < lat.size(); ++i) {
    cluster.scheduler().spawn(
        [](sim::Scheduler& sched, pfs::Client& c, std::uint64_t h,
           std::size_t bytes, SimTime due, SimTime& slot, int& ok,
           int& fail) -> Task<void> {
          co_await sched.delay(due - sched.now());
          std::vector<std::uint8_t> buf(bytes);
          const SimTime start = sched.now();
          Status r = co_await c.read_contig(
              h, 0, buf.data(), static_cast<std::int64_t>(buf.size()));
          slot = sched.now() - start;
          if (r.is_ok()) {
            ++ok;
          } else {
            ++fail;
          }
        }(cluster.scheduler(), client, h, bytes,
          t0 + static_cast<SimTime>(i) * pace, lat[i], ok, fail));
  }
  cluster.run();
}

/// Nearest-rank percentile over the raw latency samples (exact, not the
/// log-linear histogram estimate).
SimTime percentile_exact(std::vector<SimTime> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::max<std::int64_t>(
      0, static_cast<std::int64_t>(
             p / 100.0 * static_cast<double>(v.size()) + 0.5) -
             1));
  return v[std::min(rank, v.size() - 1)];
}

/// Prints one ablation's summary: every scalar whose name starts with
/// `prefix`, formatted as the JSON report writes it.
void print_scalars(const Scalars& s, const char* title,
                   const std::string& prefix) {
  std::printf("\n%s\n", title);
  for (auto it = s.lower_bound(prefix);
       it != s.end() && it->first.starts_with(prefix); ++it) {
    std::printf("  %-32s %.6g\n", it->first.c_str(), it->second);
  }
}

/// One rank of a Figure 8 run: collective reads of every frame of its
/// tile, stopping at the first status that is not OK.
Task<Status> tile_frames(mpiio::File& f, coll::Communicator& c,
                         const workloads::TileConfig& t, int rank, int frames,
                         Method m) {
  f.set_view(0, types::byte_t(), t.tile_filetype(rank));
  auto memtype = t.memtype();
  for (int frame = 0; frame < frames; ++frame) {
    Status s = co_await f.read_at_all(
        c, rank, static_cast<std::int64_t>(frame) * t.tile_bytes(), nullptr,
        1, memtype, m);
    if (!s.is_ok()) co_return s;
  }
  co_return Status::ok();
}

MethodResult run_tile(Method method, const workloads::TileConfig& tile,
                      int frames, bool use_obs,
                      const std::string& trace_path,
                      bool pruned_expansion = true,
                      pfs::ServerStats* servers = nullptr) {
  net::ClusterConfig cfg;  // paper defaults: 16 servers, 64 KiB strips
  cfg.num_clients = tile.num_clients();
  cfg.server.pruned_expansion = pruned_expansion;
  obs::Observability obs(1 << 18);
  MethodResult result = bench::run_ranks(
      method, cfg, "/frames", use_obs ? &obs : nullptr,
      [&](mpiio::File& f, coll::Communicator& c, int rank) {
        return tile_frames(f, c, tile, rank, frames, method);
      },
      [&](pfs::Cluster& cluster, bench::Ranks&, SimTime) {
        if (servers != nullptr) *servers = cluster.server_stats_total();
        if (!use_obs) return;
        cluster.record_metrics();
        if (!trace_path.empty() && cluster.write_trace(trace_path)) {
          std::printf("chrome trace (%s run): %s\n",
                      std::string(mpiio::method_name(method)).c_str(),
                      trace_path.c_str());
        }
      });
  bench::require_no_failures(result, "tile_reader",
                             "frames=" + std::to_string(frames));
  const double desired_total = static_cast<double>(tile.tile_bytes()) *
                               tile.num_clients() * frames;
  result.bandwidth = desired_total / result.seconds;
  // Per-frame characteristics for Table 1.
  result.per_client.desired_bytes /= static_cast<std::uint64_t>(frames);
  result.per_client.accessed_bytes /= static_cast<std::uint64_t>(frames);
  result.per_client.io_ops /= static_cast<std::uint64_t>(frames);
  result.per_client.resent_bytes /= static_cast<std::uint64_t>(frames);
  result.per_client.request_bytes /= static_cast<std::uint64_t>(frames);
  return result;
}

/// Pruned-expansion ablation at the paper configuration (16 servers,
/// 64 KiB strips): the same datatype run with server-side subtree pruning
/// on (default) and off (legacy full expansion). Fleet-aggregate
/// regions_walked is the cost the pruning removes: with the flag off
/// every server walks every piece of the access.
void pruned_ablation(const workloads::TileConfig& tile, int frames,
                     Scalars& s) {
  for (const bool on : {true, false}) {
    pfs::ServerStats st;
    const MethodResult r =
        run_tile(Method::kDatatype, tile, frames, false, "", on, &st);
    const std::string p = on ? "pruned_on_" : "pruned_off_";
    s[p + "regions_walked"] = static_cast<double>(st.regions_walked);
    s[p + "sim_seconds"] = r.seconds;
    if (!on) continue;
    s[p + "my_pieces"] = static_cast<double>(st.my_pieces);
    s[p + "subtrees_skipped"] = static_cast<double>(st.subtrees_skipped);
    s[p + "pieces_pruned"] = static_cast<double>(st.pieces_pruned);
  }
  const double on_walked = s["pruned_on_regions_walked"];
  s["pruned_regions_walked_ratio"] =
      on_walked == 0 ? 0.0 : s["pruned_off_regions_walked"] / on_walked;
  print_scalars(s, "ablation: server.pruned_expansion (datatype method)",
                "pruned_");
}

/// One arm of the --chaos ablation: independent datatype-I/O tile reads
/// under the reliability layer. Independent (not collective) reads keep a
/// client that exhausts its retries from wedging everyone else's barrier,
/// so the retries-off arm can count failures instead of deadlocking. The
/// fault-free arm records only its time (the slowdown baseline), the
/// retries-off arm only its failures, the faulty arm every counter.
void run_chaos_arm(const workloads::TileConfig& tile, int frames,
                   bool with_faults, int max_attempts, Scalars& s) {
  net::ClusterConfig cfg;  // paper defaults: 16 servers, 64 KiB strips
  cfg.num_clients = tile.num_clients();
  // Reliability layer armed in every arm (including fault-free, so the
  // slowdown ratio isolates the faults, not the retry machinery).
  cfg.client.rpc_timeout = 200 * kMillisecond;
  cfg.client.rpc_max_attempts = max_attempts;
  cfg.client.rpc_backoff_base = 10 * kMillisecond;
  // Overload layer armed too: hedged reads rescue dropped replies without
  // burning the 200 ms timeout, and the admission bound sheds the
  // synchronized retry burst that follows the crash restart. The bound is
  // above the steady-state burst depth (6 clients), so only retry pileups
  // trip it.
  cfg.client.hedge_quantile = 95;
  cfg.client.hedge_min_samples = 16;
  cfg.server.max_queue_depth = 8;

  pfs::Cluster cluster(cfg);
  // Fixed plan: 5% drop + 2% duplicate + 1% corrupt on client<->server
  // links, plus one mid-run crash of server 3 (caches come back cold).
  net::FaultPlan plan(mix_seed(cluster.config().seed, 0xC4A05));
  if (with_faults) {
    net::FaultSpec spec;
    spec.drop = 0.05;
    spec.duplicate = 0.02;
    spec.corrupt = 0.01;
    plan.set_default_spec(spec);
    plan.set_scope_max_node(cluster.config().num_servers);
    cluster.set_fault_plan(&plan);
  }
  Ranks ranks = bench::make_ranks(cluster);
  create_frames(cluster, ranks);

  if (with_faults) {
    cluster.schedule_server_crash(3, cluster.scheduler().now() +
                                         2 * kMillisecond,
                                  40 * kMillisecond);
  }
  int failures = 0;
  const double seconds =
      run_tile_pass(cluster, ranks, tile, frames, /*write=*/false, failures);

  if (!with_faults) {
    s["chaos_clean_sim_seconds"] = seconds;
    return;
  }
  if (max_attempts == 1) {
    s["chaos_noretry_failures"] = failures;
    return;
  }
  s["chaos_sim_seconds"] = seconds;
  s["chaos_failures"] = failures;
  for (const auto& c : ranks.clients) {
    s["chaos_retries"] += static_cast<double>(c->rpc_retries());
    s["chaos_timeouts"] += static_cast<double>(c->rpc_timeouts());
    s["chaos_hedges_issued"] += static_cast<double>(c->hedges_issued());
    s["chaos_hedges_won"] += static_cast<double>(c->hedges_won());
  }
  const pfs::ServerStats st = cluster.server_stats_total();
  s["chaos_replays"] = static_cast<double>(st.replays_suppressed);
  s["chaos_crc_rejects"] = static_cast<double>(st.crc_rejects);
  s["chaos_crashes"] = static_cast<double>(st.crashes);
  s["chaos_sheds"] = static_cast<double>(st.sheds_depth + st.sheds_bytes);
  s["chaos_faults_injected"] = static_cast<double>(plan.counters().total());
}

/// Fault-injection ablation (--chaos): datatype reads under 5% drop + 2%
/// duplicate + 1% corrupt + one server crash, with retries on vs off.
void chaos_ablation(const workloads::TileConfig& tile, int frames,
                    Scalars& s) {
  run_chaos_arm(tile, frames, false, 6, s);
  run_chaos_arm(tile, frames, true, 6, s);
  run_chaos_arm(tile, frames, true, 1, s);
  const double clean = s["chaos_clean_sim_seconds"];
  s["chaos_slowdown"] = clean == 0 ? 0.0 : s["chaos_sim_seconds"] / clean;
  print_scalars(s,
                "chaos ablation: datatype reads, 5% drop + 2% dup + 1% "
                "corrupt + server 3 crash; clean, retries on, retries off",
                "chaos_");
}

/// One arm of the --overload ablation: a single client doing open-loop
/// paced 16 KiB reads of a 2-server striped file while server 1 runs 4x
/// degraded for 150 ms. Mirrors the deterministic acceptance scenario in
/// tests/overload_test.cpp.
void run_overload_arm(bool hedging_on, Scalars& s) {
  constexpr int kWarmupReads = 20;
  constexpr int kMeasuredReads = 100;
  constexpr SimTime kPace = 25 * kMillisecond;
  constexpr SimTime kWindow = 150 * kMillisecond;
  constexpr std::size_t kReadBytes = 16384;  // 8 KiB per server

  net::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.num_clients = 1;
  cfg.strip_size = 8192;
  cfg.client.rpc_timeout = 5 * kMillisecond;
  cfg.client.rpc_max_attempts = 10;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  // Bounded queues in both arms; sized above the single-client backlog so
  // admission control is armed but the ablation isolates hedging.
  cfg.server.max_queue_depth = 16;
  if (hedging_on) {
    cfg.client.hedge_quantile = 95;
    cfg.client.hedge_min_samples = 8;
    cfg.client.breaker_failures = 6;
    cfg.client.flow_window = 8;
  }
  pfs::Cluster cluster(cfg);
  // Degraded windows are deterministic (no RNG draws), so both arms see
  // the identical straggler regardless of seed.
  net::FaultPlan plan(mix_seed(cluster.config().seed, 0x0F7A11));
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);

  // Phase 1: create, write, healthy warmup (arms the hedge quantile).
  int failures = 0;
  const std::uint64_t handle =
      seed_file(cluster, *client, "/overload",
                std::vector<std::uint8_t>(kReadBytes, 0x5A), 1, kWarmupReads,
                failures);

  // Phase 2: server 1 degrades 4x for kWindow under paced reads.
  const SimTime t0 = cluster.scheduler().now() + 2 * kMillisecond;
  plan.add_degraded(/*node=*/1, t0, t0 + kWindow, 4.0);
  std::vector<SimTime> lat(kMeasuredReads);
  int ok = 0;
  paced_reads(cluster, *client, handle, kReadBytes, t0, kPace, lat, ok,
              failures);

  const std::string p = hedging_on ? "overload_on_" : "overload_off_";
  s[p + "read_p50_us"] = percentile_exact(lat, 50) / 1e3;
  s[p + "read_p99_us"] = percentile_exact(lat, 99) / 1e3;
  s[p + "read_p999_us"] = percentile_exact(lat, 99.9) / 1e3;
  s[p + "hedges_issued"] = static_cast<double>(client->hedges_issued());
  if (hedging_on) {
    s[p + "hedges_won"] = static_cast<double>(client->hedges_won());
  }
  s[p + "timeouts"] = static_cast<double>(client->rpc_timeouts());
  s["overload_failures"] += failures;
}

/// The instrumented convoy scenario (--overload): 8 clients in a closed
/// loop hammering one decode-bound server (request_overhead raised to
/// 2 ms) with small contiguous reads. The server's mailbox backs up, so
/// nearly all of each op's latency is queue-wait — the canonical case for
/// phase attribution. Runs with the timeline sampler on (1 ms period) and
/// exports trace_overload.json; CI feeds that trace to dtio_inspect and
/// gates on >= 95% typed-phase coverage at p99 with server_queue dominant.
void run_overload_convoy(const std::string& trace_path,
                         obs::RunReport& report) {
  constexpr int kClients = 8;
  constexpr int kReadsPerClient = 30;
  constexpr std::size_t kReadBytes = 4096;

  obs::ObsConfig obs_cfg;
  obs_cfg.sample_period = kMillisecond;
  obs_cfg.timeline_capacity = 8192;  // whole run retained, zero dropped
  obs::Observability obs(obs_cfg);

  net::ClusterConfig cfg;
  cfg.num_servers = 1;
  cfg.num_clients = kClients;
  cfg.server.request_overhead = 2 * kMillisecond;  // decode-bound server
  // Reliable RPC path armed (typed client-side queue/backoff spans) but
  // the timeout is ~50x any convoy queue wait, so no attempt ever
  // retries. Kept small because each pending recv_for timer extends the
  // post-run event drain (and thus the sampled window) by one timeout.
  cfg.client.rpc_timeout = kSecond;
  cfg.client.rpc_max_attempts = 1;

  pfs::Cluster cluster(cfg);
  cluster.set_observability(&obs);
  std::vector<std::unique_ptr<pfs::Client>> clients;
  for (int r = 0; r < kClients; ++r) clients.push_back(cluster.make_client(r));

  int failures = 0;
  const std::uint64_t handle =
      seed_file(cluster, *clients[0], "/convoy",
                std::vector<std::uint8_t>(kReadBytes, 0x5A), 1, 0, failures);

  const SimTime t0 = cluster.scheduler().now();
  for (int r = 0; r < kClients; ++r) {
    cluster.scheduler().spawn(
        [](pfs::Client& c, std::uint64_t h, int& fail) -> Task<void> {
          std::vector<std::uint8_t> buf(kReadBytes);
          for (int i = 0; i < kReadsPerClient; ++i) {
            Status s = co_await c.read_contig(
                h, 0, buf.data(), static_cast<std::int64_t>(buf.size()));
            if (!s.is_ok()) ++fail;
          }
        }(*clients[r], handle, failures));
  }
  cluster.run();

  Scalars& s = report.scalars;
  s["overload_convoy_sim_seconds"] =
      to_seconds(cluster.scheduler().now() - t0);
  s["overload_convoy_failures"] = failures;
  if (!trace_path.empty() && cluster.write_trace(trace_path)) {
    std::printf("chrome trace (overload convoy): %s\n", trace_path.c_str());
  }
  std::vector<obs::OpBreakdown> ops = obs::decompose_ops(obs.spans);
  std::erase_if(ops, [](const obs::OpBreakdown& op) {
    return op.name != "contig_read";
  });
  obs::PhaseReport phases = obs::summarize_phases(std::move(ops));
  s["overload_convoy_ops"] = static_cast<double>(phases.ops);
  if (const obs::PhaseQuantile* q = phases.quantile(99)) {
    s["overload_convoy_p99_ms"] = q->latency_ns / 1e6;
    s["overload_convoy_coverage_p99"] = q->coverage;
    s["overload_convoy_queue_share_p99"] =
        q->latency_ns <= 0
            ? 0.0
            : q->phase_ns[static_cast<std::size_t>(obs::Phase::kServerQueue)] /
                  q->latency_ns;
  }
  double queue_peak = 0;  // server 0 mailbox depth high-water mark
  for (const auto& series : obs.timeline.all()) {
    if (series->name() == "queue_depth" && series->node() == 0) {
      queue_peak = series->peak_value();
    }
  }
  s["overload_convoy_queue_peak"] = queue_peak;
  report.phases.emplace_back("contig_read", std::move(phases));
  report.add_timeline(obs.timeline);
}

/// Tail-latency ablation (--overload): the same degraded-server scenario
/// with the overload layer (hedged reads + circuit breaker + AIMD window)
/// on vs off, then the instrumented convoy: where does the time go when
/// one server backs up?
void overload_ablation(const std::string& convoy_trace,
                       obs::RunReport& report) {
  Scalars& s = report.scalars;
  run_overload_arm(false, s);
  run_overload_arm(true, s);
  const double on_p99 = s["overload_on_read_p99_us"];
  s["overload_p99_ratio"] =
      on_p99 == 0 ? 0.0 : s["overload_off_read_p99_us"] / on_p99;
  run_overload_convoy(convoy_trace, report);
  print_scalars(s,
                "overload ablation: 100 paced 16 KiB reads, server 1 "
                "degraded 4x for 150 ms, hedging off vs on; convoy of 8 "
                "clients on 1 server with 2 ms decode",
                "overload_");
}

/// One arm of the --cache ablation: datatype tile reads over the same
/// file twice. The populate pass writes the frames through the tile view
/// (giving the bstreams real extents so readahead has an EOF to clamp
/// against), every cache is flushed and dropped via a fleet-wide crash,
/// then a cold pass and a warm pass read identical data. With the cache
/// on the warm pass should be served almost entirely from memory.
void run_cache_arm(const workloads::TileConfig& tile, int frames,
                   bool cache_on, Scalars& s) {
  net::ClusterConfig cfg;  // paper defaults: 16 servers, 64 KiB strips
  cfg.num_clients = tile.num_clients();
  if (cache_on) {
    cfg.server.cache_block_bytes = 64 * 1024;  // one strip per block
    cfg.server.cache_capacity_bytes = 256ull << 20;  // holds the dataset
  }
  pfs::Cluster cluster(cfg);
  Ranks ranks = bench::make_ranks(cluster);
  int failures = 0;
  run_tile_pass(cluster, ranks, tile, frames, /*write=*/true, failures);
  // Make the write pass durable, then drop every cache (a fleet-wide
  // crash+restart) so the first read pass is genuinely cold. Both arms
  // crash so their timelines stay comparable.
  cluster.flush_caches();
  const SimTime t_crash = cluster.scheduler().now() + kMillisecond;
  for (int srv = 0; srv < cfg.num_servers; ++srv) {
    cluster.schedule_server_crash(srv, t_crash, kMillisecond);
  }
  cluster.run();
  const std::uint64_t disk_after_populate =
      cluster.server_stats_total().disk_accesses;
  run_tile_pass(cluster, ranks, tile, frames, /*write=*/false, failures);
  const std::uint64_t disk_after_cold =
      cluster.server_stats_total().disk_accesses;
  run_tile_pass(cluster, ranks, tile, frames, /*write=*/false, failures);
  const pfs::ServerStats st = cluster.server_stats_total();

  const std::string p = cache_on ? "cache_on_" : "cache_off_";
  s[p + "cold_disk_accesses"] =
      static_cast<double>(disk_after_cold - disk_after_populate);
  s[p + "warm_disk_accesses"] =
      static_cast<double>(st.disk_accesses - disk_after_cold);
  s["cache_failures"] += failures;
  if (!cache_on) return;
  const std::uint64_t lookups = st.cache_hits + st.cache_misses;
  s[p + "hits"] = static_cast<double>(st.cache_hits);
  s[p + "misses"] = static_cast<double>(st.cache_misses);
  s[p + "hit_ratio"] = lookups == 0 ? 0.0
                                    : static_cast<double>(st.cache_hits) /
                                          static_cast<double>(lookups);
  s[p + "readahead_issued"] = static_cast<double>(st.cache_readahead_issued);
  s[p + "evictions"] = static_cast<double>(st.cache_evictions);
  s[p + "dirty_flushed_bytes"] =
      static_cast<double>(st.cache_dirty_flushed_bytes);
}

/// Buffer-cache ablation (--cache): the same datatype tile reads with the
/// server block cache on (64 KiB blocks, 256 MiB/server) vs off, each as a
/// cold pass then a warm pass over identical data.
void cache_ablation(const workloads::TileConfig& tile, int frames,
                    Scalars& s) {
  run_cache_arm(tile, frames, false, s);
  run_cache_arm(tile, frames, true, s);
  s["cache_warm_disk_access_ratio"] =
      s["cache_off_warm_disk_accesses"] /
      std::max(s["cache_on_warm_disk_accesses"], 1.0);
  print_scalars(s,
                "cache ablation: datatype reads, cold pass then warm pass, "
                "cache off vs on",
                "cache_");
}

/// One arm of the --replication ablation: a single client doing open-loop
/// paced 16 KiB reads of a 4-server striped file, first over a healthy
/// fleet (the latency baseline), then with server 1 crashed for the whole
/// degraded window. With replication on (r=2) every degraded read fails
/// over to server 1's replica on server 2; with it off, reads that need
/// server 1 burn their retries and fail. The breaker trips on the first
/// timeout and stays open past the outage, so exactly one degraded read
/// pays the full rpc_timeout before failing over — the rest fast-fail
/// straight to the replica and stay near the healthy baseline. The
/// baseline arm (`on` false) records only availability and degraded p99.
void run_replication_arm(int replication, bool on, Scalars& s) {
  constexpr int kHealthyReads = 100;
  constexpr int kDegradedReads = 100;
  constexpr SimTime kPace = 10 * kMillisecond;
  constexpr std::size_t kReadBytes = 16384;  // 4 KiB per server

  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 1;
  cfg.strip_size = 4096;
  cfg.replication = replication;
  // Timeout below the read pace, so the breaker (tripped by the first
  // degraded read's timeout) is already open when the next read issues —
  // exactly one read pays the full timeout before failing over.
  cfg.client.rpc_timeout = 7 * kMillisecond;
  cfg.client.rpc_max_attempts = 4;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  cfg.client.breaker_failures = 1;
  cfg.client.breaker_open_duration = 2 * kSecond;  // outlives the outage
  // Write-back cache so the crash actually loses dirty bytes and the
  // restart resync has something to pull back from the replicas.
  cfg.server.cache_block_bytes = 4096;
  cfg.server.cache_capacity_bytes = 64 * 4096;
  cfg.server.cache_dirty_watermark = 1.0;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);

  // Create + write one stripe-spanning block (quorum-replicated at r>1).
  int healthy_failures = 0;
  const std::uint64_t handle =
      seed_file(cluster, *client, "/repl",
                std::vector<std::uint8_t>(kReadBytes, 0x5A), 1, 0,
                healthy_failures);

  // Phase 1: healthy baseline.
  std::vector<SimTime> healthy(kHealthyReads);
  int healthy_ok = 0;
  paced_reads(cluster, *client, handle, kReadBytes,
              cluster.scheduler().now() + kMillisecond, kPace, healthy,
              healthy_ok, healthy_failures);

  // Phase 2: server 1 down for the entire degraded window, then restart
  // (which triggers resync at r>1); the run drains through recovery.
  const SimTime t_deg = cluster.scheduler().now() + 2 * kMillisecond;
  const SimTime outage = kDegradedReads * kPace + 100 * kMillisecond;
  cluster.schedule_server_crash(1, t_deg - kMillisecond, outage);
  std::vector<SimTime> degraded(kDegradedReads);
  int degraded_ok = 0;
  int degraded_failures = 0;
  paced_reads(cluster, *client, handle, kReadBytes, t_deg, kPace, degraded,
              degraded_ok, degraded_failures);

  const pfs::ServerStats st = cluster.server_stats_total();
  s["repl_crashes"] += static_cast<double>(st.crashes);
  s["repl_healthy_failures"] += healthy_failures;
  const std::string p = on ? "repl_on_" : "repl_off_";
  s[p + "read_availability"] = static_cast<double>(degraded_ok) /
                               static_cast<double>(degraded.size());
  const SimTime degraded_p99 = percentile_exact(degraded, 99);
  s[p + "degraded_p99_us"] = degraded_p99 / 1e3;
  if (!on) return;
  const SimTime healthy_p99 = percentile_exact(healthy, 99);
  s[p + "healthy_p99_us"] = healthy_p99 / 1e3;
  s[p + "degraded_p99_ratio"] =
      healthy_p99 == 0 ? 0.0
                       : static_cast<double>(degraded_p99) /
                             static_cast<double>(healthy_p99);
  s[p + "read_failovers"] = static_cast<double>(client->read_failovers());
  s[p + "breaker_fast_fails"] =
      static_cast<double>(client->breaker_fast_fails());
  s[p + "quorum_writes"] = static_cast<double>(client->quorum_writes());
  s[p + "resyncs"] = static_cast<double>(st.resyncs);
  s[p + "resync_bytes_pulled"] = static_cast<double>(st.resync_bytes_pulled);
}

/// Degraded-read ablation (--replication): open-loop paced reads with one
/// server crashed for the whole window, replication off (r=1) vs on
/// (--replication-r=N, default 2; N=1 degenerates to a second
/// unreplicated arm that must reproduce the baseline arm exactly). CI
/// asserts 100% read availability at r>1 with degraded p99 within 3x of
/// the healthy baseline.
void replication_ablation(int repl_r, Scalars& s) {
  s["repl_factor"] = repl_r;
  run_replication_arm(1, false, s);
  run_replication_arm(repl_r, true, s);
  print_scalars(s,
                "replication ablation: 100 paced 16 KiB reads, server 1 "
                "crashed for the window, r=1 vs r=repl_factor",
                "repl_");
}

/// One arm of the --media-faults ablation: every even-indexed server's
/// disk silently rots 0.5% of written strips and poisons 0.2% as latent
/// sector errors, with per-page checksums and the background scrubber
/// on. A 32 MiB file is written in 1 MiB chunks and read back chunk by
/// chunk. At r=2 every read must detect, repair from a ring replica, and
/// return exact bytes — and by the time the run drains the scrubber has
/// converged every store (primary and replica segments) back to
/// verifiably clean. At r=1 the same faults surface as typed kDataLoss on
/// exactly the affected chunks; the client's data_loss_fast_fail stops it
/// from burning the retry budget against an error that cannot clear.
void run_media_arm(int replication, bool on, Scalars& s) {
  constexpr int kChunks = 32;
  constexpr std::int64_t kChunkBytes = 1 << 20;  // 1 MiB

  net::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.num_clients = 1;
  cfg.strip_size = 4096;
  cfg.replication = replication;
  // A 1 MiB chunk takes ~90 ms on the 11.5 MiB/s client link (twice that
  // with a replica fan-out), so the timeout must sit well above it.
  cfg.client.rpc_timeout = kSecond;
  cfg.client.rpc_max_attempts = 5;
  cfg.client.rpc_backoff_base = 2 * kMillisecond;
  cfg.client.data_loss_fast_fail = 2;
  cfg.server.block_checksums = true;
  cfg.server.scrub_interval = 10 * kMillisecond;
  pfs::Cluster cluster(cfg);
  // Rotting disks on the even-indexed servers only: with ring replication
  // a strip's primary and its replica land on adjacent servers, so no
  // strip ever loses both copies — the repair path is exercised hard but
  // r=2 can (and must) hold 100% read success. Per-strip write granularity
  // means the per-page corruption density is ~16x the per-write rate.
  net::FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xD15C));
  for (int srv = 0; srv < cfg.num_servers; srv += 2) {
    plan.set_disk_spec(srv, net::DiskFaultSpec{.bit_rot = 0.005,
                                               .sector_error = 0.002});
  }
  cluster.set_fault_plan(&plan);
  auto client = cluster.make_client(0);

  std::vector<std::uint8_t> chunk(static_cast<std::size_t>(kChunkBytes));
  Rng fill(4096);
  for (auto& b : chunk) b = static_cast<std::uint8_t>(fill.next());
  int failures = 0;
  const std::uint64_t handle =
      seed_file(cluster, *client, "/media", chunk, kChunks, 0, failures);

  int reads_ok = 0;
  int reads_lost = 0;
  cluster.scheduler().spawn(
      [](pfs::Client& c, std::uint64_t h, int& ok, int& lost,
         int& fail) -> Task<void> {
        std::vector<std::uint8_t> buf(static_cast<std::size_t>(kChunkBytes));
        for (int i = 0; i < kChunks; ++i) {
          Status r = co_await c.read_contig(h, i * kChunkBytes, buf.data(),
                                            kChunkBytes);
          if (r.is_ok()) {
            ++ok;
          } else if (r.code() == StatusCode::kDataLoss) {
            ++lost;
          } else {
            ++fail;
          }
        }
      }(*client, handle, reads_ok, reads_lost, failures));
  cluster.run();  // drains through the scrubber's final clean cycle

  std::uint64_t rotted = 0;
  std::uint64_t poisoned = 0;
  std::uint64_t residual_bad = 0;  // pages still failing verify at the end
  for (int srv = 0; srv < cfg.num_servers; ++srv) {
    rotted += cluster.server(srv).media().pages_rotted;
    poisoned += cluster.server(srv).media().pages_poisoned;
    if (const pfs::Bstream* bs = cluster.server(srv).find_bstream(handle)) {
      residual_bad += bs->verify_range(0, bs->size()).size();
    }
    for (int peer = 0; peer < cfg.num_servers; ++peer) {
      if (const pfs::Bstream* bs =
              cluster.server(srv).find_replica_bstream(handle, peer)) {
        residual_bad += bs->verify_range(0, bs->size()).size();
      }
    }
  }
  const pfs::ServerStats st = cluster.server_stats_total();
  const std::string p = on ? "media_on_" : "media_off_";
  s["media_failures"] += failures;
  s[p + "reads_ok"] = reads_ok;
  s[p + "reads_lost"] = reads_lost;
  s[p + "pages_rotted"] = static_cast<double>(rotted);
  s[p + "pages_poisoned"] = static_cast<double>(poisoned);
  s[p + "detected"] = static_cast<double>(st.media_sector_errors +
                                          st.media_bit_rot_detected +
                                          st.media_torn_detected);
  s[p + "server_data_loss"] = static_cast<double>(st.media_data_loss);
  s[p + "client_data_loss"] = static_cast<double>(client->data_loss_surfaced());
  s[p + "residual_bad_pages"] = static_cast<double>(residual_bad);
  if (!on) {
    s[p + "scrub_errors"] = static_cast<double>(st.scrub_errors);
    return;
  }
  s[p + "repairs"] =
      static_cast<double>(st.media_repairs + st.scrub_repairs);
  s[p + "scrub_passes"] = static_cast<double>(st.scrub_passes);
  s[p + "scrub_blocks"] = static_cast<double>(st.scrub_blocks);
}

/// Storage-integrity ablation (--media-faults): 32 MiB written and read
/// back under 0.5% bit rot + 0.2% latent sector errors on the even-indexed
/// disks, with checksums and the scrubber on, r=1 vs r=2 (--media-r=N).
/// CI asserts 100% read success and zero residual bad pages at r=2, and
/// typed-loss accounting (every lost read booked as kDataLoss on both
/// sides) at r=1.
void media_ablation(int media_r, Scalars& s) {
  s["media_factor"] = media_r;
  run_media_arm(1, false, s);
  run_media_arm(media_r, true, s);
  print_scalars(s,
                "media-fault ablation: 32 MiB, 0.5% bit rot + 0.2% LSE on "
                "even-indexed disks, checksums + scrub on, r=1 vs "
                "r=media_factor",
                "media_");
}

int tile_main(int argc, char** argv) {
  const workloads::TileConfig tile;
  const std::int64_t frames_flag =
      bench::flag_int(argc, argv, "--frames", 100);
  if (frames_flag < 1 || frames_flag > INT_MAX) {
    std::fprintf(stderr, "error: --frames must be between 1 and %d, got %lld\n",
                 INT_MAX, static_cast<long long>(frames_flag));
    return 2;
  }
  const int frames = static_cast<int>(frames_flag);
  const bool use_obs = bench::obs_enabled(argc, argv);
  // --trace=PATH exports the datatype-I/O run as a Chrome trace-event
  // file (the paper's contribution is the most interesting timeline).
  const std::string trace_path = bench::flag_str(argc, argv, "--trace", "");

  std::printf("tile reader: %dx%d tiles of %dx%d px, frame %.1f MB, "
              "%d frames, %d clients, 16 I/O servers\n",
              tile.tiles_x, tile.tiles_y, tile.tile_width, tile.tile_height,
              bench::to_mb(static_cast<double>(tile.frame_bytes())), frames,
              tile.num_clients());

  const Method methods[] = {Method::kPosix, Method::kDataSieving,
                            Method::kTwoPhase, Method::kList,
                            Method::kDatatype};
  std::vector<MethodResult> results;
  for (const Method m : methods) {
    results.push_back(run_tile(m, tile, frames, use_obs,
                               m == Method::kDatatype ? trace_path : ""));
  }

  bench::print_figure_header(
      "Figure 8: tile reader aggregate read bandwidth");
  for (const auto& r : results) bench::print_figure_row(r);
  std::printf("  paper shape: datatype > two-phase > list >> sieving > "
              "POSIX; datatype ~37%% over list\n");

  if (bench::flag_set(argc, argv, "--csv")) {
    std::printf("\ncsv,method,agg_mbps,sim_sec\n");
    for (const auto& r : results) {
      if (!r.supported()) continue;
      std::printf("csv,%s,%.3f,%.3f\n",
                  std::string(mpiio::method_name(r.method)).c_str(),
                  bench::to_mb(r.bandwidth), r.seconds);
    }
  }

  bench::print_table_header(
      "Table 1: I/O characteristics per client per frame");
  for (const auto& r : results) bench::print_table_row(r);
  std::printf("  paper: POSIX 768 ops; sieving 5.56 MB accessed; two-phase "
              "1 op, 1.50 MB resent; list 12 ops; datatype 1 op\n");

  obs::RunReport report;
  report.bench = "tile_reader";
  report.params["frames"] = frames;
  report.params["clients"] = tile.num_clients();
  report.params["frame_bytes"] = static_cast<double>(tile.frame_bytes());
  for (const auto& r : results) report.methods.push_back(bench::to_report(r));

  pruned_ablation(tile, frames, report.scalars);
  if (bench::flag_set(argc, argv, "--chaos")) {
    chaos_ablation(tile, frames, report.scalars);
  }
  if (bench::flag_set(argc, argv, "--overload")) {
    const std::string convoy_trace =
        bench::flag_str(argc, argv, "--trace-overload", "trace_overload.json");
    overload_ablation(use_obs ? convoy_trace : "", report);
  }
  if (bench::flag_set(argc, argv, "--cache")) {
    cache_ablation(tile, frames, report.scalars);
  }
  if (bench::flag_set(argc, argv, "--replication")) {
    replication_ablation(static_cast<int>(bench::flag_int(
                             argc, argv, "--replication-r", 2)),
                         report.scalars);
  }
  if (bench::flag_set(argc, argv, "--media-faults")) {
    media_ablation(
        static_cast<int>(bench::flag_int(argc, argv, "--media-r", 2)),
        report.scalars);
  }

  bench::write_report(report, argc, argv, "BENCH_tile_reader.json");
  return 0;
}

}  // namespace
}  // namespace dtio

int main(int argc, char** argv) { return dtio::tile_main(argc, argv); }
