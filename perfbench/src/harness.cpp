#include "harness.h"

#include <algorithm>

#include "collective/comm.h"
#include "io/view.h"

namespace perfbench {

using dtio::SimTime;
using dtio::Status;
using dtio::sim::Task;

const char* method_key(Method method) {
  switch (method) {
    case Method::kPosix: return "posix";
    case Method::kDataSieving: return "sieving";
    case Method::kTwoPhase: return "two_phase";
    case Method::kList: return "list";
    case Method::kDatatype: return "datatype";
  }
  return "unknown";
}

void ClusterCounts::add(const ClusterCounts& o) {
  events += o.events;
  messages += o.messages;
  wire_bytes += o.wire_bytes;
  link_busy_max = std::max(link_busy_max, o.link_busy_max);
  clients += o.clients;
  srv_requests += o.srv_requests;
  regions_walked += o.regions_walked;
  dataloops_decoded += o.dataloops_decoded;
  dataloop_cache_hits += o.dataloop_cache_hits;
  disk_accesses += o.disk_accesses;
  disk_busy_max = std::max(disk_busy_max, o.disk_busy_max);
  cpu_busy_max = std::max(cpu_busy_max, o.cpu_busy_max);
  max_backlog = std::max(max_backlog, o.max_backlog);
  if (shard_ops.size() < o.shard_ops.size()) shard_ops.resize(o.shard_ops.size());
  for (std::size_t s = 0; s < o.shard_ops.size(); ++s) shard_ops[s] += o.shard_ops[s];
  lock_waits += o.lock_waits;
}

ClusterCounts collect_counts(
    dtio::pfs::Cluster& cluster,
    const std::vector<std::unique_ptr<dtio::pfs::Client>>& clients) {
  ClusterCounts c;
  const double elapsed = static_cast<double>(cluster.scheduler().now());
  const auto busy = [elapsed](const dtio::sim::Resource& r) {
    return elapsed > 0 ? r.busy_integral() /
                             (elapsed * static_cast<double>(r.capacity()))
                       : 0.0;
  };
  c.events = cluster.scheduler().events_processed();
  dtio::net::Network& net = cluster.network();
  c.messages = net.total_messages();
  c.wire_bytes = net.total_wire_bytes();
  for (int node = 0; node < cluster.config().total_nodes(); ++node) {
    c.link_busy_max = std::max(
        {c.link_busy_max, busy(net.tx_link(node)), busy(net.rx_link(node))});
  }
  if (net.fabric() != nullptr) {
    c.link_busy_max = std::max(c.link_busy_max, busy(*net.fabric()));
  }
  for (const auto& client : clients) c.clients += client->stats();
  const int servers = cluster.config().num_servers;
  const int shards = std::clamp(cluster.config().meta_shards, 1, servers);
  for (int s = 0; s < servers; ++s) {
    dtio::pfs::IOServer& server = cluster.server(s);
    const dtio::pfs::ServerStats& st = server.stats();
    c.srv_requests += st.requests;
    c.regions_walked += st.regions_walked;
    c.dataloops_decoded += st.dataloops_decoded;
    c.dataloop_cache_hits += st.dataloop_cache_hits;
    c.disk_accesses += st.disk_accesses;
    c.disk_busy_max = std::max(c.disk_busy_max, busy(server.disk()));
    c.cpu_busy_max = std::max(c.cpu_busy_max, busy(server.cpu()));
    c.max_backlog = std::max(c.max_backlog, st.max_backlog);
    if (s < shards) c.shard_ops.push_back(st.meta_ops);
    c.lock_waits += st.lock_waits;
  }
  return c;
}

void ObsCounts::add(const ObsCounts& o) {
  spans_recorded += o.spans_recorded;
  spans_dropped += o.spans_dropped;
  tp_rounds += o.tp_rounds;
  lock_wait_sim_ms.insert(lock_wait_sim_ms.end(), o.lock_wait_sim_ms.begin(),
                          o.lock_wait_sim_ms.end());
  for (std::size_t p = 0; p < phase_ns.size(); ++p) phase_ns[p] += o.phase_ns[p];
}

ObsCounts collect_obs(const dtio::obs::Observability& obs) {
  ObsCounts o;
  o.spans_recorded = obs.spans.spans().size();
  o.spans_dropped = obs.spans.dropped();
  o.tp_rounds = obs.metrics.counter_total("tp_rounds_total");
  for (const dtio::obs::Span& span : obs.spans.spans()) {
    if (span.end < span.start) continue;
    const double dur = static_cast<double>(span.end - span.start);
    if (span.name == "lock_wait") o.lock_wait_sim_ms.push_back(dur / 1e6);
    o.phase_ns[static_cast<std::size_t>(span.phase)] += dur;
  }
  return o;
}

namespace {

/// Everything one rank's process needs, owned by run_collective and
/// passed by reference (coroutine parameters stay trivially destructible).
struct RankJob {
  dtio::mpiio::File* file = nullptr;
  dtio::coll::Communicator* comm = nullptr;
  const Pattern* pattern = nullptr;
  dtio::sim::Scheduler* sched = nullptr;
  int rank = 0;
  Method method = Method::kPosix;
  std::uint8_t* buffer = nullptr;
  OpTally* tally = nullptr;
  Window* window = nullptr;
  std::vector<double>* latencies = nullptr;
  SpanLog* spans = nullptr;
  std::uint64_t parent = 0;
};

Task<void> rank_main(RankJob& job) {
  const Pattern& p = *job.pattern;
  const SimTime start = job.sched->now();
  if (job.rank != 0) {
    const Status s = co_await job.file->open(p.path, false);
    if (!job.tally->record(s)) co_return;
  }
  job.file->set_view(p.displacements[static_cast<std::size_t>(job.rank)],
                     dtio::types::byte_t(),
                     p.filetypes[static_cast<std::size_t>(job.rank)]);
  const char* name = p.write ? "mpiio.write_at_all" : "mpiio.read_at_all";
  for (int k = 0; k < p.calls; ++k) {
    std::uint8_t* buf =
        job.buffer == nullptr ? nullptr : job.buffer + k * p.bytes_per_call;
    const std::uint64_t span =
        job.spans == nullptr
            ? 0
            : job.spans->begin(name, job.parent, job.spans->new_op(),
                               job.sched->now());
    const SimTime t0 = job.sched->now();
    // (No co_await inside a conditional expression: GCC 12 miscompiles it.)
    Status s;
    if (p.write) {
      s = co_await job.file->write_at_all(*job.comm, job.rank,
                                          k * p.call_stride, buf, 1, p.memtype,
                                          job.method);
    } else {
      s = co_await job.file->read_at_all(*job.comm, job.rank,
                                         k * p.call_stride, buf, 1, p.memtype,
                                         job.method);
    }
    job.latencies->push_back(static_cast<double>(job.sched->now() - t0) / 1e6);
    if (job.spans != nullptr) job.spans->end(span, job.sched->now());
    if (!job.tally->record(s)) break;
  }
  job.window->add(start, job.sched->now());
}

Task<void> create_file(dtio::mpiio::File& file, const Pattern& p,
                       const std::vector<std::uint8_t>* preload,
                       dtio::pfs::Client& client, OpTally& tally) {
  // Statuses are bound to locals before use: GCC 12 mishandles a co_await
  // nested in a call argument.
  const Status opened = co_await file.open(p.path, true);
  if (!tally.record(opened) || preload == nullptr) co_return;
  const Status wrote = co_await client.write_contig(
      file.handle(), 0, preload->data(),
      static_cast<std::int64_t>(preload->size()));
  tally.record(wrote);
}

Task<void> read_image(dtio::pfs::Client& client, std::uint64_t handle,
                      std::vector<std::uint8_t>& image, OpTally& tally) {
  const Status read = co_await client.read_contig(
      handle, 0, image.data(), static_cast<std::int64_t>(image.size()));
  tally.record(read);
}

}  // namespace

MethodRun run_collective(const dtio::net::ClusterConfig& cfg,
                         const std::function<Pattern()>& make, Method method,
                         const Tracing& tracing, OpTally& tally,
                         const DataPlan& data) {
  MethodRun run;
  run.method = method_key(method);
  SpanLog* log = tracing.spans;
  const std::uint64_t op = log == nullptr ? 0 : log->new_op();

  // ---- Set-up: cluster and client assembly, datatypes, file create. -------
  const std::int64_t setup_start = host_now_ns();
  const std::uint64_t setup_span =
      log == nullptr ? 0 : log->begin("setup", tracing.parent, op, 0);
  dtio::pfs::Cluster cluster(cfg);
  dtio::obs::Observability obs(std::size_t{1} << 18);
  if (log != nullptr) cluster.set_observability(&obs);
  const int nranks = cfg.num_clients;
  dtio::coll::Communicator comm(cluster.scheduler(), cluster.network(),
                                cluster.config(), nranks);
  std::vector<std::unique_ptr<dtio::pfs::Client>> clients;
  std::vector<std::unique_ptr<dtio::io::Context>> contexts;
  std::vector<std::unique_ptr<dtio::mpiio::File>> files;
  for (int r = 0; r < nranks; ++r) {
    clients.push_back(cluster.make_client(r));
    clients.back()->set_transfer_data(data.buffers != nullptr);
    contexts.push_back(std::make_unique<dtio::io::Context>(dtio::io::Context{
        cluster.scheduler(), *clients.back(), cluster.config()}));
    files.push_back(std::make_unique<dtio::mpiio::File>(*contexts.back()));
  }
  const std::uint64_t types_span =
      log == nullptr ? 0 : log->begin("types.construct", setup_span, op, 0);
  const Pattern pattern = make();
  (void)pattern.memtype.dataloop();
  for (const auto& t : pattern.filetypes) (void)t.dataloop();
  if (log != nullptr) log->end(types_span, 0);
  const std::uint64_t create_span =
      log == nullptr ? 0 : log->begin("cluster.run:create", setup_span, op, 0);
  cluster.scheduler().spawn(
      create_file(*files[0], pattern, data.preload, *clients[0], tally));
  cluster.run();
  if (log != nullptr) {
    log->end(create_span, cluster.scheduler().now());
    log->end(setup_span, cluster.scheduler().now());
  }
  run.setup_host_s = host_since_s(setup_start);

  // ---- Timed: every rank's calls, one cluster.run(). ------------------------
  std::vector<RankJob> jobs(static_cast<std::size_t>(nranks));
  const std::uint64_t run_span =
      log == nullptr
          ? 0
          : log->begin(std::string("cluster.run:") + run.method,
                       tracing.parent, op, cluster.scheduler().now());
  const std::int64_t run_start = host_now_ns();
  for (int r = 0; r < nranks; ++r) {
    RankJob& job = jobs[static_cast<std::size_t>(r)];
    job.file = files[static_cast<std::size_t>(r)].get();
    job.comm = &comm;
    job.pattern = &pattern;
    job.sched = &cluster.scheduler();
    job.rank = r;
    job.method = method;
    job.buffer = data.buffers == nullptr
                     ? nullptr
                     : (*data.buffers)[static_cast<std::size_t>(r)].data();
    job.tally = &tally;
    job.window = &run.window;
    job.latencies = &run.op_sim_ms;
    job.spans = log;
    job.parent = run_span;
    cluster.scheduler().spawn(rank_main(job));
  }
  cluster.run();
  run.run_host_s = host_since_s(run_start);
  if (log != nullptr) log->end(run_span, cluster.scheduler().now());

  run.calls_per_rank = static_cast<std::uint64_t>(pattern.calls);
  run.calls_total = run.calls_per_rank * static_cast<std::uint64_t>(nranks);
  run.path_ops = static_cast<std::uint64_t>(nranks);  // one create, the opens
  run.desired_bytes = static_cast<double>(pattern.bytes_per_call) *
                      pattern.calls * nranks;
  run.rank0 = clients[0]->stats();
  run.counts = collect_counts(cluster, clients);
  if (log != nullptr) run.obs = collect_obs(obs);

  if (data.file_image != nullptr) {
    cluster.scheduler().spawn(read_image(*clients[0], files[0]->handle(),
                                         *data.file_image, tally));
    cluster.run();
  }
  return run;
}

dtio::io::JointWalker pattern_walker(const Pattern& p, int rank, int call) {
  const auto r = static_cast<std::size_t>(rank);
  const dtio::io::FileView view{p.displacements[r], dtio::types::byte_t(),
                                p.filetypes[r]};
  const dtio::io::StreamWindow window =
      dtio::io::make_window(view, call * p.call_stride, p.bytes_per_call);
  return dtio::io::JointWalker(dtio::io::make_mem_cursor(p.memtype, 1),
                               dtio::io::make_file_cursor(view, window));
}

void walk_pattern(const Pattern& p, int rank, int call,
                  const std::function<void(std::int64_t, std::int64_t,
                                           std::int64_t)>& fn) {
  dtio::io::JointWalker walker = pattern_walker(p, rank, call);
  dtio::io::JointWalker::Piece piece;
  while (walker.next(piece)) fn(piece.mem_offset, piece.file_offset, piece.length);
}

double host_ns_per_unit(const std::function<std::uint64_t()>& fn) {
  constexpr double kMinSeconds = 0.02;
  std::uint64_t units = 0;
  const std::int64_t start = host_now_ns();
  double elapsed = 0;
  do {
    units += fn();
    elapsed = host_since_s(start);
  } while (elapsed < kMinSeconds);
  return units == 0 ? 0 : elapsed * 1e9 / static_cast<double>(units);
}

}  // namespace perfbench
