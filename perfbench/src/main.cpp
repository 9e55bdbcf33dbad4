// Two-clock benchmark of the simulated PVFS/ROMIO stack.
//
//   perfbench --workload tile_read|flash_write|meta_storm --seed N
//             --seconds S --trace 0|1 [--spans-out PATH]
//
// --trace 0 repeats untraced passes of the workload for S host seconds and
// reports the end-to-end metrics: host wall time of the timed phase,
// events/s, peak RSS and set-up time (medians over passes), plus the
// simulated bandwidth and call rate (deterministic). --trace 1 alternates
// untraced and traced passes (program observability attached, benchmark
// spans recorded) and reports the per-layer metrics. Both print every
// metric as "metric <name> <value> <unit>" lines, check outputs against
// the paper's tables and a byte-level oracle, and end with one JSON line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

// ---- Iteration ------------------------------------------------------------------

double Iteration::setup_host_s() const {
  double s = 0;
  for (const auto& r : runs) s += r.setup_host_s;
  return s;
}
double Iteration::run_host_s() const {
  double s = 0;
  for (const auto& r : runs) s += r.run_host_s;
  return s;
}
std::uint64_t Iteration::events() const { return counts().events; }
std::uint64_t Iteration::path_ops() const {
  std::uint64_t n = 0;
  for (const auto& r : runs) n += r.path_ops;
  return n;
}
std::uint64_t Iteration::small_files() const {
  std::uint64_t n = 0;
  for (const auto& r : runs) n += r.small_files;
  return n;
}
double Iteration::window_s() const {
  double s = 0;
  for (const auto& r : runs) s += r.window.seconds();
  return s;
}
double Iteration::sim_bw_mb_s() const {
  double log_sum = 0;
  for (const auto& r : runs) {
    log_sum += std::log(bandwidth_mb_s(r.desired_bytes, r.window));
  }
  return std::exp(log_sum / static_cast<double>(runs.size()));
}
double Iteration::sim_ops_per_s() const {
  double log_sum = 0;
  for (const auto& r : runs) {
    log_sum += std::log(static_cast<double>(r.calls_total) / r.window.seconds());
  }
  return std::exp(log_sum / static_cast<double>(runs.size()));
}
ClusterCounts Iteration::counts() const {
  ClusterCounts c;
  for (const auto& r : runs) c.add(r.counts);
  return c;
}
ObsCounts Iteration::obs() const {
  ObsCounts o;
  for (const auto& r : runs) o.add(r.obs);
  return o;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload* w : {&kTileRead, &kFlashWrite, &kMetaStorm}) {
    if (name == w->name) return w;
  }
  return nullptr;
}

namespace {

constexpr Method kAllMethods[] = {Method::kPosix, Method::kDataSieving,
                                  Method::kTwoPhase, Method::kList,
                                  Method::kDatatype};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      a.workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      a.seconds = std::atof(val);
    } else if (std::strcmp(key, "--trace") == 0) {
      a.trace = std::atoi(val);
    } else if (std::strcmp(key, "--spans-out") == 0) {
      a.spans_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

/// Prints "metric <name> <value> <unit>" lines and collects the ones that
/// go into the final JSON line.
class Output {
 public:
  void text(const std::string& name, double value, const char* unit,
            const std::string& note = "") {
    std::printf("metric %-40s %.6g %s%s%s\n", name.c_str(), value, unit,
                note.empty() ? "" : "  ", note.c_str());
  }
  void json(const std::string& name, double value, const char* unit,
            const std::string& note = "") {
    text(name, value, unit, note);
    json_[name] = {value, unit};
  }
  void finish(const OpTally& tally) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted()),
                static_cast<unsigned long long>(tally.failed()));
    bool first = true;
    for (const auto& [name, m] : json_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.first, m.second);
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  std::map<std::string, std::pair<double, const char*>> json_;
};

const MethodRun* find_run(const Iteration& it, Method m) {
  for (const auto& r : it.runs) {
    if (r.method == method_key(m)) return &r;
  }
  return nullptr;
}

/// The paper/EXPERIMENTS.md reference printed beside a simulated metric.
std::string reference(const std::string& workload, Method m) {
  static const std::map<std::string, const char*> refs = {
      {"tile_read/posix", "EXPERIMENTS Fig 8 (100 frames): 7.4; paper: worst"},
      {"tile_read/sieving", "EXPERIMENTS Fig 8: 20.1"},
      {"tile_read/two_phase", "EXPERIMENTS Fig 8: 32.0"},
      {"tile_read/list", "EXPERIMENTS Fig 8: 48.3"},
      {"tile_read/datatype", "EXPERIMENTS Fig 8: 44.2; paper: 1.37x list"},
      {"flash_write/two_phase", "EXPERIMENTS Fig 12 @16: 25.6"},
      {"flash_write/list", "EXPERIMENTS Fig 12 @16: 4.3"},
      {"flash_write/datatype",
       "EXPERIMENTS Fig 12 @16: 26.6; paper crossover at 48-96 clients"},
  };
  const auto it = refs.find(workload + "/" + method_key(m));
  return it == refs.end() ? "" : it->second;
}

/// Structural checks on every pass, plus exact repetition of the
/// simulated results across passes (determinism).
void check_passes(const Workload& w, const std::vector<Iteration>& its,
                  OpTally& tally, std::string& log) {
  for (std::size_t i = 0; i < its.size(); ++i) {
    std::string scratch;
    w.check(its[i], tally, i == 0 ? log : scratch);
    const bool same = its[i].events() == its[0].events() &&
                      its[i].window_s() == its[0].window_s();
    tally.check(same);
    if (!same) log += "check simulated results differ between passes\n";
  }
}

// ---- --trace 0 ------------------------------------------------------------------

int run_end_to_end(const Workload& w, const Args& a) {
  OpTally tally;
  std::vector<Iteration> its;
  const std::int64_t start = host_now_ns();
  // Peak RSS after one pass: the program does not give back everything a
  // pass allocates, so later passes would make it depend on run length.
  double rss_first = 0;
  do {
    its.push_back(w.iterate(a.seed, Tracing{}, tally));
    if (its.size() == 1) rss_first = peak_rss_mib();
  } while (host_since_s(start) < a.seconds);
  const double rss_last = peak_rss_mib();
  std::string log;
  check_passes(w, its, tally, log);
  w.verify(a.seed, tally, log);

  std::vector<double> wall, setup;
  for (const auto& it : its) {
    wall.push_back(it.run_host_s());
    setup.push_back(it.setup_host_s());
  }
  const Iteration& it = its.front();
  std::printf("workload %s seed %llu: %zu passes in %.2f host s\n", w.name,
              static_cast<unsigned long long>(a.seed), its.size(),
              host_since_s(start));
  std::printf("%s", log.c_str());

  Output out;
  out.json("wall_s", median(wall), "s", "host, timed phase, median of passes");
  out.text("wall_s.min", *std::min_element(wall.begin(), wall.end()), "s",
           "host, fastest pass");
  out.json("events_per_s", static_cast<double>(it.events()) / median(wall),
           "events/s", "host, over the median pass");
  out.json("peak_rss_mb", rss_first, "MiB", "host, after the first pass");
  if (its.size() > 1) {
    out.text("rss_growth_mb_per_pass",
             (rss_last - rss_first) / static_cast<double>(its.size() - 1),
             "MiB", "host, peak RSS growth over the later passes");
  }
  out.json("setup_s", median(setup), "s",
           "host, assembly + types + create, median of passes");
  out.json("sim_bw_mb_s", it.sim_bw_mb_s(), "MB/s",
           "sim, geometric mean over methods");
  out.json("sim_ops_per_s", it.sim_ops_per_s(), "ops/s",
           "sim, client calls per window, geometric mean over methods");
  for (const Method m : kAllMethods) {
    const MethodRun* r = find_run(it, m);
    if (r == nullptr) continue;
    out.text(std::string("sim_bw_") + r->method + "_mb_s",
             bandwidth_mb_s(r->desired_bytes, r->window), "MB/s",
             "sim; " + reference(w.name, m));
  }
  const MethodRun* list = find_run(it, Method::kList);
  const MethodRun* dt = find_run(it, Method::kDatatype);
  if (list != nullptr && dt != nullptr) {
    // Both methods move the same bytes, so the bandwidth ratio is the
    // inverse ratio of their windows.
    out.text("sim_bw_datatype_over_list",
             list->window.seconds() / dt->window.seconds(), "ratio",
             std::string(w.name) == "tile_read" ? "sim; paper 1.37" : "sim");
  }
  if (const MethodRun& storm = it.runs.front(); storm.method == kMetaStorm.name) {
    const std::vector<double>& lat = storm.op_sim_ms;
    out.text("sim_meta_ops_per_s",
             static_cast<double>(lat.size()) / storm.window.seconds(), "ops/s",
             "sim");
    out.text("sim_meta_op_p50_ms", percentile(lat, 50), "ms", "sim");
    char note[96];
    std::snprintf(note, sizeof note, "sim; n=%zu, %zu beyond", lat.size(),
                  samples_beyond(lat.size(), 99));
    out.text("sim_meta_op_p99_ms", percentile(lat, 99), "ms", note);
  }
  out.text("error_rate", tally.error_rate(), "fraction",
           "failed or wrong ops / attempted");
  out.finish(tally);
  return tally.failed() == 0 ? 0 : 1;
}

// ---- --trace 1 ------------------------------------------------------------------

int run_traced(const Workload& w, const Args& a) {
  OpTally tally;
  // Every traced pass records spans; only the first pass's are kept (the
  // per-layer counts come from it), so memory does not grow with passes.
  SpanLog spans;
  std::vector<Iteration> plain, traced;
  const std::int64_t start = host_now_ns();
  do {
    plain.push_back(w.iterate(a.seed, Tracing{}, tally));
    SpanLog later;
    SpanLog& log = traced.empty() ? spans : later;
    const std::uint64_t root = log.begin("pass", 0, log.new_op(), 0);
    traced.push_back(w.iterate(a.seed, Tracing{&log, root}, tally));
    log.end(root, 0);
  } while (host_since_s(start) < a.seconds);
  std::string log;
  check_passes(w, plain, tally, log);
  std::string traced_log;  // same checks, already printed for plain passes
  check_passes(w, traced, tally, traced_log);
  // Tracing must not perturb the simulation.
  const bool unperturbed = plain[0].events() == traced[0].events() &&
                           plain[0].window_s() == traced[0].window_s();
  tally.check(unperturbed);
  if (!unperturbed) log += "check tracing changed the simulated results\n";

  const std::uint64_t layers_span = spans.begin("standalone.layers", 0, spans.new_op(), 0);
  const LayerTimings lt = w.layers();
  spans.end(layers_span, 0);
  const std::uint64_t verify_span = spans.begin("verify", 0, spans.new_op(), 0);
  w.verify(a.seed, tally, log);
  spans.end(verify_span, 0);

  std::printf("workload %s seed %llu: %zu untraced + %zu traced passes\n",
              w.name, static_cast<unsigned long long>(a.seed), plain.size(),
              traced.size());
  std::printf("%s", log.c_str());

  const Iteration& t = traced.front();
  const ClusterCounts c = t.counts();
  const ObsCounts o = t.obs();
  std::vector<double> ns_per_event, overhead, wall;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    wall.push_back(plain[i].run_host_s());
    ns_per_event.push_back(plain[i].run_host_s() * 1e9 /
                           static_cast<double>(plain[i].events()));
    overhead.push_back(traced[i].run_host_s() / plain[i].run_host_s());
  }
  const double wall_s = median(wall);

  Output out;
  // sim
  out.json("sim.events", static_cast<double>(c.events), "count");
  out.json("sim.host_ns_per_event", median(ns_per_event), "ns", "host");
  // net
  out.json("net.messages", static_cast<double>(c.messages), "count");
  out.json("net.wire_bytes", static_cast<double>(c.wire_bytes), "B");
  out.json("net.link_busy_max", c.link_busy_max, "fraction", "sim");
  // pfs client
  out.json("pfs.client.requests", static_cast<double>(c.clients.requests_sent), "count");
  out.json("pfs.client.request_bytes", static_cast<double>(c.clients.request_bytes), "B");
  out.json("pfs.client.regions", static_cast<double>(c.clients.regions_client), "count");
  // pfs server
  out.json("pfs.server.requests", static_cast<double>(c.srv_requests), "count");
  out.json("pfs.server.regions_walked", static_cast<double>(c.regions_walked), "count");
  const double lookups =
      static_cast<double>(c.dataloop_cache_hits + c.dataloops_decoded);
  out.json("pfs.server.dataloop_cache_hit_ratio",
           lookups > 0 ? static_cast<double>(c.dataloop_cache_hits) / lookups : 0,
           "fraction");
  out.json("pfs.server.disk_accesses", static_cast<double>(c.disk_accesses), "count");
  out.json("pfs.server.disk_busy_max", c.disk_busy_max, "fraction", "sim");
  out.json("pfs.server.cpu_busy_max", c.cpu_busy_max, "fraction", "sim");
  out.json("pfs.server.max_backlog", static_cast<double>(c.max_backlog), "count");
  // types, dataloop, layout, shard map: standalone host timings
  out.json("types.to_dataloop_us", lt.to_dataloop_us, "us", "host, standalone");
  out.json("dataloop.flatten_ns_per_region", lt.flatten_ns_per_region, "ns",
           "host, standalone JointWalker::next");
  out.json("dataloop.codec_us", lt.codec_us, "us", "host, standalone encode+decode");
  out.json("dataloop.encoded_bytes", lt.encoded_bytes, "B");
  out.json("layout.place_ns", lt.place_ns, "ns", "host, standalone FileLayout::place");
  out.json("meta.shard_of_path_ns", lt.shard_of_path_ns, "ns",
           "host, standalone ShardMap::shard_of_path");
  // collective
  const MethodRun* tp = find_run(t, Method::kTwoPhase);
  out.json("collective.resent_mb_per_client",
           tp == nullptr ? 0
                         : static_cast<double>(tp->rank0.resent_bytes) / 1e6 /
                               static_cast<double>(tp->calls_per_rank),
           "MB", "per call");
  out.json("collective.rounds", static_cast<double>(o.tp_rounds), "count",
           "tp_rounds_total, all ranks");
  // meta
  double shard_sum = 0, shard_max = 0;
  for (const std::uint64_t n : c.shard_ops) {
    shard_sum += static_cast<double>(n);
    shard_max = std::max(shard_max, static_cast<double>(n));
  }
  const double shard_mean =
      c.shard_ops.empty() ? 0 : shard_sum / static_cast<double>(c.shard_ops.size());
  out.json("meta.ops", shard_sum, "count");
  out.json("meta.shard_imbalance", shard_mean > 0 ? shard_max / shard_mean : 0,
           "ratio", "max / mean shard ops");
  out.json("meta.lock_waits", static_cast<double>(c.lock_waits), "count");
  out.json("meta.requests_per_small_file",
           t.small_files() == 0 ? 0
                                : static_cast<double>(c.clients.requests_sent) /
                                      static_cast<double>(t.small_files()),
           "count");
  {
    const std::vector<double>& waits = o.lock_wait_sim_ms;
    const TailChoice tail = choose_tail(waits.size());
    char note[96];
    std::snprintf(note, sizeof note, "sim; n=%zu, %zu beyond p99%s", waits.size(),
                  samples_beyond(waits.size(), 99),
                  o.spans_dropped > 0 ? ", from truncated spans" : "");
    out.text("meta.lock_wait_p99_ms", percentile(waits, 99), "ms", note);
    if (tail.percentile > 0 && tail.percentile != 99) {
      std::snprintf(note, sizeof note, "sim; highest with >= 10 beyond (%zu)",
                    tail.beyond);
      out.text("meta.lock_wait_" + percentile_label(tail.percentile) + "_ms",
               percentile(waits, tail.percentile), "ms", note);
    }
  }
  // obs
  out.json("obs.overhead_ratio", median(overhead), "ratio",
           "host, traced / untraced timed phase");
  out.json("obs.spans_dropped", static_cast<double>(o.spans_dropped), "count",
           "program span collector, keep-first");
  // io, per method
  for (const Method m : kAllMethods) {
    const std::string k = std::string("io.") + method_key(m);
    const MethodRun* r = find_run(t, m);
    std::vector<double> host;
    for (const auto& p : plain) {
      if (const MethodRun* pr = find_run(p, m)) host.push_back(pr->run_host_s);
    }
    const double host_s = median(host);
    const double calls = r == nullptr ? 1 : static_cast<double>(r->calls_per_rank);
    out.json(k + ".host_share", wall_s > 0 ? host_s / wall_s : 0, "fraction",
             "host, share of wall_s");
    out.json(k + ".sim_bw_mb_s",
             r == nullptr ? 0 : bandwidth_mb_s(r->desired_bytes, r->window),
             "MB/s", "sim");
    out.json(k + ".ops_per_client",
             r == nullptr ? 0 : static_cast<double>(r->rank0.io_ops) / calls,
             "count", "rank 0, per call");
    out.json(k + ".accessed_mb_per_client",
             r == nullptr ? 0
                          : static_cast<double>(r->rank0.accessed_bytes) / 1e6 / calls,
             "MB", "rank 0, per call");
    if (r == nullptr) continue;
    out.text(k + ".host_s", host_s, "s", "host, median of untraced passes");
    out.text(k + ".sim_s", r->window.seconds(), "s", "sim window");
    const std::vector<double>& lat = r->op_sim_ms;
    char note[96];
    std::snprintf(note, sizeof note, "sim; n=%zu", lat.size());
    out.text(k + ".sim_op_p50_ms", percentile(lat, 50), "ms", note);
    const TailChoice tail = choose_tail(lat.size());
    if (tail.percentile > 0) {
      std::snprintf(note, sizeof note, "sim; n=%zu, %zu beyond", lat.size(),
                    tail.beyond);
      out.text(k + ".sim_op_" + percentile_label(tail.percentile) + "_ms",
               percentile(lat, tail.percentile), "ms", note);
    } else {
      std::printf("metric %-40s n/a (n=%zu: no percentile above p50 has 10 "
                  "samples beyond it)\n",
                  (k + ".sim_op_p99_ms").c_str(), lat.size());
    }
  }

  // Estimated host share of wall_s per layer: standalone cost x the pass's
  // call counts. Estimates only; the remainder is sim core, net and pfs.
  const double regions =
      static_cast<double>(c.clients.regions_client + c.regions_walked);
  const double est_dataloop = lt.flatten_ns_per_region * regions / 1e9;
  const double est_layout = lt.place_ns * regions / 1e9;
  const double est_codec = lt.codec_us * lookups / 1e6;
  const double est_meta =
      lt.shard_of_path_ns * static_cast<double>(t.path_ops()) / 1e9;
  const double wall_t = t.run_host_s();
  const double est_rest =
      wall_t - est_dataloop - est_layout - est_codec - est_meta;
  std::printf("estimate (standalone cost x call counts, not measured in the run):\n");
  out.text("est.dataloop.share_of_wall_s", est_dataloop / wall_t, "fraction", "estimate");
  out.text("est.layout.share_of_wall_s", est_layout / wall_t, "fraction", "estimate");
  out.text("est.codec.share_of_wall_s", est_codec / wall_t, "fraction", "estimate");
  out.text("est.meta.share_of_wall_s", est_meta / wall_t, "fraction", "estimate");
  out.text("est.sim_net_pfs.share_of_wall_s", est_rest / wall_t, "fraction",
           "estimate, remainder");
  out.text("est.types.share_of_setup_s",
           lt.to_dataloop_us * static_cast<double>(t.runs.size()) / 1e6 /
               t.setup_host_s(),
           "fraction", "estimate");

  // Phase shares from the program's spans, only when none were dropped.
  if (o.spans_dropped > 0) {
    std::printf("obs phase shares withheld: %llu of %llu spans dropped\n",
                static_cast<unsigned long long>(o.spans_dropped),
                static_cast<unsigned long long>(o.spans_dropped + o.spans_recorded));
  } else {
    double total = 0;
    for (std::size_t p = 1; p < o.phase_ns.size(); ++p) total += o.phase_ns[p];
    for (std::size_t p = 1; p < o.phase_ns.size() && total > 0; ++p) {
      if (o.phase_ns[p] == 0) continue;
      out.text(std::string("obs.phase.") +
                   dtio::obs::phase_name(static_cast<dtio::obs::Phase>(p)) +
                   ".share",
               o.phase_ns[p] / total, "fraction", "sim, of typed span time");
    }
  }

  // The benchmark's own spans: complete, host and sim totals per name.
  std::map<std::string, std::pair<double, double>> by_name;
  for (const BenchSpan& s : spans.spans()) {
    auto& [host, sim] = by_name[s.name];
    host += static_cast<double>(s.host_end_ns - s.host_start_ns) / 1e9;
    sim += static_cast<double>(s.sim_end_ns - s.sim_start_ns) / 1e9;
  }
  std::printf("benchmark spans of the first traced pass (%zu): name, host s "
              "(interleaved inside cluster.run), sim s\n",
              spans.spans().size());
  for (const auto& [name, v] : by_name) {
    std::printf("  %-28s %10.4f %12.4f\n", name.c_str(), v.first, v.second);
  }
  if (!a.spans_out.empty() && !spans.write_jsonl(a.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", a.spans_out.c_str());
    tally.check(false);
  }
  out.text("error_rate", tally.error_rate(), "fraction",
           "failed or wrong ops / attempted");
  out.finish(tally);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload tile_read|flash_write|meta_storm "
                 "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return args.trace == 0 ? perfbench::run_end_to_end(*w, args)
                         : perfbench::run_traced(*w, args);
}
