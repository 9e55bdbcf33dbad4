#include "pfs/cluster.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "obs/chrome_trace.h"

namespace dtio::pfs {

namespace {

double fraction(double busy, SimTime elapsed) {
  return elapsed <= 0 ? 0.0 : busy / static_cast<double>(elapsed);
}

}  // namespace

std::vector<std::string> Cluster::node_names() const {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(config_.total_nodes()));
  for (int s = 0; s < config_.num_servers; ++s) {
    names.push_back("srv" + std::to_string(s));
  }
  for (int c = 0; c < config_.num_clients; ++c) {
    names.push_back("cli" + std::to_string(c));
  }
  return names;
}

ServerStats Cluster::server_stats_total() const {
  ServerStats total;
  for (const auto& server : servers_) total += server->stats();
  return total;
}

void Cluster::record_metrics() {
  if (obs_ == nullptr) return;
  obs::MetricsRegistry& m = obs_->metrics;
  const SimTime elapsed = scheduler_.now();
  for (int s = 0; s < config_.num_servers; ++s) {
    const std::string node = obs::label("node", s);
    m.gauge("server_disk_utilization", node)
        .set(fraction(server(s).disk().busy_integral(), elapsed));
    m.gauge("server_cpu_utilization", node)
        .set(fraction(server(s).cpu().busy_integral(), elapsed));
    m.gauge("server_tx_utilization", node)
        .set(fraction(network_.tx_link(s).busy_integral(), elapsed));
    m.gauge("server_rx_utilization", node)
        .set(fraction(network_.rx_link(s).busy_integral(), elapsed));
  }
  if (network_.fabric() != nullptr) {
    m.gauge("fabric_utilization")
        .set(fraction(network_.fabric()->busy_integral(), elapsed));
  }

  m.counter("net_messages_total").set(network_.total_messages());
  m.counter("net_wire_bytes_total").set(network_.total_wire_bytes());
  if (const net::FaultPlan* plan = network_.fault_plan()) {
    for (int k = 0; k < net::kNumFaultKinds; ++k) {
      const auto kind = static_cast<net::FaultKind>(k);
      m.counter("faults_injected_total",
                obs::label("kind", net::fault_kind_name(kind)))
          .set(plan->counters().of(kind));
    }
  }

  static constexpr const char* kMetaOpNames[6] = {
      "create", "open", "remove", "stat", "lock", "unlock"};
  for (int s = 0; s < config_.num_servers; ++s) {
    const ServerStats& st = server(s).stats();
    const std::string node = obs::label("node", s);
    const auto put = [&](std::string_view name, std::uint64_t value) {
      m.counter(name, node).set(value);
    };
    // Shed requests never reach the handler; the counter is handled ones.
    put("server_requests_total",
        st.requests - st.sheds_depth - st.sheds_bytes);
    put("server_disk_bytes_total", st.disk_bytes);
    put("server_subtrees_skipped_total", st.subtrees_skipped);
    put("server_pieces_pruned_total", st.pieces_pruned);
    put("server_replays_suppressed_total", st.replays_suppressed);
    put("server_crashes_total", st.crashes);
    put("server_crc_rejects_total", st.crc_rejects);
    m.counter("server_shed_total", obs::label("reason", "depth", "node", s))
        .set(st.sheds_depth);
    m.counter("server_shed_total", obs::label("reason", "bytes", "node", s))
        .set(st.sheds_bytes);
    put("server_cache_hits_total", st.cache_hits);
    put("server_cache_misses_total", st.cache_misses);
    put("server_cache_readahead_issued_total", st.cache_readahead_issued);
    put("server_cache_evictions_total", st.cache_evictions);
    put("server_cache_dirty_flushed_bytes_total", st.cache_dirty_flushed_bytes);
    put("server_dataloop_cache_hits_total", st.dataloop_cache_hits);
    put("server_dataloop_cache_misses_total",
        config_.server.dataloop_cache ? st.dataloops_decoded : 0);
    put("server_crash_discarded_total", st.crash_discarded);
    // Feature families register only with their feature on, so default
    // exports stay unchanged.
    if (config_.replication > 1) {
      put("server_resync_strips_pulled_total", st.resync_strips_pulled);
      put("server_resync_bytes_pulled_total", st.resync_bytes_pulled);
    }
    if (config_.server.block_checksums) {
      m.counter("server_media_errors_total",
                obs::label("kind", "sector", "node", s))
          .set(st.media_sector_errors);
      m.counter("server_media_errors_total",
                obs::label("kind", "bit_rot", "node", s))
          .set(st.media_bit_rot_detected);
      m.counter("server_media_errors_total",
                obs::label("kind", "torn", "node", s))
          .set(st.media_torn_detected);
      put("server_checksum_mismatches_total", st.checksum_mismatches);
      put("server_scrub_blocks_total", st.scrub_blocks);
      put("server_scrub_repairs_total", st.scrub_repairs);
      put("server_scrub_errors_total", st.scrub_errors);
    }
    if (config_.meta_shards > 1 && server(s).is_meta_shard()) {
      for (std::size_t i = 0; i < st.meta_ops_by_op.size(); ++i) {
        m.counter("meta_ops_total",
                  obs::label("op", kMetaOpNames[i], "shard", s))
            .set(st.meta_ops_by_op[i]);
      }
      m.counter("meta_lock_waits_total", obs::label("shard", s))
          .set(st.lock_waits);
    }
  }

  for (const Client* client : clients_) {
    if (client->observability() != obs_) continue;
    const std::string node = obs::label("node", client->node_id());
    const auto put = [&](std::string_view name, std::uint64_t value) {
      m.counter(name, node).set(value);
    };
    put("client_hedges_issued_total", client->hedges_issued());
    put("client_hedges_won_total", client->hedges_won());
    put("client_hedges_suppressed_total", client->hedges_suppressed());
    put("client_overloaded_total", client->overloads_seen());
    put("client_breaker_fast_fails_total", client->breaker_fast_fails());
    put("client_retries_total", client->rpc_retries());
    put("client_rpc_timeouts_total", client->rpc_timeouts());
    if (client->effective_replication() > 1) {
      put("client_read_failovers_total", client->read_failovers());
      put("client_quorum_writes_total", client->quorum_writes());
    }
    if (client->data_loss_surfaced() > 0) {
      put("client_data_loss_total", client->data_loss_surfaced());
    }
    if (client->wb_staged_ops() > 0) {
      put("client_wb_staged_bytes_total", client->wb_staged_bytes());
      put("client_wb_coalesced_ops_total", client->wb_coalesced_ops());
    }
    for (const auto& [reason, n] : client->wb_flushes_by_reason()) {
      m.counter("client_wb_flushes_total",
                obs::label("reason", reason, "node", client->node_id()))
          .set(n);
    }
  }
}

// ---- Timeline sampler -------------------------------------------------------
//
// Runs on the scheduler's telemetry side-channel: callbacks consume no
// event-queue sequence numbers and are not counted in events_processed(),
// so a run with sampling attached is bit-identical to a detached run.
// Sampling stops by itself when the regular event queue drains (pending
// telemetry past the last real event never fires).

void Cluster::arm_sampler() {
  if (sampler_armed_) return;
  sampler_armed_ = true;
  sampler_last_.assign(servers_.size(), ResourceWindow{});
  sampler_last_time_ = scheduler_.now();
  schedule_next_sample();
}

void Cluster::schedule_next_sample() {
  scheduler_.schedule_telemetry(
      scheduler_.now() + obs_->config.sample_period, [this] {
        take_sample();
        if (obs_ != nullptr && obs_->config.sample_period > 0) {
          schedule_next_sample();
        }
      });
}

void Cluster::take_sample() {
  if (obs_ == nullptr) return;
  obs::Timeline& tl = obs_->timeline;
  const SimTime now = scheduler_.now();
  const auto window = static_cast<double>(now - sampler_last_time_);

  for (int s = 0; s < config_.num_servers; ++s) {
    const sim::Mailbox& mb = network_.mailbox(s);
    tl.series("queue_depth", s).push(now, static_cast<double>(mb.queued()));
    tl.series("queued_bytes", s)
        .push(now, static_cast<double>(mb.queued_bytes()));

    auto& last = sampler_last_[static_cast<std::size_t>(s)];
    const double disk = server(s).disk().busy_integral();
    const double cpu = server(s).cpu().busy_integral();
    if (window > 0) {
      tl.series("disk_util", s).push(now, (disk - last.disk) / window);
      tl.series("cpu_util", s).push(now, (cpu - last.cpu) / window);
    }
    last.disk = disk;
    last.cpu = cpu;

    // Gated on the replication knob so unreplicated exports stay
    // byte-identical: 1 while the server is in its restart resync phase.
    if (config_.replication > 1) {
      tl.series("srv_resyncing", s)
          .push(now, server(s).resyncing() ? 1.0 : 0.0);
    }

    // Gated on the scrubber knobs so default exports stay byte-identical:
    // 1 while the server's background scrub pass is walking its stores.
    if (config_.server.scrub_interval > 0 && config_.server.block_checksums) {
      tl.series("srv_scrubbing", s)
          .push(now, server(s).scrubbing() ? 1.0 : 0.0);
    }

    // Gated on the sharded-metadata knob so legacy exports stay
    // byte-identical: lock requests parked on this shard's queues.
    if (config_.meta_shards > 1 && server(s).is_meta_shard()) {
      tl.series("meta_qdepth", s)
          .push(now, static_cast<double>(server(s).meta_qdepth()));
    }

    if (const cache::BlockCache* cache = server(s).block_cache()) {
      tl.series("cache_bytes", s)
          .push(now, static_cast<double>(cache->resident_blocks()) *
                         static_cast<double>(cache->block_bytes()));
      tl.series("cache_dirty_bytes", s)
          .push(now, static_cast<double>(cache->dirty_bytes()));
    }
  }

  for (const Client* client : clients_) {
    int window_sum = 0;
    int outstanding = 0;
    int breakers_open = 0;
    for (int s = 0; s < config_.num_servers; ++s) {
      const Client::LaneHealth h = client->lane_health(s);
      window_sum += h.window;
      outstanding += h.outstanding;
      if (h.breaker != 0) ++breakers_open;
    }
    const int node = client->node_id();
    tl.series("cli_flow_window", node)
        .push(now, static_cast<double>(window_sum));
    tl.series("cli_outstanding", node)
        .push(now, static_cast<double>(outstanding));
    tl.series("cli_breakers_open", node)
        .push(now, static_cast<double>(breakers_open));
    // Gated on the knob so default-config exports stay byte-identical.
    if (client->write_behind_enabled()) {
      tl.series("cli_wb_staged_bytes", node)
          .push(now, static_cast<double>(client->write_behind_staged_bytes()));
    }
  }

  tl.series("net_inflight_bytes", -1)
      .push(now, static_cast<double>(network_.inflight_wire_bytes()));

  sampler_last_time_ = now;
}

bool Cluster::write_trace(const std::string& path) {
  if (obs_ == nullptr) return false;
  obs::ChromeTraceOptions options;
  options.node_names = node_names();
  return obs::write_chrome_trace_file(*obs_, path, options);
}

std::string Cluster::utilization_report(SimTime t0) {
  const SimTime elapsed = scheduler_.now() - t0;
  // busy_integral() covers [0, now]; utilization over a window starting at
  // t0 is approximated by attributing all busy time to the window, which
  // is exact when the cluster idled before t0 (the usual bench pattern:
  // setup is cheap, then measure).
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "utilization over %.3f sim s:\n",
                to_seconds(elapsed));
  out += line;

  double disk_max = 0, cpu_max = 0, stx_max = 0, srx_max = 0;
  double disk_sum = 0, cpu_sum = 0, stx_sum = 0, srx_sum = 0;
  for (int s = 0; s < config_.num_servers; ++s) {
    const double disk = fraction(server(s).disk().busy_integral(), elapsed);
    const double cpu = fraction(server(s).cpu().busy_integral(), elapsed);
    const double tx = fraction(network_.tx_link(s).busy_integral(), elapsed);
    const double rx = fraction(network_.rx_link(s).busy_integral(), elapsed);
    disk_max = std::max(disk_max, disk);
    cpu_max = std::max(cpu_max, cpu);
    stx_max = std::max(stx_max, tx);
    srx_max = std::max(srx_max, rx);
    disk_sum += disk;
    cpu_sum += cpu;
    stx_sum += tx;
    srx_sum += rx;
  }
  const double n = config_.num_servers;
  std::snprintf(line, sizeof line,
                "  servers: disk %.0f%% (max %.0f%%)  cpu %.0f%% (max "
                "%.0f%%)  tx %.0f%% (max %.0f%%)  rx %.0f%% (max %.0f%%)\n",
                100 * disk_sum / n, 100 * disk_max, 100 * cpu_sum / n,
                100 * cpu_max, 100 * stx_sum / n, 100 * stx_max,
                100 * srx_sum / n, 100 * srx_max);
  out += line;

  double ctx_sum = 0, crx_sum = 0, ctx_max = 0, crx_max = 0;
  for (int c = 0; c < config_.num_clients; ++c) {
    const int node = config_.client_node(c);
    const double tx = fraction(network_.tx_link(node).busy_integral(),
                               elapsed);
    const double rx = fraction(network_.rx_link(node).busy_integral(),
                               elapsed);
    ctx_sum += tx;
    crx_sum += rx;
    ctx_max = std::max(ctx_max, tx);
    crx_max = std::max(crx_max, rx);
  }
  const double m = config_.num_clients;
  std::snprintf(line, sizeof line,
                "  clients: tx %.0f%% (max %.0f%%)  rx %.0f%% (max %.0f%%)\n",
                100 * ctx_sum / m, 100 * ctx_max, 100 * crx_sum / m,
                100 * crx_max);
  out += line;

  if (network_.fabric() != nullptr) {
    std::snprintf(line, sizeof line, "  fabric:  %.0f%%\n",
                  100 * fraction(network_.fabric()->busy_integral(), elapsed));
    out += line;
  }
  return out;
}

}  // namespace dtio::pfs
