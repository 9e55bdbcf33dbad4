// tile_read (Figure 8 / Table 1) and flash_write (Figure 12 at 16 clients /
// Table 3): collective patterns driven through mpiio::File, one fresh
// cluster per access method.
#include <cmath>
#include <cstdio>

#include "dataloop/serialize.h"
#include "meta/shard_map.h"
#include "pfs/layout.h"
#include "workloads.h"
#include "workloads/flash.h"
#include "workloads/tile.h"

namespace perfbench {

namespace {

using dtio::workloads::FlashConfig;
using dtio::workloads::TileConfig;

void appendf(std::string& log, const char* fmt, auto... args) {
  char line[256];
  std::snprintf(line, sizeof line, fmt, args...);
  log += line;
}

double mb(double bytes) { return bytes / 1e6; }

/// Compares every rank's buffer (reads) or the file image (writes) with
/// the JointWalker oracle; one tally check per rank and call.
void check_bytes(const Pattern& p, int nranks,
                 const std::vector<std::vector<std::uint8_t>>& buffers,
                 const std::vector<std::uint8_t>& file, OpTally& tally,
                 int& bad) {
  for (int r = 0; r < nranks; ++r) {
    const std::vector<std::uint8_t>& buf = buffers[static_cast<std::size_t>(r)];
    for (int k = 0; k < p.calls; ++k) {
      const std::int64_t base = k * p.bytes_per_call;
      bool ok = true;
      std::int64_t covered = 0;
      walk_pattern(p, r, k, [&](std::int64_t m, std::int64_t f, std::int64_t n) {
        covered += n;
        for (std::int64_t i = 0; i < n && ok; ++i) {
          ok = buf[static_cast<std::size_t>(base + m + i)] ==
               file[static_cast<std::size_t>(f + i)];
        }
      });
      if (!tally.check(ok && covered == p.bytes_per_call)) ++bad;
    }
  }
}

/// Highest memory byte a rank's calls touch, plus one.
std::int64_t buffer_bytes(const Pattern& p, int rank) {
  std::int64_t end = 0;
  for (int k = 0; k < p.calls; ++k) {
    walk_pattern(p, rank, k, [&](std::int64_t m, std::int64_t, std::int64_t n) {
      end = std::max(end, k * p.bytes_per_call + m + n);
    });
  }
  return end;
}

/// Standalone timings shared by both data workloads: `make` builds the
/// workload's types; rank 0's first call is walked, placed and encoded.
LayerTimings time_layers(const std::function<Pattern()>& make,
                         const dtio::pfs::FileLayout& layout) {
  LayerTimings t;
  t.to_dataloop_us = host_ns_per_unit([&] {
    const Pattern p = make();
    (void)p.memtype.dataloop();
    for (const auto& ft : p.filetypes) (void)ft.dataloop();
    return std::uint64_t{1};
  }) / 1e3;
  const Pattern p = make();
  std::vector<std::int64_t> offsets;
  walk_pattern(p, 0, 0, [&](std::int64_t, std::int64_t f, std::int64_t) {
    offsets.push_back(f);
  });
  t.flatten_ns_per_region = host_ns_per_unit([&] {
    dtio::io::JointWalker walker = pattern_walker(p, 0, 0);
    dtio::io::JointWalker::Piece piece;
    std::uint64_t pieces = 0;
    while (walker.next(piece)) ++pieces;
    return pieces;
  });
  t.place_ns = host_ns_per_unit([&] {
    std::int64_t sink = 0;
    for (const std::int64_t off : offsets) sink += layout.place(off).physical;
    asm volatile("" : : "r"(sink));
    return static_cast<std::uint64_t>(offsets.size());
  });
  const dtio::dl::Dataloop& loop = *p.filetypes[0].dataloop();
  t.encoded_bytes = static_cast<double>(dtio::dl::encoded_size(loop));
  t.codec_us = host_ns_per_unit([&] {
    std::vector<std::uint8_t> wire;
    dtio::dl::encode(loop, wire);
    const dtio::dl::DataloopPtr back = dtio::dl::decode(wire);
    asm volatile("" : : "r"(back.get()));
    return std::uint64_t{1};
  }) / 1e3;
  const dtio::meta::ShardMap shards(1);
  t.shard_of_path_ns = host_ns_per_unit([&] {
    int sink = 0;
    for (int i = 0; i < 1000; ++i) sink += shards.shard_of_path(p.path);
    asm volatile("" : : "r"(sink));
    return std::uint64_t{1000};
  });
  return t;
}

// ---- tile_read ------------------------------------------------------------------

constexpr int kTileFrames = 20;
constexpr int kTileVerifyFrames = 2;
constexpr Method kTileMethods[] = {Method::kPosix, Method::kDataSieving,
                                   Method::kTwoPhase, Method::kList,
                                   Method::kDatatype};

Pattern tile_pattern(int frames) {
  const TileConfig tile;
  Pattern p;
  p.path = "/frames";
  p.write = false;
  p.calls = frames;
  p.call_stride = tile.tile_bytes();
  p.bytes_per_call = tile.tile_bytes();
  p.memtype = tile.memtype();
  for (int r = 0; r < tile.num_clients(); ++r) {
    p.filetypes.push_back(tile.tile_filetype(r));
    p.displacements.push_back(0);
  }
  return p;
}

dtio::net::ClusterConfig tile_cluster() {
  dtio::net::ClusterConfig cfg;  // paper defaults: 16 servers, 64 KiB strips
  cfg.num_clients = TileConfig{}.num_clients();
  return cfg;
}

Iteration tile_iterate(std::uint64_t, const Tracing& tracing, OpTally& tally) {
  Iteration it;
  for (const Method m : kTileMethods) {
    it.runs.push_back(run_collective(
        tile_cluster(), [] { return tile_pattern(kTileFrames); }, m, tracing,
        tally));
  }
  return it;
}

void tile_check(const Iteration& it, OpTally& tally, std::string& log) {
  // Table 1, per client per frame: ops 768/2/1/12/1; two-phase resends
  // 1.44 MB; every method delivers the 2.36 MB tile.
  const std::uint64_t expected_ops[] = {768, 2, 1, 12, 1};
  const auto tile_bytes = static_cast<std::uint64_t>(TileConfig{}.tile_bytes());
  for (std::size_t i = 0; i < it.runs.size(); ++i) {
    const MethodRun& r = it.runs[i];
    const std::uint64_t frames = r.calls_per_rank;
    const bool ops_ok = r.rank0.io_ops == expected_ops[i] * frames;
    const bool desired_ok = r.rank0.desired_bytes == tile_bytes * frames;
    tally.check(ops_ok);
    tally.check(desired_ok);
    appendf(log, "check %-9s ops/client/frame %g (paper %llu) %s, desired %s\n",
            r.method.c_str(),
            static_cast<double>(r.rank0.io_ops) / static_cast<double>(frames),
            static_cast<unsigned long long>(expected_ops[i]),
            ops_ok ? "ok" : "MISMATCH", desired_ok ? "ok" : "MISMATCH");
    if (r.method == "two_phase") {
      const double resent = mb(static_cast<double>(r.rank0.resent_bytes) /
                               static_cast<double>(frames));
      const bool ok = std::lround(resent * 100) == 144;
      tally.check(ok);
      appendf(log, "check two_phase resent/client/frame %.4f MB (1.44) %s\n",
              resent, ok ? "ok" : "MISMATCH");
    }
  }
}

void tile_verify(std::uint64_t seed, OpTally& tally, std::string& log) {
  const TileConfig tile;
  const Pattern p = tile_pattern(kTileVerifyFrames);
  std::vector<std::uint8_t> file(
      static_cast<std::size_t>(tile.frame_bytes() * kTileVerifyFrames));
  for (std::size_t i = 0; i < file.size(); ++i) {
    file[i] = content_byte(seed, static_cast<std::int64_t>(i));
  }
  for (const Method m : kTileMethods) {
    std::vector<std::vector<std::uint8_t>> buffers;
    for (int r = 0; r < tile.num_clients(); ++r) {
      buffers.emplace_back(static_cast<std::size_t>(buffer_bytes(p, r)), 0);
    }
    DataPlan data;
    data.buffers = &buffers;
    data.preload = &file;
    (void)run_collective(tile_cluster(), [] {
      return tile_pattern(kTileVerifyFrames);
    }, m, Tracing{}, tally, data);
    int bad = 0;
    check_bytes(p, tile.num_clients(), buffers, file, tally, bad);
    appendf(log, "verify %-9s %d frames x %d ranks read, %d mismatched\n",
            method_key(m), kTileVerifyFrames, tile.num_clients(), bad);
  }
}

LayerTimings tile_layers() {
  return time_layers([] { return tile_pattern(1); },
                     dtio::pfs::FileLayout(16, 64 * 1024));
}

// ---- flash_write ----------------------------------------------------------------

constexpr int kFlashClients = 16;
constexpr Method kFlashMethods[] = {Method::kTwoPhase, Method::kList,
                                    Method::kDatatype};

Pattern flash_pattern(const FlashConfig& flash) {
  Pattern p;
  p.path = "/checkpoint";
  p.write = true;
  p.calls = 1;
  p.bytes_per_call = flash.bytes_per_proc();
  p.memtype = flash.memtype();
  const dtio::types::Datatype filetype = flash.filetype(kFlashClients);
  for (int r = 0; r < kFlashClients; ++r) {
    p.filetypes.push_back(filetype);
    p.displacements.push_back(flash.displacement(r));
  }
  return p;
}

dtio::net::ClusterConfig flash_cluster() {
  dtio::net::ClusterConfig cfg;
  cfg.num_clients = kFlashClients;
  return cfg;
}

Iteration flash_iterate(std::uint64_t, const Tracing& tracing, OpTally& tally) {
  Iteration it;
  for (const Method m : kFlashMethods) {
    it.runs.push_back(run_collective(
        flash_cluster(), [] { return flash_pattern(FlashConfig{}); }, m,
        tracing, tally));
  }
  return it;
}

void flash_check(const Iteration& it, OpTally& tally, std::string& log) {
  // Table 3, per client: two-phase 2, list 15 360, datatype 1 ops; every
  // method writes the 7.86 MB checkpoint share.
  const std::uint64_t expected_ops[] = {2, 15360, 1};
  const FlashConfig flash;
  const auto desired = static_cast<std::uint64_t>(flash.bytes_per_proc());
  for (std::size_t i = 0; i < it.runs.size(); ++i) {
    const MethodRun& r = it.runs[i];
    const bool ops_ok = r.rank0.io_ops == expected_ops[i];
    const bool desired_ok = r.rank0.desired_bytes == desired;
    tally.check(ops_ok);
    tally.check(desired_ok);
    appendf(log, "check %-9s ops/client %llu (paper %llu) %s, desired %s\n",
            r.method.c_str(), static_cast<unsigned long long>(r.rank0.io_ops),
            static_cast<unsigned long long>(expected_ops[i]),
            ops_ok ? "ok" : "MISMATCH", desired_ok ? "ok" : "MISMATCH");
    if (r.method == "two_phase") {  // the paper tabulates this at 2 clients only
      appendf(log, "info  two_phase resent/client %.4f MB\n",
              mb(static_cast<double>(r.rank0.resent_bytes)));
    }
  }
}

void flash_verify(std::uint64_t seed, OpTally& tally, std::string& log) {
  // Same 16-client pattern, 2 blocks per process instead of 80, so the
  // memory images stay small.
  FlashConfig small;
  small.blocks_per_proc = 2;
  const Pattern p = flash_pattern(small);
  std::vector<std::vector<std::uint8_t>> buffers;
  for (int r = 0; r < kFlashClients; ++r) {
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(buffer_bytes(p, r)));
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = content_byte(seed + static_cast<std::uint64_t>(r) + 1,
                            static_cast<std::int64_t>(i));
    }
    buffers.push_back(std::move(buf));
  }
  // The oracle file image: every rank's pieces land at their file offsets.
  std::vector<std::uint8_t> expected(
      static_cast<std::size_t>(small.file_bytes(kFlashClients)), 0);
  for (int r = 0; r < kFlashClients; ++r) {
    const auto& buf = buffers[static_cast<std::size_t>(r)];
    walk_pattern(p, r, 0, [&](std::int64_t m, std::int64_t f, std::int64_t n) {
      std::copy_n(buf.begin() + m, n, expected.begin() + f);
    });
  }
  for (const Method m : kFlashMethods) {
    std::vector<std::uint8_t> image(expected.size(), 0);
    DataPlan data;
    data.buffers = &buffers;
    data.file_image = &image;
    (void)run_collective(flash_cluster(), [small] {
      return flash_pattern(small);
    }, m, Tracing{}, tally, data);
    std::size_t bad = 0;
    for (std::size_t i = 0; i < image.size(); ++i) bad += image[i] != expected[i];
    tally.check(bad == 0);
    appendf(log, "verify %-9s %d ranks x %.2f MB written, %zu bytes mismatched\n",
            method_key(m), kFlashClients,
            mb(static_cast<double>(small.bytes_per_proc())), bad);
  }
}

LayerTimings flash_layers() {
  return time_layers([] { return flash_pattern(FlashConfig{}); },
                     dtio::pfs::FileLayout(16, 64 * 1024));
}

}  // namespace

const Workload kTileRead{"tile_read", tile_iterate, tile_check, tile_verify,
                         tile_layers};
const Workload kFlashWrite{"flash_write", flash_iterate, flash_check,
                           flash_verify, flash_layers};

}  // namespace perfbench
