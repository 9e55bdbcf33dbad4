// Randomised end-to-end integration property: for random (memory type,
// file type, displacement, count) combinations, every access method must
// produce byte-identical results — write with a random method, read back
// with ALL methods, compare against a locally computed oracle image of
// the file.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "dataloop/cursor.h"
#include "io/joint.h"
#include "io/methods.h"
#include "mpiio/file.h"
#include "net/fault.h"
#include "pfs/cluster.h"

namespace dtio {
namespace {

using mpiio::Method;
using sim::Task;

/// Random monotonic file-suitable datatype (offsets nondecreasing).
types::Datatype random_filetype(Rng& rng, int depth) {
  if (depth == 0) {
    return types::byte_t();
  }
  auto inner = random_filetype(rng, depth - 1);
  switch (rng.next_below(4)) {
    case 0:
      return types::contiguous(rng.next_range(1, 4), inner);
    case 1: {
      const std::int64_t bl = rng.next_range(1, 3);
      return types::hvector(rng.next_range(1, 4), bl,
                            bl * inner.extent() +
                                rng.next_range(0, 32),
                            inner);
    }
    case 2: {
      const std::int64_t count = rng.next_range(1, 4);
      std::vector<std::int64_t> lens, offs;
      std::int64_t at = rng.next_range(0, 8) * inner.extent();
      for (std::int64_t i = 0; i < count; ++i) {
        const std::int64_t bl = rng.next_range(1, 2);
        lens.push_back(bl);
        offs.push_back(at);
        at += bl * inner.extent() + rng.next_range(1, 40);
      }
      return types::hindexed(lens, offs, inner);
    }
    default: {
      auto base = types::contiguous(rng.next_range(1, 3), inner);
      return types::resized(base, 0,
                            base.extent() + rng.next_range(0, 24));
    }
  }
}

struct Scenario {
  types::Datatype memtype;
  types::Datatype filetype;
  std::int64_t displacement;
  std::int64_t mem_count;
  std::int64_t offset_etypes;
};

Scenario random_scenario(Rng& rng) {
  Scenario s;
  s.filetype = random_filetype(rng, static_cast<int>(rng.next_range(1, 3)));
  // Memory type with matching total size: contiguous or strided.
  const std::int64_t mem_count = rng.next_range(1, 3);
  // total bytes must be a multiple of memtype size; choose memtype size
  // freely and cover whatever window it implies.
  if (rng.next_below(2)) {
    s.memtype = types::contiguous(rng.next_range(8, 200), types::byte_t());
  } else {
    const std::int64_t bl = rng.next_range(2, 16);
    s.memtype = types::hvector(rng.next_range(2, 10), bl,
                               bl + rng.next_range(0, 16), types::byte_t());
  }
  s.mem_count = mem_count;
  s.displacement = rng.next_range(0, 512);
  s.offset_etypes = rng.next_range(0, 64);
  return s;
}

constexpr Method kReadMethods[] = {Method::kPosix, Method::kDataSieving,
                                   Method::kList, Method::kDatatype};
constexpr Method kWriteMethods[] = {Method::kPosix, Method::kList,
                                    Method::kDatatype};

/// Expected file bytes of the scenario's write, computed with the joint
/// walker alone — independent of every access method under test.
std::map<std::int64_t, std::uint8_t> oracle_image(
    const Scenario& sc, const std::vector<std::uint8_t>& mem_image) {
  std::map<std::int64_t, std::uint8_t> expected_file;
  const std::int64_t total = sc.mem_count * sc.memtype.size();
  io::FileView view{sc.displacement, types::byte_t(), sc.filetype};
  const io::StreamWindow window =
      io::make_window(view, sc.offset_etypes, total);
  io::JointWalker walker(io::make_mem_cursor(sc.memtype, sc.mem_count),
                         io::make_file_cursor(view, window));
  io::JointWalker::Piece piece;
  while (walker.next(piece)) {
    for (std::int64_t i = 0; i < piece.length; ++i) {
      expected_file[piece.file_offset + i] =
          mem_image[static_cast<std::size_t>(piece.mem_offset + i)];
    }
  }
  return expected_file;
}

/// One past the last byte of the oracle image.
std::int64_t image_end(const std::map<std::int64_t, std::uint8_t>& image) {
  return image.empty() ? 0 : image.rbegin()->first + 1;
}

class RandomIntegration : public ::testing::TestWithParam<int> {};

TEST_P(RandomIntegration, AllMethodsAgreeWithOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 11);
  const Scenario sc = random_scenario(rng);
  const std::int64_t total = sc.mem_count * sc.memtype.size();

  // Memory image: the typed buffer the application writes from.
  const std::int64_t mem_span = sc.memtype.extent() * sc.mem_count + 64;
  std::vector<std::uint8_t> mem_image(static_cast<std::size_t>(mem_span));
  for (auto& b : mem_image) b = static_cast<std::uint8_t>(rng.next());

  const std::map<std::int64_t, std::uint8_t> expected_file =
      oracle_image(sc, mem_image);
  ASSERT_EQ(static_cast<std::int64_t>(expected_file.size()), total)
      << "oracle: file regions must be disjoint";

  // One cluster; write once with a random method, read back with all.
  net::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.num_clients = 1;
  cfg.strip_size = 256;  // small strips stress splitting
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  io::Context ctx{cluster.scheduler(), *client, cluster.config()};
  mpiio::File file(ctx);

  const Method write_method = kWriteMethods[rng.next_below(3)];

  bool wrote = false;
  cluster.scheduler().spawn(
      [](mpiio::File& f, const Scenario& s,
         const std::vector<std::uint8_t>& image, Method wm,
         bool& done) -> Task<void> {
        EXPECT_TRUE((co_await f.open("/rand", true)).is_ok());
        f.set_view(s.displacement, types::byte_t(), s.filetype);
        Status st = co_await f.write_at(s.offset_etypes, image.data(),
                                        s.mem_count, s.memtype, wm);
        EXPECT_TRUE(st.is_ok()) << st.to_string();
        done = st.is_ok();
      }(file, sc, mem_image, write_method, wrote));
  cluster.run();
  ASSERT_TRUE(wrote);

  // Verify raw file contents against the oracle.
  {
    std::vector<std::uint8_t> raw(
        static_cast<std::size_t>(image_end(expected_file)), 0);
    bool read_ok = false;
    cluster.scheduler().spawn(
        [](mpiio::File& f, std::vector<std::uint8_t>& out,
           bool& done) -> Task<void> {
          f.set_view(0, types::byte_t(), types::byte_t());
          auto whole = types::contiguous(
              static_cast<std::int64_t>(out.size()), types::byte_t());
          done = (co_await f.read_at(0, out.data(), 1, whole,
                                     mpiio::Method::kPosix))
                     .is_ok();
        }(file, raw, read_ok));
    cluster.run();
    ASSERT_TRUE(read_ok);
    for (const auto& [off, byte] : expected_file) {
      ASSERT_EQ(raw[static_cast<std::size_t>(off)], byte)
          << "file byte " << off << " after "
          << mpiio::method_name(write_method);
    }
  }

  // Read back through the view with every method; compare the typed
  // memory bytes.
  for (const Method read_method : kReadMethods) {
    std::vector<std::uint8_t> back(mem_image.size(), 0);
    bool read_ok = false;
    cluster.scheduler().spawn(
        [](mpiio::File& f, const Scenario& s, std::vector<std::uint8_t>& out,
           Method rm, bool& done) -> Task<void> {
          f.set_view(s.displacement, types::byte_t(), s.filetype);
          done = (co_await f.read_at(s.offset_etypes, out.data(),
                                     s.mem_count, s.memtype, rm))
                     .is_ok();
        }(file, sc, back, read_method, read_ok));
    cluster.run();
    ASSERT_TRUE(read_ok) << mpiio::method_name(read_method);
    for (const Region& r : sc.memtype.flatten(0, sc.mem_count)) {
      for (std::int64_t i = r.offset; i < r.end(); ++i) {
        ASSERT_EQ(back[static_cast<std::size_t>(i)],
                  mem_image[static_cast<std::size_t>(i)])
            << "mem byte " << i << " via " << mpiio::method_name(read_method)
            << " after " << mpiio::method_name(write_method);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, RandomIntegration, ::testing::Range(0, 25));

// ---- Pruned-expansion equivalence -----------------------------------------
//
// Stripe-aware pruned expansion is a server-side work optimisation: with
// the flag on, servers skip dataloop subtrees that miss their strips; with
// it off they walk everything and discard. The two must be externally
// indistinguishable — same payload bytes, same per-server piece and byte
// counts — for arbitrary (memtype, filetype, displacement, window)
// combinations.

struct PrunedRun {
  std::vector<std::uint8_t> back;
  std::uint64_t regions_walked = 0;
  std::uint64_t subtrees_skipped = 0;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>
      per_server;  ///< (my_pieces, bytes_read, bytes_written)
};

PrunedRun run_datatype_io(const Scenario& sc,
                          const std::vector<std::uint8_t>& mem_image,
                          bool pruned_expansion) {
  net::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.num_clients = 1;
  cfg.strip_size = 256;
  cfg.server.pruned_expansion = pruned_expansion;
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  io::Context ctx{cluster.scheduler(), *client, cluster.config()};
  mpiio::File file(ctx);

  PrunedRun run;
  run.back.assign(mem_image.size(), 0);
  bool ok = false;
  cluster.scheduler().spawn(
      [](mpiio::File& f, const Scenario& s,
         const std::vector<std::uint8_t>& image,
         std::vector<std::uint8_t>& out, bool& done) -> Task<void> {
        EXPECT_TRUE((co_await f.open("/pruned", true)).is_ok());
        f.set_view(s.displacement, types::byte_t(), s.filetype);
        Status w = co_await f.write_at(s.offset_etypes, image.data(),
                                       s.mem_count, s.memtype,
                                       Method::kDatatype);
        EXPECT_TRUE(w.is_ok()) << w.to_string();
        Status r = co_await f.read_at(s.offset_etypes, out.data(), s.mem_count,
                                      s.memtype, Method::kDatatype);
        EXPECT_TRUE(r.is_ok()) << r.to_string();
        done = w.is_ok() && r.is_ok();
      }(file, sc, mem_image, run.back, ok));
  cluster.run();
  EXPECT_TRUE(ok);
  for (int s = 0; s < cfg.num_servers; ++s) {
    const pfs::ServerStats& st = cluster.server(s).stats();
    run.regions_walked += st.regions_walked;
    run.subtrees_skipped += st.subtrees_skipped;
    run.per_server.emplace_back(st.my_pieces, st.bytes_read, st.bytes_written);
  }
  return run;
}

class PrunedEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PrunedEquivalence, DatatypeIOIsUnchangedByPruning) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 69621 + 7);
  const Scenario sc = random_scenario(rng);
  const std::int64_t mem_span = sc.memtype.extent() * sc.mem_count + 64;
  std::vector<std::uint8_t> mem_image(static_cast<std::size_t>(mem_span));
  for (auto& b : mem_image) b = static_cast<std::uint8_t>(rng.next());

  const PrunedRun pruned = run_datatype_io(sc, mem_image, true);
  const PrunedRun full = run_datatype_io(sc, mem_image, false);

  EXPECT_EQ(pruned.back, full.back);
  // Every memory byte the access touches must round-trip.
  for (const Region& r : sc.memtype.flatten(0, sc.mem_count)) {
    for (std::int64_t i = r.offset; i < r.end(); ++i) {
      ASSERT_EQ(pruned.back[static_cast<std::size_t>(i)],
                mem_image[static_cast<std::size_t>(i)])
          << "mem byte " << i;
    }
  }
  EXPECT_EQ(pruned.per_server, full.per_server);
  EXPECT_LE(pruned.regions_walked, full.regions_walked);
  EXPECT_EQ(full.subtrees_skipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, PrunedEquivalence, ::testing::Range(0, 15));

// ---- Scenario runner --------------------------------------------------------
//
// One write-then-read-back pass over a cluster built from a given config,
// shared by the cache, write-behind and cross-feature properties below.

/// The small cluster every scenario property runs on: three servers with
/// tiny strips so accesses split constantly, one client.
net::ClusterConfig scenario_config() {
  net::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.num_clients = 1;
  cfg.strip_size = 256;
  return cfg;
}

struct ScenarioRun {
  std::vector<std::uint8_t> raw;  ///< whole-file bytes after flush + settle
  std::vector<std::vector<std::uint8_t>> backs;  ///< per read method
  std::uint64_t flushes = 0;  ///< client write-behind flushes
  std::uint64_t batches = 0;  ///< kBatchWrite envelopes sent
  bool replicas_mirror = true;  ///< every replica bstream equals its primary
  bool ok = true;
};

/// True when `replica` holds exactly the bytes of `primary`. A size-0 (or
/// absent) primary with no replica copy counts as a mirror.
bool mirrors(const pfs::Bstream* primary, const pfs::Bstream* replica) {
  const std::int64_t size = primary != nullptr ? primary->size() : 0;
  if (replica == nullptr) return size == 0;
  if (replica->size() != size) return false;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(size));
  std::vector<std::uint8_t> b(static_cast<std::size_t>(size));
  if (primary != nullptr) primary->read(0, a);
  replica->read(0, b);
  return a == b;
}

/// Write the scenario once with `write_method`, read it back through the
/// view with every read method while writes may still be staged (the
/// read-after-write drain path), flush write-behind, settle staged
/// write-back cache data, then read the raw file image and compare every
/// replica copy against its primary.
ScenarioRun run_scenario(const Scenario& sc,
                         const std::vector<std::uint8_t>& mem_image,
                         Method write_method, std::int64_t file_end,
                         const net::ClusterConfig& cfg) {
  pfs::Cluster cluster(cfg);
  auto client = cluster.make_client(0);
  io::Context ctx{cluster.scheduler(), *client, cluster.config()};
  mpiio::File file(ctx);

  ScenarioRun run;
  bool wrote = false;
  cluster.scheduler().spawn(
      [](mpiio::File& f, const Scenario& s,
         const std::vector<std::uint8_t>& image, Method wm,
         bool& done) -> Task<void> {
        EXPECT_TRUE((co_await f.open("/scenario", true)).is_ok());
        f.set_view(s.displacement, types::byte_t(), s.filetype);
        Status st = co_await f.write_at(s.offset_etypes, image.data(),
                                        s.mem_count, s.memtype, wm);
        EXPECT_TRUE(st.is_ok()) << st.to_string();
        done = st.is_ok();
      }(file, sc, mem_image, write_method, wrote));
  cluster.run();
  EXPECT_TRUE(wrote);
  run.ok = wrote;

  for (const Method read_method : kReadMethods) {
    std::vector<std::uint8_t> back(mem_image.size(), 0);
    bool read_ok = false;
    cluster.scheduler().spawn(
        [](mpiio::File& f, const Scenario& s, std::vector<std::uint8_t>& out,
           Method rm, bool& done) -> Task<void> {
          f.set_view(s.displacement, types::byte_t(), s.filetype);
          done = (co_await f.read_at(s.offset_etypes, out.data(), s.mem_count,
                                     s.memtype, rm))
                     .is_ok();
        }(file, sc, back, read_method, read_ok));
    cluster.run();
    EXPECT_TRUE(read_ok) << mpiio::method_name(read_method);
    run.ok = run.ok && read_ok;
    run.backs.push_back(std::move(back));
  }

  // Explicit flush (MPI_File_sync analogue; a no-op with write-behind
  // off), then settle staged write-back data (a no-op with the cache off
  // or write-through), then the raw file image.
  bool flushed = false;
  cluster.scheduler().spawn([](mpiio::File& f, bool& done) -> Task<void> {
    done = (co_await f.flush()).is_ok();
  }(file, flushed));
  cluster.run();
  EXPECT_TRUE(flushed);
  run.ok = run.ok && flushed;
  EXPECT_EQ(client->write_behind_staged_bytes(), 0);
  cluster.flush_caches();

  run.raw.assign(static_cast<std::size_t>(file_end), 0);
  bool raw_ok = false;
  cluster.scheduler().spawn(
      [](mpiio::File& f, std::vector<std::uint8_t>& out,
         bool& done) -> Task<void> {
        f.set_view(0, types::byte_t(), types::byte_t());
        auto whole = types::contiguous(static_cast<std::int64_t>(out.size()),
                                       types::byte_t());
        done = (co_await f.read_at(0, out.data(), 1, whole, Method::kPosix))
                   .is_ok();
      }(file, run.raw, raw_ok));
  cluster.run();
  EXPECT_TRUE(raw_ok);
  run.ok = run.ok && raw_ok;
  run.flushes = client->wb_flushes();
  run.batches = client->wb_batches();

  const pfs::FileLayout layout(cfg.num_servers,
                               static_cast<std::int64_t>(cfg.strip_size));
  const int r = std::min(cfg.replication, cfg.num_servers);
  for (int primary = 0; primary < cfg.num_servers; ++primary) {
    for (int k = 1; k < r; ++k) {
      const int holder = layout.replica_server(primary, k);
      if (!mirrors(cluster.server(primary).find_bstream(file.handle()),
                   cluster.server(holder).find_replica_bstream(file.handle(),
                                                               primary))) {
        ADD_FAILURE() << "server " << holder << "'s replica of server "
                      << primary << " diverged";
        run.replicas_mirror = false;
      }
    }
  }
  return run;
}

// ---- Buffer-cache equivalence ----------------------------------------------
//
// The server buffer cache is a timing optimisation: with it on (write-back
// or write-through, tiny capacity so eviction/flush paths fire constantly)
// or off, the same workload must leave byte-identical file contents and
// every read method must return byte-identical data. Write with a random
// method, read back with ALL methods, then settle write-back dirt and
// compare the raw file image across all three configurations and against
// the oracle.

/// scenario_config() with the buffer cache in `mode`: 0 = off,
/// 1 = write-back, 2 = write-through. The cache is tiny (8 blocks of 512)
/// so the scenario's working set overflows it: evictions, dirty flushes,
/// and readahead all fire mid-run.
net::ClusterConfig cache_config(int mode) {
  net::ClusterConfig cfg = scenario_config();
  if (mode != 0) {
    cfg.server.cache_block_bytes = 512;
    cfg.server.cache_capacity_bytes = 8 * 512;
    cfg.server.cache_write_through = mode == 2;
  }
  return cfg;
}

class CacheEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CacheEquivalence, CacheOnOffByteIdenticalAcrossAllMethods) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503 + 13);
  const Scenario sc = random_scenario(rng);
  const std::int64_t mem_span = sc.memtype.extent() * sc.mem_count + 64;
  std::vector<std::uint8_t> mem_image(static_cast<std::size_t>(mem_span));
  for (auto& b : mem_image) b = static_cast<std::uint8_t>(rng.next());

  const std::map<std::int64_t, std::uint8_t> expected_file =
      oracle_image(sc, mem_image);
  const std::int64_t file_end = image_end(expected_file);
  const Method wm = kWriteMethods[rng.next_below(3)];

  const ScenarioRun off =
      run_scenario(sc, mem_image, wm, file_end, cache_config(0));
  const ScenarioRun wb =
      run_scenario(sc, mem_image, wm, file_end, cache_config(1));
  const ScenarioRun wt =
      run_scenario(sc, mem_image, wm, file_end, cache_config(2));
  ASSERT_TRUE(off.ok && wb.ok && wt.ok);

  // Raw file contents identical across configurations and per the oracle.
  EXPECT_EQ(off.raw, wb.raw) << "write-back changed the file image";
  EXPECT_EQ(off.raw, wt.raw) << "write-through changed the file image";
  for (const auto& [at, byte] : expected_file) {
    ASSERT_EQ(off.raw[static_cast<std::size_t>(at)], byte)
        << "file byte " << at;
  }
  // Every read method returned identical bytes in all three runs.
  ASSERT_EQ(off.backs.size(), wb.backs.size());
  for (std::size_t m = 0; m < off.backs.size(); ++m) {
    EXPECT_EQ(off.backs[m], wb.backs[m]) << "read method " << m;
    EXPECT_EQ(off.backs[m], wt.backs[m]) << "read method " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, CacheEquivalence, ::testing::Range(0, 12));

// ---- Write-behind equivalence ----------------------------------------------
//
// Client write-behind is a timing optimisation: with it on (tiny watermark
// so mid-op flushes fire, or huge watermark so everything drains via
// read-after-write overlap and the explicit flush) or off, the same
// workload must leave byte-identical file contents and every read method
// must return byte-identical data. The reads interleave with staged data,
// exercising the RAW drain path; the final raw image is read after an
// explicit flush.

net::ClusterConfig write_behind_config(std::int64_t write_behind_bytes) {
  net::ClusterConfig cfg = scenario_config();
  cfg.client.write_behind_bytes = write_behind_bytes;
  return cfg;
}

class WriteBehindEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(WriteBehindEquivalence, OnOffByteIdenticalAcrossAllMethods) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 28629 + 5);
  const Scenario sc = random_scenario(rng);
  const std::int64_t mem_span = sc.memtype.extent() * sc.mem_count + 64;
  std::vector<std::uint8_t> mem_image(static_cast<std::size_t>(mem_span));
  for (auto& b : mem_image) b = static_cast<std::uint8_t>(rng.next());

  const std::map<std::int64_t, std::uint8_t> expected_file =
      oracle_image(sc, mem_image);
  const std::int64_t file_end = image_end(expected_file);
  const Method wm = kWriteMethods[rng.next_below(3)];

  // off | tiny watermark (mid-op flushes fire constantly) | huge watermark
  // (nothing auto-flushes: RAW drains + the explicit flush do all the work).
  const ScenarioRun off =
      run_scenario(sc, mem_image, wm, file_end, write_behind_config(0));
  const ScenarioRun tiny =
      run_scenario(sc, mem_image, wm, file_end, write_behind_config(512));
  const ScenarioRun big = run_scenario(sc, mem_image, wm, file_end,
                                       write_behind_config(16 * 1024 * 1024));
  ASSERT_TRUE(off.ok && tiny.ok && big.ok);

  EXPECT_EQ(off.raw, tiny.raw) << "tiny-watermark write-behind changed bytes";
  EXPECT_EQ(off.raw, big.raw) << "big-watermark write-behind changed bytes";
  for (const auto& [at, byte] : expected_file) {
    ASSERT_EQ(off.raw[static_cast<std::size_t>(at)], byte)
        << "file byte " << at;
  }
  ASSERT_EQ(off.backs.size(), tiny.backs.size());
  for (std::size_t m = 0; m < off.backs.size(); ++m) {
    EXPECT_EQ(off.backs[m], tiny.backs[m]) << "read method " << m;
    EXPECT_EQ(off.backs[m], big.backs[m]) << "read method " << m;
  }
  // Write-behind genuinely engaged in the on-runs and not in the off-run.
  EXPECT_EQ(off.flushes, 0u);
  EXPECT_GT(tiny.flushes, 0u);
  EXPECT_GT(big.flushes, 0u);
  EXPECT_EQ(tiny.batches, tiny.flushes);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, WriteBehindEquivalence,
                         ::testing::Range(0, 12));

// ---- Cross-feature slice ---------------------------------------------------
//
// Write-behind, the buffer cache, replication and block checksums are each
// checked alone above and in their own suites; this property combines
// them. Each seed draws one point of write-behind {off, 512 B} x cache
// {off, write-back, write-through} x replication {1, 2 with rpc_timeout}
// x block_checksums {off, on} and runs it with every write method: every
// read method must return the oracle's bytes, the settled raw image must
// match the oracle, and every replica bstream must mirror its primary.
// Checksum-on runs are slow on the host (every visited piece re-verifies
// its page CRC), so the draw seeds keep six instances near 2 s serial in
// Release while still covering every value of each dimension.

class CrossFeature : public ::testing::TestWithParam<int> {};

TEST_P(CrossFeature, EveryMethodMatchesOracleAndReplicasMirror) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 16807 + 1);
  const Scenario sc = random_scenario(rng);
  const std::int64_t mem_span = sc.memtype.extent() * sc.mem_count + 64;
  std::vector<std::uint8_t> mem_image(static_cast<std::size_t>(mem_span));
  for (auto& b : mem_image) b = static_cast<std::uint8_t>(rng.next());
  const std::map<std::int64_t, std::uint8_t> expected_file =
      oracle_image(sc, mem_image);
  const std::int64_t file_end = image_end(expected_file);

  const std::int64_t write_behind = rng.next_below(2) != 0 ? 512 : 0;
  net::ClusterConfig cfg =
      cache_config(static_cast<int>(rng.next_below(3)));
  cfg.client.write_behind_bytes = write_behind;
  if (rng.next_below(2) != 0) {
    cfg.replication = 2;
    cfg.client.rpc_timeout = 20 * kMillisecond;
  }
  cfg.server.block_checksums = rng.next_below(2) != 0;
  const std::string point =
      "write_behind=" + std::to_string(write_behind) +
      " cache_bytes=" + std::to_string(cfg.server.cache_capacity_bytes) +
      " write_through=" + std::to_string(cfg.server.cache_write_through) +
      " replication=" + std::to_string(cfg.replication) +
      " checksums=" + std::to_string(cfg.server.block_checksums);

  for (const Method wm : kWriteMethods) {
    SCOPED_TRACE(point + " write=" + std::string(mpiio::method_name(wm)));
    const ScenarioRun run = run_scenario(sc, mem_image, wm, file_end, cfg);
    ASSERT_TRUE(run.ok);
    EXPECT_TRUE(run.replicas_mirror);
    for (const auto& [at, byte] : expected_file) {
      ASSERT_EQ(run.raw[static_cast<std::size_t>(at)], byte)
          << "file byte " << at;
    }
    for (std::size_t m = 0; m < run.backs.size(); ++m) {
      for (const Region& r : sc.memtype.flatten(0, sc.mem_count)) {
        for (std::int64_t i = r.offset; i < r.end(); ++i) {
          ASSERT_EQ(run.backs[m][static_cast<std::size_t>(i)],
                    mem_image[static_cast<std::size_t>(i)])
              << "mem byte " << i << " via "
              << mpiio::method_name(kReadMethods[m]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Draws, CrossFeature, ::testing::Range(0, 6));

// ---- Chaos sweep -----------------------------------------------------------
//
// The reliability contract under injected faults: with timeouts + retries
// armed, every operation either succeeds with byte-identical data or
// returns a typed reliability error (kUnavailable / kTimedOut /
// kDataLoss). It never hangs (the run completing IS the assertion — CI
// adds a wall-clock watchdog) and never silently corrupts (an ok status
// with wrong bytes, or an untyped kInternal, fails the test).

bool typed_reliability_error(const Status& st) {
  return st.code() == StatusCode::kUnavailable ||
         st.code() == StatusCode::kTimedOut ||
         st.code() == StatusCode::kDataLoss;
}

class RandomChaos : public ::testing::TestWithParam<int> {};

TEST_P(RandomChaos, OpsSucceedByteIdenticalOrFailTyped) {
  // Scenario seed: the documented DTIO_SEED plumbing — one env var
  // reproduces the whole sweep.
  Rng rng(mix_seed(run_seed(/*fallback=*/7),
                   static_cast<std::uint64_t>(GetParam())));
  const Scenario sc = random_scenario(rng);
  const std::int64_t mem_span = sc.memtype.extent() * sc.mem_count + 64;
  std::vector<std::uint8_t> mem_image(static_cast<std::size_t>(mem_span));
  for (auto& b : mem_image) b = static_cast<std::uint8_t>(rng.next());

  net::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.num_clients = 1;
  cfg.strip_size = 256;
  cfg.seed = mix_seed(11, static_cast<std::uint64_t>(GetParam()));
  // Generous deadline (worst-case service here is ~ms) so every timeout
  // in the run is a real fault, not scheduling noise.
  cfg.client.rpc_timeout = 200 * kMillisecond;
  cfg.client.rpc_max_attempts = 6;
  cfg.client.rpc_backoff_base = 10 * kMillisecond;
  pfs::Cluster cluster(cfg);

  net::FaultPlan plan(mix_seed(cfg.seed, /*salt=*/0xC4A05));
  net::FaultSpec spec;
  const int variant = GetParam() % 5;
  switch (variant) {
    case 0: spec.drop = 0.05; break;
    case 1: spec.duplicate = 0.05; break;
    case 2: spec.corrupt = 0.05; break;
    default:  // combined; variant 4 adds a mid-run crash below
      spec.drop = 0.05;
      spec.duplicate = 0.02;
      spec.corrupt = 0.01;
      spec.delay = 0.02;
      break;
  }
  plan.set_default_spec(spec);
  // Fault only client<->server links; collective client<->client traffic
  // (none in this single-client sweep, but the scope is the documented
  // chaos-mode setting) has no retry layer.
  plan.set_scope_max_node(cfg.num_servers);
  cluster.set_fault_plan(&plan);
  if (variant == 4) {
    cluster.schedule_server_crash(/*index=*/1, /*at=*/5 * kMillisecond,
                                  /*restart_delay=*/30 * kMillisecond);
  }

  auto client = cluster.make_client(0);
  io::Context ctx{cluster.scheduler(), *client, cluster.config()};
  mpiio::File file(ctx);

  const Method write_method = kWriteMethods[rng.next_below(3)];

  Status write_status;
  bool opened = false;
  cluster.scheduler().spawn(
      [](mpiio::File& f, const Scenario& s,
         const std::vector<std::uint8_t>& image, Method wm, bool& opened,
         Status& out) -> Task<void> {
        const Status open_st = co_await f.open("/chaos", true);
        opened = open_st.is_ok();
        if (!opened) {
          out = open_st;
          co_return;
        }
        f.set_view(s.displacement, types::byte_t(), s.filetype);
        out = co_await f.write_at(s.offset_etypes, image.data(), s.mem_count,
                                  s.memtype, wm);
      }(file, sc, mem_image, write_method, opened, write_status));
  cluster.run();
  if (!opened || !write_status.is_ok()) {
    EXPECT_TRUE(typed_reliability_error(write_status))
        << "untyped failure: " << write_status.to_string();
    return;  // nothing durable to compare against
  }

  // Every read must round-trip byte-identically or fail typed.
  for (const Method read_method : kReadMethods) {
    std::vector<std::uint8_t> back(mem_image.size(), 0);
    Status read_status;
    cluster.scheduler().spawn(
        [](mpiio::File& f, const Scenario& s, std::vector<std::uint8_t>& out,
           Method rm, Status& st) -> Task<void> {
          f.set_view(s.displacement, types::byte_t(), s.filetype);
          st = co_await f.read_at(s.offset_etypes, out.data(), s.mem_count,
                                  s.memtype, rm);
        }(file, sc, back, read_method, read_status));
    cluster.run();
    if (!read_status.is_ok()) {
      EXPECT_TRUE(typed_reliability_error(read_status))
          << "untyped failure via " << mpiio::method_name(read_method) << ": "
          << read_status.to_string();
      continue;
    }
    for (const Region& r : sc.memtype.flatten(0, sc.mem_count)) {
      for (std::int64_t i = r.offset; i < r.end(); ++i) {
        ASSERT_EQ(back[static_cast<std::size_t>(i)],
                  mem_image[static_cast<std::size_t>(i)])
            << "silent corruption at mem byte " << i << " via "
            << mpiio::method_name(read_method) << " after "
            << mpiio::method_name(write_method);
      }
    }
  }
  // Injection totals are probabilistic (a small scenario can draw zero
  // faults), so assert the plan was genuinely in the send path instead.
  EXPECT_EQ(cluster.network().fault_plan(), &plan);
  if (variant == 4) {
    EXPECT_EQ(cluster.server(1).stats().crashes, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, RandomChaos, ::testing::Range(0, 15));

}  // namespace
}  // namespace dtio
