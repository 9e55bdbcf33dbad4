// Tests for the access-method layer and MPI-IO facade: every method must
// produce byte-identical files and buffers (cross-method write/read
// matrix), two-phase must redistribute correctly across ranks, and the
// per-method I/O characteristics (op counts, accessed bytes) must match
// the analytic expectations that back the paper's Tables 1-3.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "collective/comm.h"
#include "common/rng.h"
#include "io/joint.h"
#include "io/methods.h"
#include "mpiio/file.h"
#include "pfs/cluster.h"
#include "types/datatype.h"
#include "workloads/flash.h"

namespace dtio {
namespace {

using mpiio::Method;
using sim::Task;

net::ClusterConfig test_config(int servers = 4, int clients = 2,
                               bool locking = false) {
  net::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.num_clients = clients;
  cfg.strip_size = 1024;
  cfg.sieve_buffer_size = 8 * 1024;
  cfg.cb_buffer_size = 8 * 1024;
  cfg.file_locking = locking;
  return cfg;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  Rng rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

/// One simulated process writing `count` memtype instances through `view`,
/// then reading back with (possibly) a different method.
struct RwResult {
  Status write_status;
  Status read_status;
  std::vector<std::uint8_t> read_back;
  IoStats stats;
};

RwResult run_write_read(Method write_method, Method read_method,
                        const io::FileView& view,
                        const types::Datatype& memtype, std::int64_t count,
                        const std::vector<std::uint8_t>& mem_image,
                        bool locking = false) {
  pfs::Cluster cluster(test_config(4, 1, locking));
  auto client = cluster.make_client(0);
  io::Context ctx{cluster.scheduler(), *client, cluster.config()};
  mpiio::File file(ctx);
  RwResult result;
  result.read_back.assign(mem_image.size(), 0);

  cluster.scheduler().spawn(
      [](mpiio::File& f, const io::FileView& v, const types::Datatype& t,
         std::int64_t n, const std::vector<std::uint8_t>& src,
         std::vector<std::uint8_t>& dst, Method wm, Method rm,
         RwResult& out) -> Task<void> {
        EXPECT_TRUE((co_await f.open("/rw", true)).is_ok());
        f.set_view(v.displacement, v.etype, v.filetype);
        out.write_status = co_await f.write_at(0, src.data(), n, t, wm);
        if (out.write_status.is_ok()) {
          out.read_status = co_await f.read_at(0, dst.data(), n, t, rm);
        }
      }(file, view, memtype, count, mem_image, result.read_back, write_method,
        read_method, result));
  cluster.run();
  result.stats = client->stats();
  return result;
}

/// Compare only the bytes the memory datatype actually touches.
void expect_typed_equal(const types::Datatype& memtype, std::int64_t count,
                        const std::vector<std::uint8_t>& a,
                        const std::vector<std::uint8_t>& b) {
  for (const Region& r : memtype.flatten(0, count)) {
    for (std::int64_t i = r.offset; i < r.end(); ++i) {
      ASSERT_EQ(a[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)])
          << "at byte " << i;
    }
  }
}

// ---- Cross-method matrix -----------------------------------------------------

struct MatrixCase {
  Method write;
  Method read;
};

class MethodMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(MethodMatrix, NoncontigMemNoncontigFileRoundTrip) {
  const auto [write_method, read_method] = GetParam();
  // Memory: 30 blocks of 8 bytes every 20. File: vector of 16-byte blocks
  // every 100 bytes (crosses strip boundaries).
  auto memtype = types::hvector(30, 8, 20, types::byte_t());
  auto filetype = types::hvector(5, 16, 100, types::byte_t());
  io::FileView view{64, types::byte_t(), filetype};
  const std::int64_t count = 1;

  auto image = pattern_bytes(static_cast<std::size_t>(memtype.extent()), 21);
  const bool locking = write_method == Method::kDataSieving;
  auto result = run_write_read(write_method, read_method, view, memtype,
                               count, image, locking);
  ASSERT_TRUE(result.write_status.is_ok()) << result.write_status.to_string();
  ASSERT_TRUE(result.read_status.is_ok()) << result.read_status.to_string();
  expect_typed_equal(memtype, count, image, result.read_back);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, MethodMatrix,
    ::testing::Values(MatrixCase{Method::kPosix, Method::kPosix},
                      MatrixCase{Method::kPosix, Method::kList},
                      MatrixCase{Method::kPosix, Method::kDatatype},
                      MatrixCase{Method::kPosix, Method::kDataSieving},
                      MatrixCase{Method::kList, Method::kPosix},
                      MatrixCase{Method::kList, Method::kList},
                      MatrixCase{Method::kList, Method::kDatatype},
                      MatrixCase{Method::kDatatype, Method::kPosix},
                      MatrixCase{Method::kDatatype, Method::kList},
                      MatrixCase{Method::kDatatype, Method::kDatatype},
                      MatrixCase{Method::kDatatype, Method::kDataSieving},
                      MatrixCase{Method::kDataSieving, Method::kDatatype}),
    [](const auto& info) {
      auto slug = [](Method m) -> std::string {
        switch (m) {
          case Method::kPosix:
            return "Posix";
          case Method::kDataSieving:
            return "Sieve";
          case Method::kTwoPhase:
            return "TwoPhase";
          case Method::kList:
            return "List";
          case Method::kDatatype:
            return "Datatype";
        }
        return "Unknown";
      };
      return slug(info.param.write) + "Then" + slug(info.param.read);
    });

// ---- Method-specific behaviours -------------------------------------------------

TEST(Methods, SieveWriteUnsupportedWithoutLocking) {
  auto memtype = types::contiguous(64, types::byte_t());
  io::FileView view{0, types::byte_t(),
                    types::hvector(4, 16, 64, types::byte_t())};
  auto image = pattern_bytes(64, 3);
  auto result = run_write_read(Method::kDataSieving, Method::kPosix, view,
                               memtype, 1, image, /*locking=*/false);
  EXPECT_EQ(result.write_status.code(), StatusCode::kUnsupported);
}

TEST(Methods, PosixOpCountEqualsJointPieces) {
  // 10 joint pieces of 8 bytes each.
  auto memtype = types::contiguous(80, types::byte_t());
  auto filetype = types::hvector(10, 8, 50, types::byte_t());
  io::FileView view{0, types::byte_t(), filetype};
  auto image = pattern_bytes(80, 5);
  auto result = run_write_read(Method::kPosix, Method::kPosix, view, memtype,
                               1, image);
  // 10 write ops + 10 read ops.
  EXPECT_EQ(result.stats.io_ops, 20u);
}

TEST(Methods, ListBatchesAtRegionCap) {
  // 100 joint pieces with a 64-region cap => 2 list calls per direction.
  auto memtype = types::contiguous(800, types::byte_t());
  auto filetype = types::hvector(100, 8, 50, types::byte_t());
  io::FileView view{0, types::byte_t(), filetype};
  auto image = pattern_bytes(800, 6);
  auto result = run_write_read(Method::kList, Method::kList, view, memtype, 1,
                               image);
  EXPECT_EQ(result.stats.io_ops, 4u);
  // List descriptors ship 16 bytes per region on the wire.
  EXPECT_GE(result.stats.request_bytes, 2 * 100u * 16u);
}

TEST(Methods, DatatypeSingleOpRegardlessOfComplexity) {
  auto memtype = types::contiguous(800, types::byte_t());
  auto filetype = types::hvector(100, 8, 50, types::byte_t());
  io::FileView view{0, types::byte_t(), filetype};
  auto image = pattern_bytes(800, 7);
  auto result = run_write_read(Method::kDatatype, Method::kDatatype, view,
                               memtype, 1, image);
  EXPECT_EQ(result.stats.io_ops, 2u);  // one write + one read
  // The shipped descriptor is a dataloop, far smaller than 100 regions.
  EXPECT_LT(result.stats.request_bytes, 100u * 16u);
}

TEST(Methods, SievingAccessesHullNotJustDesired) {
  // 8 pieces of 8 bytes spread over 3.5 KiB: sieving reads the hull.
  auto memtype = types::contiguous(64, types::byte_t());
  auto filetype = types::hvector(8, 8, 500, types::byte_t());
  io::FileView view{0, types::byte_t(), filetype};
  auto image = pattern_bytes(64, 8);
  auto result = run_write_read(Method::kPosix, Method::kDataSieving, view,
                               memtype, 1, image);
  // Read side accessed the full hull (3508 bytes) vs 64 desired.
  EXPECT_GT(result.stats.accessed_bytes, 3000u);
}

TEST(Methods, DesiredBytesCountedOncePerCall) {
  auto memtype = types::contiguous(64, types::byte_t());
  io::FileView view{0, types::byte_t(),
                    types::hvector(8, 8, 100, types::byte_t())};
  auto image = pattern_bytes(64, 9);
  auto result = run_write_read(Method::kDatatype, Method::kDataSieving, view,
                               memtype, 1, image);
  EXPECT_EQ(result.stats.desired_bytes, 128u);  // 64 write + 64 read
}

TEST(Methods, SievingRegionsStraddlingWindowBoundaries) {
  // Hull of ~40 KiB with an 8 KiB sieve buffer: five windows, and the
  // 3 KiB regions straddle window boundaries — the extraction bookkeeping
  // must split them correctly.
  auto memtype = types::contiguous(10 * 3072, types::byte_t());
  auto filetype = types::hvector(10, 3072, 4000, types::byte_t());
  io::FileView view{128, types::byte_t(), filetype};
  auto image = pattern_bytes(10 * 3072, 23);
  auto result = run_write_read(Method::kDatatype, Method::kDataSieving, view,
                               memtype, 1, image);
  ASSERT_TRUE(result.write_status.is_ok());
  ASSERT_TRUE(result.read_status.is_ok());
  expect_typed_equal(memtype, 1, image, result.read_back);
  // Five window reads (hull ~39.7 KiB / 8 KiB buffer).
  EXPECT_EQ(result.stats.io_ops - 1, 5u);
}

TEST(Methods, ListExactlyAtRegionCapBoundary) {
  // Exactly 64 and 65 joint pieces: 1 vs 2 list calls.
  for (const std::int64_t pieces : {64, 65}) {
    auto memtype = types::contiguous(pieces * 8, types::byte_t());
    auto filetype = types::hvector(pieces, 8, 50, types::byte_t());
    io::FileView view{0, types::byte_t(), filetype};
    auto image = pattern_bytes(static_cast<std::size_t>(pieces * 8), 31);
    auto result = run_write_read(Method::kList, Method::kDatatype, view,
                                 memtype, 1, image);
    ASSERT_TRUE(result.write_status.is_ok());
    expect_typed_equal(memtype, 1, image, result.read_back);
    const std::uint64_t expected_calls = pieces == 64 ? 1u : 2u;
    EXPECT_EQ(result.stats.io_ops, expected_calls + 1) << pieces;
  }
}

TEST(Methods, MultiInstanceAccessTilesTheView) {
  // count > 1 memtype instances against a tiled file view.
  auto memtype = types::hvector(4, 16, 32, types::byte_t());  // 64 B/inst
  auto filetype = types::resized(
      types::contiguous(64, types::byte_t()), 0, 256);
  io::FileView view{0, types::byte_t(), filetype};
  auto image = pattern_bytes(
      static_cast<std::size_t>(memtype.extent() * 3 + 64), 37);
  auto result = run_write_read(Method::kDatatype, Method::kPosix, view,
                               memtype, 3, image);
  ASSERT_TRUE(result.write_status.is_ok());
  ASSERT_TRUE(result.read_status.is_ok());
  expect_typed_equal(memtype, 3, image, result.read_back);
}

// ---- Collective (two-phase) -------------------------------------------------------

struct CollectiveWorld {
  explicit CollectiveWorld(int nclients, bool locking = false)
      : cluster(test_config(4, nclients, locking)),
        comm(cluster.scheduler(), cluster.network(), cluster.config(),
             nclients) {
    for (int r = 0; r < nclients; ++r) {
      clients.push_back(cluster.make_client(r));
      contexts.push_back(std::make_unique<io::Context>(io::Context{
          cluster.scheduler(), *clients.back(), cluster.config()}));
      files.push_back(std::make_unique<mpiio::File>(*contexts.back()));
    }
  }
  pfs::Cluster cluster;
  coll::Communicator comm;
  std::vector<std::unique_ptr<pfs::Client>> clients;
  std::vector<std::unique_ptr<io::Context>> contexts;
  std::vector<std::unique_ptr<mpiio::File>> files;
};

TEST(TwoPhase, InterleavedWriteThenReadBack) {
  // 4 ranks write interleaved 64-byte records (rank r owns record i where
  // i % 4 == r) — the classic two-phase-friendly pattern of Figure 3.
  constexpr int kRanks = 4;
  constexpr std::int64_t kRecord = 64;
  constexpr std::int64_t kRecords = 40;  // per rank
  CollectiveWorld world(kRanks);

  std::vector<std::vector<std::uint8_t>> images;
  for (int r = 0; r < kRanks; ++r) {
    images.push_back(pattern_bytes(kRecord * kRecords,
                                   100 + static_cast<std::uint64_t>(r)));
  }
  int completed = 0;
  for (int r = 0; r < kRanks; ++r) {
    world.cluster.scheduler().spawn(
        [](CollectiveWorld& w, int rank, const std::vector<std::uint8_t>& src,
           int& done) -> Task<void> {
          mpiio::File& f = *w.files[static_cast<std::size_t>(rank)];
          EXPECT_TRUE((co_await f.open("/tp", rank == 0)).is_ok());
          // View: my records, strided by kRanks records.
          auto filetype = types::resized(
              types::contiguous(kRecord, types::byte_t()), 0,
              kRanks * kRecord);
          f.set_view(rank * kRecord, types::byte_t(), filetype);
          auto memtype = types::contiguous(kRecord * kRecords,
                                           types::byte_t());
          Status s = co_await f.write_at_all(w.comm, rank, 0, src.data(), 1,
                                             memtype, Method::kTwoPhase);
          EXPECT_TRUE(s.is_ok()) << s.to_string();
          ++done;
        }(world, r, images[static_cast<std::size_t>(r)], completed));
  }
  // Rank 0 opens with create; give it a head start so others find the file.
  world.cluster.run();
  EXPECT_EQ(completed, kRanks);

  // Verify with an independent contiguous read of the whole file.
  bool verified = false;
  world.cluster.scheduler().spawn(
      [](CollectiveWorld& w, const std::vector<std::vector<std::uint8_t>>& all,
         bool& done) -> Task<void> {
        mpiio::File& f = *w.files[0];
        std::vector<std::uint8_t> whole(kRanks * kRecord * kRecords);
        f.set_view(0, types::byte_t(), types::byte_t());
        auto memtype = types::contiguous(
            static_cast<std::int64_t>(whole.size()), types::byte_t());
        Status s = co_await f.read_at(0, whole.data(), 1, memtype,
                                      Method::kDataSieving);
        EXPECT_TRUE(s.is_ok());
        for (std::int64_t i = 0; i < kRanks * kRecords; ++i) {
          const int owner = static_cast<int>(i % kRanks);
          const std::int64_t record_of_owner = i / kRanks;
          EXPECT_TRUE(std::equal(
              whole.begin() + i * kRecord, whole.begin() + (i + 1) * kRecord,
              all[static_cast<std::size_t>(owner)].begin() +
                  record_of_owner * kRecord))
              << "record " << i;
        }
        done = true;
      }(world, images, verified));
  world.cluster.run();
  EXPECT_TRUE(verified);
}

TEST(TwoPhase, ReadRedistributesAcrossRanks) {
  constexpr int kRanks = 3;
  constexpr std::int64_t kRecord = 128;
  constexpr std::int64_t kRecords = 30;
  CollectiveWorld world(kRanks);
  const auto whole = pattern_bytes(
      static_cast<std::size_t>(kRanks * kRecord * kRecords), 55);

  // Seed the file contiguously.
  world.cluster.scheduler().spawn(
      [](CollectiveWorld& w, const std::vector<std::uint8_t>& src)
          -> Task<void> {
        mpiio::File& f = *w.files[0];
        EXPECT_TRUE((co_await f.open("/tpr", true)).is_ok());
        auto memtype = types::contiguous(
            static_cast<std::int64_t>(src.size()), types::byte_t());
        EXPECT_TRUE((co_await f.write_at(0, src.data(), 1, memtype,
                                         Method::kDatatype))
                        .is_ok());
      }(world, whole));
  world.cluster.run();

  std::vector<std::vector<std::uint8_t>> results(
      kRanks, std::vector<std::uint8_t>(kRecord * kRecords, 0));
  int completed = 0;
  for (int r = 0; r < kRanks; ++r) {
    world.cluster.scheduler().spawn(
        [](CollectiveWorld& w, int rank, std::vector<std::uint8_t>& dst,
           int& done) -> Task<void> {
          mpiio::File& f = *w.files[static_cast<std::size_t>(rank)];
          if (rank != 0) {
            EXPECT_TRUE((co_await f.open("/tpr", false)).is_ok());
          }
          auto filetype = types::resized(
              types::contiguous(kRecord, types::byte_t()), 0,
              kRanks * kRecord);
          f.set_view(rank * kRecord, types::byte_t(), filetype);
          auto memtype = types::contiguous(kRecord * kRecords,
                                           types::byte_t());
          Status s = co_await f.read_at_all(w.comm, rank, 0, dst.data(), 1,
                                            memtype, Method::kTwoPhase);
          EXPECT_TRUE(s.is_ok()) << s.to_string();
          ++done;
        }(world, r, results[static_cast<std::size_t>(r)], completed));
  }
  world.cluster.run();
  EXPECT_EQ(completed, kRanks);

  for (int r = 0; r < kRanks; ++r) {
    for (std::int64_t rec = 0; rec < kRecords; ++rec) {
      const std::int64_t file_record = rec * kRanks + r;
      EXPECT_TRUE(std::equal(
          results[static_cast<std::size_t>(r)].begin() + rec * kRecord,
          results[static_cast<std::size_t>(r)].begin() + (rec + 1) * kRecord,
          whole.begin() + file_record * kRecord))
          << "rank " << r << " record " << rec;
    }
  }
  // Most data crossed ranks: resent bytes are substantial.
  std::uint64_t resent = 0;
  for (const auto& c : world.clients) resent += c->stats().resent_bytes;
  EXPECT_GT(resent, static_cast<std::uint64_t>(whole.size()) / 2);
}

TEST(TwoPhase, CollectiveFallbackRunsIndependentMethod) {
  constexpr int kRanks = 2;
  CollectiveWorld world(kRanks);
  const auto data = pattern_bytes(4096, 77);
  int completed = 0;
  for (int r = 0; r < kRanks; ++r) {
    world.cluster.scheduler().spawn(
        [](CollectiveWorld& w, int rank, const std::vector<std::uint8_t>& src,
           int& done) -> Task<void> {
          mpiio::File& f = *w.files[static_cast<std::size_t>(rank)];
          EXPECT_TRUE((co_await f.open("/fb", rank == 0)).is_ok());
          f.set_view(0, types::byte_t(), types::byte_t());
          auto memtype = types::contiguous(2048, types::byte_t());
          Status s = co_await f.write_at_all(
              w.comm, rank, rank * 2048, src.data() + rank * 2048, 1, memtype,
              Method::kDatatype);
          EXPECT_TRUE(s.is_ok());
          ++done;
        }(world, r, data, completed));
  }
  world.cluster.run();
  EXPECT_EQ(completed, kRanks);
}

// ---- Joint walker ------------------------------------------------------------------

TEST(Joint, PairsBothSidesAtMinGranularity) {
  // Memory: 4 x 8B blocks every 16; file: 2 x 16B blocks every 64.
  auto memtype = types::hvector(4, 8, 16, types::byte_t());
  auto filetype = types::hvector(2, 16, 64, types::byte_t());
  io::FileView view{0, types::byte_t(), filetype};
  const io::StreamWindow window = io::make_window(view, 0, 32);
  io::JointWalker walker(io::make_mem_cursor(memtype, 1),
                         io::make_file_cursor(view, window));
  std::vector<io::JointWalker::Piece> pieces;
  io::JointWalker::Piece p;
  while (walker.next(p)) pieces.push_back(p);
  // Joint granularity = 8 bytes (memory side): 4 pieces.
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0].mem_offset, 0);
  EXPECT_EQ(pieces[0].file_offset, 0);
  EXPECT_EQ(pieces[1].mem_offset, 16);
  EXPECT_EQ(pieces[1].file_offset, 8);
  EXPECT_EQ(pieces[2].mem_offset, 32);
  EXPECT_EQ(pieces[2].file_offset, 64);
  EXPECT_EQ(pieces[3].mem_offset, 48);
  EXPECT_EQ(pieces[3].file_offset, 72);
  for (const auto& piece : pieces) EXPECT_EQ(piece.length, 8);
}

TEST(Joint, WindowSeekAlignsFileSide) {
  auto filetype = types::hvector(4, 8, 32, types::byte_t());
  io::FileView view{100, types::byte_t(), filetype};
  // Start 12 bytes into the stream: mid-second-block.
  const io::StreamWindow window = io::make_window(view, 12, 8);
  auto memtype = types::contiguous(8, types::byte_t());
  io::JointWalker walker(io::make_mem_cursor(memtype, 1),
                         io::make_file_cursor(view, window));
  std::vector<io::JointWalker::Piece> pieces;
  io::JointWalker::Piece p;
  while (walker.next(p)) pieces.push_back(p);
  ASSERT_EQ(pieces.size(), 2u);
  // Stream byte 12 = block 1 (bytes 8..16) at displacement 100+32, +4.
  EXPECT_EQ(pieces[0].file_offset, 100 + 32 + 4);
  EXPECT_EQ(pieces[0].length, 4);
  EXPECT_EQ(pieces[1].file_offset, 100 + 64);
  EXPECT_EQ(pieces[1].length, 4);
}

/// A small random access type: strided or indexed blocks of bytes, of
/// doubles, or of doubles resized to leave gaps (whose elements stay
/// separate regions and walk as runs of leaf instances), sometimes
/// repeated contiguously.
types::Datatype random_access_type(Rng& rng) {
  types::Datatype el = types::byte_t();
  switch (rng.next_below(3)) {
    case 0:
      break;
    case 1:
      el = types::double_t();
      break;
    default:
      el = types::resized(types::double_t(), 0, 8 * rng.next_range(2, 4));
      break;
  }
  const std::int64_t count = rng.next_range(1, 6);
  const std::int64_t blocklen = rng.next_range(1, 6);
  types::Datatype t;
  if (rng.next_below(2) == 0) {
    t = types::hvector(count, blocklen,
                       blocklen * el.extent() + rng.next_range(0, 24), el);
  } else {
    std::vector<std::int64_t> lens, displs;
    std::int64_t at = rng.next_range(0, 16);
    for (std::int64_t i = 0; i < count; ++i) {
      lens.push_back(rng.next_range(1, blocklen));
      displs.push_back(at);
      at += lens.back() * el.extent() + rng.next_range(0, 24);
    }
    t = types::hindexed(lens, displs, el);
  }
  if (rng.next_below(3) == 0) t = types::contiguous(rng.next_range(2, 3), t);
  return t;
}

std::vector<io::JointWalker::Piece> walk_pieces(io::JointWalker walker) {
  std::vector<io::JointWalker::Piece> pieces;
  io::JointWalker::Piece p;
  while (walker.next(p)) pieces.push_back(p);
  return pieces;
}

/// Expands next_run() runs drawn with a random max_count; `longest` is
/// the largest run seen.
std::vector<io::JointWalker::Piece> walk_runs(io::JointWalker walker, Rng& rng,
                                              std::int64_t& longest) {
  std::vector<io::JointWalker::Piece> pieces;
  io::JointWalker::Run run;
  longest = 0;
  std::int64_t max_count = 64;
  while (walker.next_run(max_count, run)) {
    EXPECT_GE(run.count, 1);
    EXPECT_LE(run.count, max_count);
    longest = std::max(longest, run.count);
    for (std::int64_t i = 0; i < run.count; ++i) {
      pieces.push_back(run.piece(i));
    }
    max_count = rng.next_below(2) == 0 ? rng.next_range(1, 4) : 64;
  }
  return pieces;
}

TEST(Joint, RunsMatchPieces) {
  // next_run() is a host-side shape only: its expanded runs are exactly
  // the pieces next() returns, for random memory/file type pairs and for
  // the FLASH checkpoint (8-byte memory elements split 4 KiB+ file runs).
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const types::Datatype memtype = random_access_type(rng);
    const types::Datatype filetype = random_access_type(rng);
    const std::int64_t count = rng.next_range(1, 3);
    const io::FileView view{rng.next_range(0, 64), types::byte_t(), filetype};
    const io::StreamWindow window = io::make_window(
        view, rng.next_range(0, filetype.size()), count * memtype.size());
    auto walker = [&] {
      return io::JointWalker(io::make_mem_cursor(memtype, count),
                             io::make_file_cursor(view, window));
    };
    std::int64_t longest = 0;
    const auto expect = walk_pieces(walker());
    EXPECT_EQ(walk_runs(walker(), rng, longest), expect)
        << "trial " << trial << ": mem " << memtype.to_string() << ", file "
        << filetype.to_string();
  }

  workloads::FlashConfig flash;
  flash.blocks_per_proc = 2;
  constexpr int kProcs = 4;
  for (int rank = 0; rank < kProcs; ++rank) {
    const io::FileView view{flash.displacement(rank), types::byte_t(),
                            flash.filetype(kProcs)};
    const io::StreamWindow window =
        io::make_window(view, 0, flash.bytes_per_proc());
    auto walker = [&] {
      return io::JointWalker(io::make_mem_cursor(flash.memtype(), 1),
                             io::make_file_cursor(view, window));
    };
    std::int64_t longest = 0;
    const auto expect = walk_pieces(walker());
    EXPECT_EQ(static_cast<std::int64_t>(expect.size()), flash.joint_pieces());
    EXPECT_EQ(walk_runs(walker(), rng, longest), expect) << "rank " << rank;
    EXPECT_GT(longest, 1);  // the run path, not one piece at a time
  }
}

}  // namespace
}  // namespace dtio
