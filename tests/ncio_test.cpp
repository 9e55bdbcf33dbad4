// Tests for the ncio high-level library: schema definition, header
// round trips through the file system, vara access planning and data
// round trips (independent and collective), and error paths.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "collective/comm.h"
#include "ncio/dataset.h"
#include "pfs/cluster.h"

namespace dtio::ncio {
namespace {

using sim::Task;

struct World {
  explicit World(int clients = 1) {
    net::ClusterConfig cfg;
    cfg.num_servers = 4;
    cfg.num_clients = clients;
    cfg.strip_size = 2048;
    cluster = std::make_unique<pfs::Cluster>(cfg);
    for (int r = 0; r < clients; ++r) {
      clients_.push_back(cluster->make_client(r));
      contexts_.push_back(std::make_unique<io::Context>(io::Context{
          cluster->scheduler(), *clients_.back(), cluster->config()}));
      datasets.push_back(std::make_unique<Dataset>(*contexts_[
          static_cast<std::size_t>(r)]));
    }
  }
  std::unique_ptr<pfs::Cluster> cluster;
  std::vector<std::unique_ptr<pfs::Client>> clients_;
  std::vector<std::unique_ptr<io::Context>> contexts_;
  std::vector<std::unique_ptr<Dataset>> datasets;
};

TEST(Ncio, TypeSizes) {
  EXPECT_EQ(nc_type_size(NcType::kByte), 1);
  EXPECT_EQ(nc_type_size(NcType::kInt), 4);
  EXPECT_EQ(nc_type_size(NcType::kFloat), 4);
  EXPECT_EQ(nc_type_size(NcType::kDouble), 8);
}

TEST(Ncio, DefineModeRules) {
  World w;
  Dataset& ds = *w.datasets[0];
  w.cluster->scheduler().spawn([](Dataset& d) -> Task<void> {
    EXPECT_TRUE((co_await d.create("/rules.nc")).is_ok());
    const int t = d.def_dim("time", 10);
    EXPECT_EQ(t, 0);
    EXPECT_EQ(d.def_dim("time", 5), -1);  // duplicate
    EXPECT_EQ(d.def_dim("bad", 0), -1);   // non-positive
    const int dims1[] = {t};
    EXPECT_EQ(d.def_var("v", NcType::kInt, dims1), 0);
    EXPECT_EQ(d.def_var("v", NcType::kInt, dims1), -1);  // duplicate
    const int bad_dims[] = {7};
    EXPECT_EQ(d.def_var("w", NcType::kInt, bad_dims), -1);
    EXPECT_TRUE((co_await d.enddef()).is_ok());
    EXPECT_EQ(d.def_dim("late", 3), -1);  // frozen
    EXPECT_FALSE((co_await d.enddef()).is_ok());
  }(ds));
  w.cluster->run();
}

TEST(Ncio, HeaderRoundTripThroughTheFileSystem) {
  World w(2);
  // Writer defines the schema; a second client re-opens and must see it.
  w.cluster->scheduler().spawn([](Dataset& d) -> Task<void> {
    EXPECT_TRUE((co_await d.create("/schema.nc")).is_ok());
    const int time = d.def_dim("time", 4);
    const int lat = d.def_dim("lat", 8);
    const int lon = d.def_dim("lon", 16);
    const int dims3[] = {time, lat, lon};
    const int dims2[] = {lat, lon};
    EXPECT_EQ(d.def_var("temperature", NcType::kDouble, dims3), 0);
    EXPECT_EQ(d.def_var("elevation", NcType::kFloat, dims2), 1);
    EXPECT_TRUE((co_await d.enddef()).is_ok());
  }(*w.datasets[0]));
  w.cluster->run();

  bool checked = false;
  w.cluster->scheduler().spawn([](Dataset& d, bool& done) -> Task<void> {
    EXPECT_TRUE((co_await d.open("/schema.nc")).is_ok());
    EXPECT_EQ(d.dims().size(), 3u);
    if (d.dims().size() != 3u) co_return;
    EXPECT_EQ(d.dims()[1].name, "lat");
    EXPECT_EQ(d.dims()[2].length, 16);
    EXPECT_EQ(d.vars().size(), 2u);
    if (d.vars().size() != 2u) co_return;
    EXPECT_EQ(d.find_var("temperature"), 0);
    EXPECT_EQ(d.find_var("elevation"), 1);
    EXPECT_EQ(d.find_var("nope"), -1);
    EXPECT_EQ(d.find_dim("lon"), 2);
    const Var& temp = d.vars()[0];
    EXPECT_EQ(temp.type, NcType::kDouble);
    EXPECT_EQ(temp.dim_ids, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(temp.data_offset % 4096, 0);
    // Variables laid out back to back.
    EXPECT_EQ(d.vars()[1].data_offset,
              temp.data_offset + 4 * 8 * 16 * 8);
    done = true;
  }(*w.datasets[1], checked));
  w.cluster->run();
  EXPECT_TRUE(checked);
}

TEST(Ncio, VaraWriteReadRoundTrip) {
  World w;
  bool ok = false;
  w.cluster->scheduler().spawn([](Dataset& d, bool& done) -> Task<void> {
    EXPECT_TRUE((co_await d.create("/data.nc")).is_ok());
    const int rows = d.def_dim("rows", 10);
    const int cols = d.def_dim("cols", 12);
    const int dims2[] = {rows, cols};
    const int v = d.def_var("grid", NcType::kInt, dims2);
    EXPECT_TRUE((co_await d.enddef()).is_ok());

    // Write the middle 4x6 slab.
    std::vector<std::int32_t> slab(4 * 6);
    std::iota(slab.begin(), slab.end(), 100);
    const std::int64_t starts[] = {3, 2};
    const std::int64_t counts[] = {4, 6};
    EXPECT_TRUE((co_await d.put_vara(v, starts, counts, slab.data())).is_ok());

    // Read back a sub-slab and spot-check positions.
    std::vector<std::int32_t> back(2 * 3, 0);
    const std::int64_t rstarts[] = {4, 3};
    const std::int64_t rcounts[] = {2, 3};
    EXPECT_TRUE(
        (co_await d.get_vara(v, rstarts, rcounts, back.data())).is_ok());
    // Element (4,3) is slab row 1, col 1 -> 100 + 1*6 + 1.
    EXPECT_EQ(back[0], 107);
    EXPECT_EQ(back[1], 108);
    EXPECT_EQ(back[3], 113);  // (5,3) -> row 2, col 1
    done = true;
  }(*w.datasets[0], ok));
  w.cluster->run();
  EXPECT_TRUE(ok);
}

TEST(Ncio, VaraValidation) {
  World w;
  w.cluster->scheduler().spawn([](Dataset& d) -> Task<void> {
    EXPECT_TRUE((co_await d.create("/v.nc")).is_ok());
    const int n = d.def_dim("n", 8);
    const int dims1[] = {n};
    const int v = d.def_var("x", NcType::kDouble, dims1);
    std::vector<double> buf(8);
    const std::int64_t starts[] = {0};
    const std::int64_t counts[] = {8};
    // Access before enddef.
    EXPECT_FALSE((co_await d.put_vara(v, starts, counts, buf.data())).is_ok());
    EXPECT_TRUE((co_await d.enddef()).is_ok());
    // Bad var id, arity, range.
    EXPECT_FALSE((co_await d.put_vara(9, starts, counts, buf.data())).is_ok());
    const std::int64_t starts2[] = {0, 0};
    const std::int64_t counts2[] = {2, 2};
    EXPECT_FALSE(
        (co_await d.put_vara(v, starts2, counts2, buf.data())).is_ok());
    const std::int64_t over[] = {5};
    const std::int64_t over_count[] = {4};
    EXPECT_FALSE(
        (co_await d.put_vara(v, over, over_count, buf.data())).is_ok());
    EXPECT_TRUE((co_await d.put_vara(v, starts, counts, buf.data())).is_ok());
  }(*w.datasets[0]));
  w.cluster->run();
}

TEST(Ncio, OpenRejectsNonDatasets) {
  World w;
  w.cluster->scheduler().spawn([](io::Context& ctx, Dataset& d) -> Task<void> {
    // Create a file with junk content, then try to open it as a dataset.
    mpiio::File raw(ctx);
    EXPECT_TRUE((co_await raw.open("/junk", true)).is_ok());
    raw.set_view(0, types::byte_t(), types::byte_t());
    std::vector<std::uint8_t> junk(128, 0x5A);
    auto memtype = types::contiguous(128, types::byte_t());
    EXPECT_TRUE((co_await raw.write_at(0, junk.data(), 1, memtype,
                                       mpiio::Method::kDatatype))
                    .is_ok());
    EXPECT_FALSE((co_await d.open("/junk")).is_ok());
    EXPECT_FALSE((co_await d.open("/never-created")).is_ok());
  }(*w.contexts_[0], *w.datasets[0]));
  w.cluster->run();
}

TEST(Ncio, CollectivePartitionedVariableWrite) {
  // 3 ranks write latitude bands of a (lat, lon) variable collectively;
  // rank 0 reads the whole variable back and verifies every element.
  constexpr int kRanks = 3;
  World w(kRanks);
  coll::Communicator comm(w.cluster->scheduler(), w.cluster->network(),
                          w.cluster->config(), kRanks);
  constexpr std::int64_t kLat = 9, kLon = 16;

  // Rank 0 defines; others open after a settle round.
  w.cluster->scheduler().spawn([](Dataset& d) -> Task<void> {
    EXPECT_TRUE((co_await d.create("/climate.nc")).is_ok());
    const int lat = d.def_dim("lat", kLat);
    const int lon = d.def_dim("lon", kLon);
    const int dims2[] = {lat, lon};
    EXPECT_EQ(d.def_var("t2m", NcType::kFloat, dims2), 0);
    EXPECT_TRUE((co_await d.enddef()).is_ok());
  }(*w.datasets[0]));
  w.cluster->run();

  int done = 0;
  for (int r = 0; r < kRanks; ++r) {
    w.cluster->scheduler().spawn(
        [](Dataset& d, coll::Communicator& c, int rank, int& finished)
            -> Task<void> {
          if (rank != 0) {
            EXPECT_TRUE((co_await d.open("/climate.nc")).is_ok());
          }
          const std::int64_t band = kLat / kRanks;
          std::vector<float> mine(static_cast<std::size_t>(band * kLon));
          for (std::int64_t i = 0; i < band * kLon; ++i) {
            const std::int64_t lat = rank * band + i / kLon;
            const std::int64_t lon = i % kLon;
            mine[static_cast<std::size_t>(i)] =
                static_cast<float>(lat * 1000 + lon);
          }
          const std::int64_t starts[] = {rank * band, 0};
          const std::int64_t counts[] = {band, kLon};
          Status s = co_await d.put_vara_all(c, rank, 0, starts, counts,
                                             mine.data());
          EXPECT_TRUE(s.is_ok()) << s.to_string();
          ++finished;
        }(*w.datasets[static_cast<std::size_t>(r)], comm, r, done));
  }
  w.cluster->run();
  EXPECT_EQ(done, kRanks);

  bool verified = false;
  w.cluster->scheduler().spawn([](Dataset& d, bool& ok) -> Task<void> {
    std::vector<float> whole(kLat * kLon, -1);
    const std::int64_t starts[] = {0, 0};
    const std::int64_t counts[] = {kLat, kLon};
    EXPECT_TRUE((co_await d.get_vara(0, starts, counts, whole.data())).is_ok());
    ok = true;
    for (std::int64_t lat = 0; lat < kLat; ++lat) {
      for (std::int64_t lon = 0; lon < kLon; ++lon) {
        if (whole[static_cast<std::size_t>(lat * kLon + lon)] !=
            static_cast<float>(lat * 1000 + lon)) {
          ok = false;
        }
      }
    }
  }(*w.datasets[0], verified));
  w.cluster->run();
  EXPECT_TRUE(verified);
}

TEST(Ncio, CollectiveReadRedistributes) {
  // Seed a variable, then all ranks collectively read disjoint bands.
  constexpr int kRanks = 2;
  World w(kRanks);
  coll::Communicator comm(w.cluster->scheduler(), w.cluster->network(),
                          w.cluster->config(), kRanks);
  constexpr std::int64_t kN = 32;
  w.cluster->scheduler().spawn([](Dataset& d) -> Task<void> {
    EXPECT_TRUE((co_await d.create("/cr.nc")).is_ok());
    const int n = d.def_dim("n", kN);
    const int dims1[] = {n};
    (void)d.def_var("x", NcType::kInt, dims1);
    EXPECT_TRUE((co_await d.enddef()).is_ok());
    std::vector<std::int32_t> all(kN);
    std::iota(all.begin(), all.end(), 500);
    const std::int64_t starts[] = {0};
    const std::int64_t counts[] = {kN};
    EXPECT_TRUE((co_await d.put_vara(0, starts, counts, all.data())).is_ok());
  }(*w.datasets[0]));
  w.cluster->run();

  std::vector<std::vector<std::int32_t>> got(
      kRanks, std::vector<std::int32_t>(kN / kRanks, 0));
  int done = 0;
  for (int r = 0; r < kRanks; ++r) {
    w.cluster->scheduler().spawn(
        [](Dataset& d, coll::Communicator& c, int rank,
           std::vector<std::int32_t>& out, int& finished) -> Task<void> {
          if (rank != 0) {
            EXPECT_TRUE((co_await d.open("/cr.nc")).is_ok());
          }
          const std::int64_t starts[] = {rank * (kN / kRanks)};
          const std::int64_t counts[] = {kN / kRanks};
          Status s = co_await d.get_vara_all(c, rank, 0, starts, counts,
                                             out.data());
          EXPECT_TRUE(s.is_ok()) << s.to_string();
          ++finished;
        }(*w.datasets[static_cast<std::size_t>(r)], comm, r,
          got[static_cast<std::size_t>(r)], done));
  }
  w.cluster->run();
  EXPECT_EQ(done, kRanks);
  for (int r = 0; r < kRanks; ++r) {
    for (std::int64_t i = 0; i < kN / kRanks; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                500 + r * (kN / kRanks) + i);
    }
  }
}

TEST(Ncio, MultipleVariablesDoNotOverlap) {
  World w;
  bool ok = false;
  w.cluster->scheduler().spawn([](Dataset& d, bool& done) -> Task<void> {
    EXPECT_TRUE((co_await d.create("/multi.nc")).is_ok());
    const int n = d.def_dim("n", 64);
    const int dims1[] = {n};
    const int a = d.def_var("a", NcType::kInt, dims1);
    const int b = d.def_var("b", NcType::kInt, dims1);
    EXPECT_TRUE((co_await d.enddef()).is_ok());
    std::vector<std::int32_t> av(64, 7);
    std::vector<std::int32_t> bv(64, 9);
    const std::int64_t starts[] = {0};
    const std::int64_t counts[] = {64};
    EXPECT_TRUE((co_await d.put_vara(a, starts, counts, av.data())).is_ok());
    EXPECT_TRUE((co_await d.put_vara(b, starts, counts, bv.data())).is_ok());
    std::vector<std::int32_t> back(64, 0);
    EXPECT_TRUE((co_await d.get_vara(a, starts, counts, back.data())).is_ok());
    done = std::all_of(back.begin(), back.end(),
                       [](std::int32_t v) { return v == 7; });
  }(*w.datasets[0], ok));
  w.cluster->run();
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace dtio::ncio
