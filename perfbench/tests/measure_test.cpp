// Pins the benchmark's own measuring code: which percentile a sample count
// supports, the simulated-bandwidth window, and failure accounting.
#include <gtest/gtest.h>

#include "measure.h"

namespace perfbench {
namespace {

using dtio::Status;
using dtio::StatusCode;

TEST(Percentile, NearestRankOnOneToHundred) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 90), 90);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile({}, 99), 0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(10000, 99.9), 10u);
}

TEST(Percentile, ChoosesHighestWithTenBeyond) {
  // p99 needs 1000 samples; one fewer falls back to p90.
  EXPECT_EQ(choose_tail(1000).percentile, 99.0);
  EXPECT_EQ(choose_tail(1000).beyond, 10u);
  EXPECT_EQ(choose_tail(999).percentile, 90.0);
  EXPECT_EQ(choose_tail(999).beyond, 99u);
  EXPECT_EQ(choose_tail(10000).percentile, 99.9);
  EXPECT_EQ(choose_tail(100000).percentile, 99.99);
  EXPECT_EQ(choose_tail(100).percentile, 90.0);
  // Fewer than 100 samples support no tail percentile at all.
  EXPECT_EQ(choose_tail(99).percentile, 0.0);
  EXPECT_EQ(choose_tail(16).percentile, 0.0);
  EXPECT_EQ(percentile_label(99), "p99");
  EXPECT_EQ(percentile_label(99.9), "p99.9");
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

constexpr std::int64_t kSec = 1'000'000'000;

TEST(Window, EarliestStartToLatestEnd) {
  Window w;
  w.add(1 * kSec, 5 * kSec);
  w.add(0, 10 * kSec);
  w.add(2 * kSec, 7 * kSec);
  EXPECT_EQ(w.start(), 0);
  EXPECT_EQ(w.end(), 10 * kSec);
  EXPECT_DOUBLE_EQ(w.seconds(), 10.0);
}

TEST(Window, BandwidthUsesLatestEndNotEarliest) {
  // Two clients move 50 MB each; one finishes at 5 s, the other at 10 s.
  Window w;
  w.add(0, 5 * kSec);
  w.add(0, 10 * kSec);
  // 100 MB over the 10 s window. Reducing the end time with a minimum
  // (5 s) would report 20 MB/s; a mean of per-client rates, 7.5 MB/s.
  EXPECT_DOUBLE_EQ(bandwidth_mb_s(100e6, w), 10.0);
}

TEST(Window, EmptyWindowHasNoBandwidth) {
  Window w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.length_ns(), 0);
  EXPECT_EQ(bandwidth_mb_s(1e6, w), 0);
}

TEST(OpTally, OnlyOkSucceeds) {
  OpTally t;
  EXPECT_TRUE(t.record(Status::ok()));
  EXPECT_FALSE(t.record(Status(StatusCode::kUnsupported, "no locks")));
  EXPECT_FALSE(t.record(Status(StatusCode::kNotFound, "gone")));
  EXPECT_EQ(t.attempted(), 3u);
  EXPECT_EQ(t.failed(), 2u);
  EXPECT_DOUBLE_EQ(t.error_rate(), 2.0 / 3.0);
}

TEST(OpTally, UnsupportedIsNeverSuccess) {
  OpTally t;
  for (int i = 0; i < 4; ++i) t.record(Status(StatusCode::kUnsupported, ""));
  EXPECT_EQ(t.failed(), t.attempted());
  EXPECT_DOUBLE_EQ(t.error_rate(), 1.0);
}

TEST(OpTally, ExpectedErrorCodes) {
  OpTally t;
  // A removed path must report kNotFound: OK there is a failure.
  EXPECT_TRUE(t.expect(Status(StatusCode::kNotFound, ""), StatusCode::kNotFound));
  EXPECT_FALSE(t.expect(Status::ok(), StatusCode::kNotFound));
  EXPECT_FALSE(t.expect(Status(StatusCode::kUnsupported, ""), StatusCode::kNotFound));
  EXPECT_EQ(t.attempted(), 3u);
  EXPECT_EQ(t.failed(), 2u);
}

TEST(OpTally, OutputChecks) {
  OpTally t;
  EXPECT_TRUE(t.check(true));
  EXPECT_FALSE(t.check(false));
  EXPECT_EQ(t.attempted(), 2u);
  EXPECT_EQ(t.failed(), 1u);
}

TEST(OpTally, NothingAttemptedIsNotCorrect) {
  EXPECT_DOUBLE_EQ(OpTally{}.error_rate(), 1.0);
}

TEST(SpanLog, RecordsBothClocksAndParents) {
  SpanLog log;
  const std::uint64_t op = log.new_op();
  const std::uint64_t root = log.begin("root", 0, op, 10);
  const std::uint64_t child = log.begin("child", root, op, 20);
  log.end(child, 30);
  log.end(root, 40);
  ASSERT_EQ(log.spans().size(), 2u);
  const BenchSpan& c = log.spans()[1];
  EXPECT_EQ(c.parent, root);
  EXPECT_EQ(c.op, op);
  EXPECT_EQ(c.sim_start_ns, 20);
  EXPECT_EQ(c.sim_end_ns, 30);
  EXPECT_GE(c.host_end_ns, c.host_start_ns);
  EXPECT_LE(log.spans()[0].host_start_ns, c.host_start_ns);
}

}  // namespace
}  // namespace perfbench
