// Unit tests for the discrete-event engine: scheduling order, coroutine
// task composition, resources, mailboxes, barriers, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/frame_pool.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/body.h"
#include "sim/mailbox.h"
#include "sim/resource.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace dtio::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0);
  EXPECT_EQ(sched.events_processed(), 0u);
}

TEST(Scheduler, DelayAdvancesClock) {
  Scheduler sched;
  SimTime seen = -1;
  sched.spawn([](Scheduler& s, SimTime& out) -> Task<void> {
    co_await s.delay(5 * kMicrosecond);
    out = s.now();
  }(sched, seen));
  sched.run();
  EXPECT_EQ(seen, 5 * kMicrosecond);
}

TEST(Scheduler, SameTimeEventsRunInSpawnOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.spawn([](Scheduler& s, std::vector<int>& out, int id) -> Task<void> {
      co_await s.delay(0);
      out.push_back(id);
    }(sched, order, i));
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, NestedTasksReturnValues) {
  Scheduler sched;
  int result = 0;
  sched.spawn([](Scheduler& s, int& out) -> Task<void> {
    auto child = [](Scheduler& sc, int v) -> Task<int> {
      co_await sc.delay(kMicrosecond);
      co_return v * 2;
    };
    const int a = co_await child(s, 21);
    const int b = co_await child(s, a);
    out = b;
  }(sched, result));
  sched.run();
  EXPECT_EQ(result, 84);
  EXPECT_EQ(sched.now(), 2 * kMicrosecond);
}

TEST(Scheduler, ExceptionInChildPropagatesToParent) {
  Scheduler sched;
  bool caught = false;
  sched.spawn([](Scheduler& s, bool& flag) -> Task<void> {
    auto child = [](Scheduler& sc) -> Task<void> {
      co_await sc.delay(1);
      throw std::runtime_error("boom");
    };
    try {
      co_await child(s);
    } catch (const std::runtime_error&) {
      flag = true;
    }
  }(sched, caught));
  sched.run();
  EXPECT_TRUE(caught);
}

TEST(Scheduler, UncaughtProcessExceptionSurfacesFromRun) {
  Scheduler sched;
  sched.spawn([](Scheduler& s) -> Task<void> {
    co_await s.delay(1);
    throw std::runtime_error("unhandled");
  }(sched));
  EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(Scheduler, TracksProcessCompletion) {
  Scheduler sched;
  for (int i = 0; i < 3; ++i) {
    sched.spawn(
        [](Scheduler& s, int d) -> Task<void> { co_await s.delay(d); }(sched, i));
  }
  EXPECT_EQ(sched.processes_spawned(), 3u);
  sched.run();
  EXPECT_EQ(sched.processes_finished(), 3u);
}

TEST(Resource, SerializesUnitCapacity) {
  Scheduler sched;
  Resource disk(sched, 1);
  std::vector<SimTime> completion;
  for (int i = 0; i < 3; ++i) {
    sched.spawn([](Scheduler& s, Resource& r,
                   std::vector<SimTime>& out) -> Task<void> {
      co_await r.use(10 * kMicrosecond);
      out.push_back(s.now());
    }(sched, disk, completion));
  }
  sched.run();
  ASSERT_EQ(completion.size(), 3u);
  EXPECT_EQ(completion[0], 10 * kMicrosecond);
  EXPECT_EQ(completion[1], 20 * kMicrosecond);
  EXPECT_EQ(completion[2], 30 * kMicrosecond);
}

TEST(Resource, CapacityTwoOverlaps) {
  Scheduler sched;
  Resource pool(sched, 2);
  std::vector<SimTime> completion;
  for (int i = 0; i < 4; ++i) {
    sched.spawn([](Scheduler&, Resource& r, std::vector<SimTime>& out,
                   Scheduler& s) -> Task<void> {
      co_await r.use(10 * kMicrosecond);
      out.push_back(s.now());
    }(sched, pool, completion, sched));
  }
  sched.run();
  ASSERT_EQ(completion.size(), 4u);
  EXPECT_EQ(completion[0], 10 * kMicrosecond);
  EXPECT_EQ(completion[1], 10 * kMicrosecond);
  EXPECT_EQ(completion[2], 20 * kMicrosecond);
  EXPECT_EQ(completion[3], 20 * kMicrosecond);
}

TEST(Resource, FifoFairness) {
  Scheduler sched;
  Resource r(sched, 1);
  std::vector<int> grant_order;
  for (int i = 0; i < 5; ++i) {
    sched.spawn([](Scheduler& s, Resource& res, std::vector<int>& out,
                   int id) -> Task<void> {
      co_await s.delay(id);  // stagger arrival
      co_await res.acquire();
      out.push_back(id);
      co_await s.delay(100);
      res.release();
    }(sched, r, grant_order, i));
  }
  sched.run();
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Resource, BusyIntegralMeasuresUtilization) {
  Scheduler sched;
  Resource r(sched, 1);
  sched.spawn([](Scheduler& s, Resource& res) -> Task<void> {
    co_await res.use(30 * kMicrosecond);
    co_await s.delay(10 * kMicrosecond);
  }(sched, r));
  sched.run();
  EXPECT_DOUBLE_EQ(r.busy_integral(), 30.0 * kMicrosecond);
}

TEST(Resource, BusyIntegralExactUnderContention) {
  Scheduler sched;
  Resource r(sched, 1);
  for (int i = 0; i < 3; ++i) {
    sched.spawn([](Resource& res) -> Task<void> {
      co_await res.use(10 * kMicrosecond);
    }(r));
  }
  sched.run();
  // Three serialized 10us holds; release hands the unit straight to the
  // next waiter (in_use never dips), so the device shows no idle gap:
  // integral exactly 30us over a 30us run -> utilization 1.0.
  EXPECT_EQ(sched.now(), 30 * kMicrosecond);
  EXPECT_DOUBLE_EQ(r.busy_integral(), 30.0 * kMicrosecond);
}

TEST(Resource, BusyIntegralCountsEachUnit) {
  Scheduler sched;
  Resource r(sched, 2);
  for (int i = 0; i < 2; ++i) {
    sched.spawn([](Resource& res) -> Task<void> {
      co_await res.use(10 * kMicrosecond);
    }(r));
  }
  sched.run();
  // Both units busy over the same 10us window: the integral is unit-time,
  // so utilization = 20us / (10us * capacity 2) = 1.0.
  EXPECT_EQ(sched.now(), 10 * kMicrosecond);
  EXPECT_DOUBLE_EQ(r.busy_integral(), 20.0 * kMicrosecond);
}

TEST(Resource, BusyIntegralIncludesOpenHold) {
  Scheduler sched;
  Resource r(sched, 1);
  double mid = -1.0;
  sched.spawn([](Scheduler& s, Resource& res, double& m) -> Task<void> {
    co_await res.acquire();
    co_await s.delay(5 * kMicrosecond);
    m = res.busy_integral();  // still holding: open interval counts
    res.release();
  }(sched, r, mid));
  sched.run();
  EXPECT_DOUBLE_EQ(mid, 5.0 * kMicrosecond);
  EXPECT_DOUBLE_EQ(r.busy_integral(), 5.0 * kMicrosecond);
}

TEST(Mailbox, DeliverBeforeRecv) {
  Scheduler sched;
  Mailbox box(sched);
  box.deliver(Message(3, 7, 0, 42));
  int got = 0;
  sched.spawn([](Mailbox& mb, int& out) -> Task<void> {
    Message m = co_await mb.recv(3, 7);
    out = m.as<int>();
  }(box, got));
  sched.run();
  EXPECT_EQ(got, 42);
}

TEST(Mailbox, RecvBeforeDeliver) {
  Scheduler sched;
  Mailbox box(sched);
  int got = 0;
  sched.spawn([](Mailbox& mb, int& out) -> Task<void> {
    Message m = co_await mb.recv();
    out = m.as<int>();
  }(box, got));
  sched.spawn([](Scheduler& s, Mailbox& mb) -> Task<void> {
    co_await s.delay(kMillisecond);
    mb.deliver(Message(0, 1, 0, 99));
  }(sched, box));
  sched.run();
  EXPECT_EQ(got, 99);
}

TEST(Mailbox, TagFilterSkipsNonMatching) {
  Scheduler sched;
  Mailbox box(sched);
  box.deliver(Message(0, 1, 0, 10));
  box.deliver(Message(0, 2, 0, 20));
  std::vector<int> got;
  sched.spawn([](Mailbox& mb, std::vector<int>& out) -> Task<void> {
    Message m2 = co_await mb.recv(kAnySource, 2);
    out.push_back(m2.as<int>());
    Message m1 = co_await mb.recv(kAnySource, 1);
    out.push_back(m1.as<int>());
  }(box, got));
  sched.run();
  EXPECT_EQ(got, (std::vector<int>{20, 10}));
}

TEST(Mailbox, SourceFilterMatchesSpecificSender) {
  Scheduler sched;
  Mailbox box(sched);
  box.deliver(Message(5, 0, 0, 50));
  box.deliver(Message(6, 0, 0, 60));
  int got = 0;
  sched.spawn([](Mailbox& mb, int& out) -> Task<void> {
    Message m = co_await mb.recv(6, kAnyTag);
    out = m.as<int>();
  }(box, got));
  sched.run();
  EXPECT_EQ(got, 60);
}

TEST(Determinism, SameProgramSameEventCountAndTime) {
  auto run_once = []() -> std::pair<SimTime, std::uint64_t> {
    Scheduler sched;
    Resource r(sched, 2);
    for (int i = 0; i < 4; ++i) {
      sched.spawn([](Scheduler& s, Resource& res, int id) -> Task<void> {
        for (int k = 0; k < 10; ++k) {
          co_await res.use((id + k + 1) * kMicrosecond);
        }
        co_await s.delay(id);
      }(sched, r, i));
    }
    sched.run();
    return {sched.now(), sched.events_processed()};
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
}

TEST(Scheduler, TaskReturnsMoveOnlyValues) {
  Scheduler sched;
  std::unique_ptr<int> result;
  sched.spawn([](Scheduler& s, std::unique_ptr<int>& out) -> Task<void> {
    auto child = [](Scheduler& sc) -> Task<std::unique_ptr<int>> {
      co_await sc.delay(1);
      co_return std::make_unique<int>(99);
    };
    out = co_await child(s);
  }(sched, result));
  sched.run();
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(*result, 99);
}

TEST(Scheduler, ScheduleCallRunsAtTheRightTime) {
  Scheduler sched;
  std::vector<SimTime> fired;
  sched.schedule_call(5 * kMicrosecond, [&] { fired.push_back(sched.now()); });
  sched.schedule_call(2 * kMicrosecond, [&] { fired.push_back(sched.now()); });
  sched.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{2 * kMicrosecond, 5 * kMicrosecond}));
}

TEST(Fire, ExceptionSurfacesFromRun) {
  Scheduler sched;
  sched.spawn([](Scheduler& s) -> Task<void> {
    auto boom = [](Scheduler& sc) -> Fire {
      co_await sc.delay(kMicrosecond);
      throw std::runtime_error("fire failure");
    };
    s.start(boom(s));
    co_await s.delay(kMillisecond);
  }(sched));
  EXPECT_THROW(sched.run(), std::runtime_error);
}

TEST(Fire, FrameSelfDestructs) {
  // Millions of fire-and-forget frames must not accumulate: spawn many and
  // rely on completion (ASan builds catch leaks of still-live frames).
  Scheduler sched;
  std::uint64_t completed = 0;
  sched.spawn([](Scheduler& s, std::uint64_t& done) -> Task<void> {
    auto tick = [](Scheduler& sc, std::uint64_t& d) -> Fire {
      co_await sc.delay(1);
      ++d;
    };
    for (int i = 0; i < 10000; ++i) s.start(tick(s, done));
    co_await s.delay(kMillisecond);
  }(sched, completed));
  sched.run();
  EXPECT_EQ(completed, 10000u);
}

// ---- Event record --------------------------------------------------------

static_assert(std::is_trivially_copyable_v<Scheduler::Event>);
static_assert(sizeof(Scheduler::Event) <= 32);

// ---- Randomized event-order oracle ---------------------------------------
//
// A seeded program of nodes. Issuing a node schedules it `dt` after the
// current time as a coroutine resumption (schedule_at), a callback
// (schedule_call) or a coroutine that first parks in a recv_for that can
// only time out. When a node runs it logs itself and issues its children,
// so callbacks schedule callbacks and resumptions at every depth. The
// scheduler must run the nodes in exactly the order of a naive reference
// that keeps every pending event in a list and always picks the smallest
// (time, seq), with seq counted across every schedule_at / schedule_call
// the scheduler sees (a recv_for timer takes one at park, and its expiry
// one more for the resumption).

enum class NodeKind { kResume, kCall, kTimer };

struct ProgramNode {
  NodeKind kind;
  SimTime dt;       ///< issue-to-run (kTimer: issue-to-park) delay
  SimTime timeout;  ///< kTimer only: recv_for timeout
  std::vector<int> children;
};

struct Program {
  std::vector<ProgramNode> nodes;
  int roots = 0;  ///< nodes [0, roots) are issued before run()
};

Program random_program(std::uint64_t seed, int size) {
  Rng rng(seed);
  // Mostly small delays, so same-tick ties are common.
  constexpr SimTime kDelays[] = {0, 0, 0, 1, 1, 2, 3, 7, 50};
  auto delay = [&] { return kDelays[rng.next_below(std::size(kDelays))]; };
  Program program;
  program.roots = 1 + static_cast<int>(rng.next_below(8));
  for (int i = 0; i < size; ++i) {
    ProgramNode node{static_cast<NodeKind>(rng.next_below(3)), delay(),
                     delay(), {}};
    program.nodes.push_back(node);
    if (i >= program.roots) {
      const auto parent = rng.next_below(static_cast<std::uint64_t>(i));
      program.nodes[parent].children.push_back(i);
    }
  }
  return program;
}

using RunLog = std::vector<std::pair<int, SimTime>>;  ///< (node, run time)

RunLog reference_order(const Program& program, std::uint64_t& events) {
  struct Pending {
    SimTime time;
    std::uint64_t seq;
    int node;
    int stage;  ///< kTimer: 0 park, 1 expiry callback, 2 resumption
  };
  std::vector<Pending> pending;
  std::uint64_t seq = 0;
  SimTime now = 0;
  RunLog log;
  auto issue = [&](int id) {
    pending.push_back({now + program.nodes[id].dt, seq++, id, 0});
  };
  for (int id = 0; id < program.roots; ++id) issue(id);
  events = 0;
  while (!pending.empty()) {
    const auto it = std::min_element(
        pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
          return std::pair(a.time, a.seq) < std::pair(b.time, b.seq);
        });
    const Pending ev = *it;
    pending.erase(it);
    now = ev.time;
    ++events;
    const ProgramNode& node = program.nodes[ev.node];
    if (node.kind == NodeKind::kTimer && ev.stage < 2) {
      const SimTime at = ev.stage == 0 ? now + node.timeout : now;
      pending.push_back({at, seq++, ev.node, ev.stage + 1});
      continue;
    }
    log.emplace_back(ev.node, now);
    for (const int child : node.children) issue(child);
  }
  return log;
}

struct ProgramRunner {
  Scheduler& sched;
  Mailbox& mailbox;
  const Program& program;
  RunLog log;

  void run_node(int id) {
    log.emplace_back(id, sched.now());
    for (const int child : program.nodes[id].children) issue(child);
  }

  void issue(int id) {
    const ProgramNode& node = program.nodes[id];
    const SimTime at = sched.now() + node.dt;
    switch (node.kind) {
      case NodeKind::kResume:
        sched.schedule_at(at, resume(*this, id).handle());
        break;
      case NodeKind::kCall:
        sched.schedule_call(at, [this, id] { run_node(id); });
        break;
      case NodeKind::kTimer:
        sched.schedule_at(at, park_then_resume(*this, id).handle());
        break;
    }
  }

  static Fire resume(ProgramRunner& r, int id) {
    r.run_node(id);
    co_return;
  }

  static Fire park_then_resume(ProgramRunner& r, int id) {
    // Nothing is ever sent on this tag: the receive always expires.
    auto got = co_await r.mailbox.recv_for(kAnySource, 0xDEAD,
                                           r.program.nodes[id].timeout);
    EXPECT_FALSE(got.has_value());
    r.run_node(id);
  }
};

TEST(Scheduler, RandomProgramsRunInReferenceTimeSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Program program = random_program(seed, 400);
    std::uint64_t expected_events = 0;
    const RunLog expected = reference_order(program, expected_events);
    ASSERT_EQ(expected.size(), program.nodes.size());

    Scheduler sched;
    Mailbox mailbox(sched);
    ProgramRunner runner{sched, mailbox, program, {}};
    for (int id = 0; id < program.roots; ++id) runner.issue(id);
    sched.run();
    EXPECT_EQ(runner.log, expected) << "seed " << seed;
    EXPECT_EQ(sched.events_processed(), expected_events) << "seed " << seed;
    EXPECT_EQ(mailbox.waiting(), 0u);
  }
}

// ---- Frame pool ----------------------------------------------------------

TEST(FramePool, ReusesAFreedBlockWithinItsSizeClass) {
  if (!FramePool::kPooled) GTEST_SKIP() << "pool compiled out under ASan";
  FramePool& pool = FramePool::local();
  const std::size_t parked = pool.free_blocks(40);
  void* a = pool.allocate(40);
  pool.deallocate(a, 40);
  // 33..48 bytes share one 16-byte class; the last block freed comes back.
  void* b = pool.allocate(48);
  EXPECT_EQ(a, b);
  void* c = pool.allocate(64);
  EXPECT_NE(c, b);
  pool.deallocate(b, 48);
  pool.deallocate(c, 64);
  EXPECT_EQ(pool.free_blocks(33), std::max<std::size_t>(parked, 1));
}

TEST(FramePool, OversizeRequestsBypassThePool) {
  FramePool& pool = FramePool::local();
  constexpr std::size_t kBig = FramePool::kMaxPooledBytes + 1;
  const std::size_t top_class = pool.free_blocks(FramePool::kMaxPooledBytes);
  void* p = pool.allocate(kBig);
  std::memset(p, 0xAB, kBig);
  pool.deallocate(p, kBig);
  EXPECT_EQ(pool.free_blocks(kBig), 0u);
  EXPECT_EQ(pool.free_blocks(FramePool::kMaxPooledBytes), top_class);
}

TEST(FramePool, CoroutineFramesAreRecycled) {
  if (!FramePool::kPooled) GTEST_SKIP() << "pool compiled out under ASan";
  // Records the frame's address without suspending.
  struct NoteFrame {
    void** out;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) const noexcept {
      *out = h.address();
      return false;
    }
    void await_resume() const noexcept {}
  };
  auto note = [](void** out) -> Task<void> { co_await NoteFrame{out}; };
  void* first = nullptr;
  void* second = nullptr;
  {
    Scheduler sched;
    sched.spawn(note(&first));
    sched.run();
  }  // the scheduler destroys the finished frame
  {
    Scheduler sched;
    sched.spawn(note(&second));
    sched.run();
  }
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second);
}

// ---- Message body --------------------------------------------------------

/// Counts its live instances, so a test can see every copy and every
/// destruction.
struct Counted {
  int* live;
  int value;
  Counted(int* l, int v) : live(l), value(v) { ++*live; }
  Counted(const Counted& o) : live(o.live), value(o.value) { ++*live; }
  Counted(Counted&& o) noexcept : live(o.live), value(o.value) { ++*live; }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --*live; }
};

TEST(Body, MoveStealsCopyClonesAndEachValueIsDestroyedOnce) {
  int live = 0;
  {
    Body a(Counted(&live, 7));
    EXPECT_EQ(live, 1);
    const Counted* held = a.get_if<Counted>();
    ASSERT_NE(held, nullptr);

    Body b(std::move(a));
    EXPECT_FALSE(a.has_value());
    EXPECT_EQ(b.get_if<Counted>(), held);  // same slot, no copy
    EXPECT_EQ(live, 1);

    Body c(b);
    EXPECT_EQ(live, 2);
    ASSERT_NE(c.get_if<Counted>(), nullptr);
    EXPECT_NE(c.get_if<Counted>(), held);
    EXPECT_EQ(c.get_if<Counted>()->value, 7);

    c = b;  // copy-assign over a held value destroys the old one
    EXPECT_EQ(live, 2);
    b = std::move(c);
    EXPECT_EQ(live, 1);
    EXPECT_FALSE(c.has_value());
    EXPECT_EQ(b.get_if<Counted>()->value, 7);

    b.reset();
    EXPECT_EQ(live, 0);
    b = Body(Counted(&live, 9));
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0);
}

TEST(Body, GetIfOnTypeMismatchReturnsNull) {
  Body body(42);
  EXPECT_EQ(body.get_if<long>(), nullptr);
  EXPECT_EQ(body.get_if<unsigned>(), nullptr);
  EXPECT_EQ(body.get_if<Counted>(), nullptr);
  ASSERT_NE(body.get_if<int>(), nullptr);
  EXPECT_EQ(*std::as_const(body).get_if<int>(), 42);
  EXPECT_EQ(Body().get_if<int>(), nullptr);
}

TEST(Body, MessageTakeMovesTheValueOut) {
  Message msg(1, 2, 0, std::vector<int>{1, 2, 3});
  Message copy = msg;
  EXPECT_EQ(msg.as<std::vector<int>>().size(), 3u);
  const std::vector<int> taken = msg.take<std::vector<int>>();
  EXPECT_EQ(taken, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(copy.as<std::vector<int>>(), taken);
}

}  // namespace
}  // namespace dtio::sim
