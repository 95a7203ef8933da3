#include "src/proc/behavior.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/base/binary_stream.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"
#include "src/storage/flash_profiles.h"
#include "tests/mem/vpn_runs.h"

namespace ice {
namespace {

MemConfig TinyConfig() {
  MemConfig config;
  config.total_pages = 4000;
  config.os_reserved_pages = 200;
  config.wm = Watermarks::FromHigh(120);
  config.reclaim_contention_mean = 0;
  return config;
}

AddressSpaceLayout Layout(PageCount n) {
  AddressSpaceLayout layout;
  layout.native_pages = n / 2;
  layout.file_pages = n / 2;
  return layout;
}

class BehaviorTest : public ::testing::Test {
 protected:
  BehaviorTest()
      : storage_(engine_, Ufs21Profile()),
        mm_(engine_, TinyConfig(), &storage_),
        sched_(engine_, mm_, 4) {}

  Engine engine_{1};
  BlockDevice storage_;
  MemoryManager mm_;
  Scheduler sched_;
};

TEST_F(BehaviorTest, WorkQueueCompletesItemsInOrder) {
  auto wq = std::make_unique<WorkQueueBehavior>();
  WorkQueueBehavior* q = wq.get();
  Task* t = sched_.CreateTask("wq", nullptr, 0, std::move(wq));
  q->BindTask(t);

  std::vector<int> completed;
  for (int i = 0; i < 3; ++i) {
    WorkItem item;
    item.compute_us = Ms(2);
    item.on_complete = [&completed, i] { completed.push_back(i); };
    q->Push(std::move(item));
  }
  engine_.RunFor(Ms(20));
  EXPECT_EQ(completed, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q->completed(), 3u);
  EXPECT_EQ(q->pending(), 0u);
}

TEST_F(BehaviorTest, WorkQueueComputeTakesProportionalTime) {
  auto wq = std::make_unique<WorkQueueBehavior>();
  WorkQueueBehavior* q = wq.get();
  Task* t = sched_.CreateTask("wq", nullptr, 0, std::move(wq));
  q->BindTask(t);

  SimTime done_at = 0;
  WorkItem item;
  item.compute_us = Ms(10);
  item.on_complete = [&] { done_at = engine_.now(); };
  q->Push(std::move(item));
  engine_.RunFor(Ms(30));
  EXPECT_GE(done_at, Ms(9));
  EXPECT_LE(done_at, Ms(13));
}

TEST_F(BehaviorTest, WorkQueueWakesSleepingTaskOnPush) {
  auto wq = std::make_unique<WorkQueueBehavior>();
  WorkQueueBehavior* q = wq.get();
  Task* t = sched_.CreateTask("wq", nullptr, 0, std::move(wq));
  q->BindTask(t);
  engine_.RunFor(Ms(3));
  ASSERT_EQ(t->state(), TaskState::kSleeping);

  bool done = false;
  WorkItem item;
  item.compute_us = Us(100);
  item.on_complete = [&] { done = true; };
  q->Push(std::move(item));
  EXPECT_EQ(t->state(), TaskState::kRunnable);
  engine_.RunFor(Ms(3));
  EXPECT_TRUE(done);
}

TEST_F(BehaviorTest, WorkQueueTouchesFaultAndBlock) {
  AddressSpace space(1, 1, "a", Layout(200));
  mm_.Register(space);
  // Fault in + evict a file page so the touch must block on flash.
  uint32_t file_vpn = space.file_begin();
  mm_.Access(space, file_vpn, false, nullptr);
  mm_.ReclaimAllOf(space);
  ASSERT_EQ(space.page(file_vpn).state(), PageState::kOnFlash);

  auto wq = std::make_unique<WorkQueueBehavior>();
  WorkQueueBehavior* q = wq.get();
  Task* t = sched_.CreateTask("wq", nullptr, 0, std::move(wq));
  q->BindTask(t);

  bool done = false;
  WorkItem item;
  item.space = &space;
  item.runs = {{file_vpn, 1}};
  item.compute_us = Us(50);
  item.on_complete = [&] { done = true; };
  q->Push(std::move(item));

  engine_.RunFor(Ms(2));
  // The task must have blocked on the flash read at least briefly.
  engine_.RunFor(Ms(50));
  EXPECT_TRUE(done);
  EXPECT_EQ(space.page(file_vpn).state(), PageState::kPresent);
  mm_.Release(space);
}

TEST_F(BehaviorTest, KswapdSleepsUntilWokenAndReclaims) {
  Task* kswapd = sched_.CreateTask("kswapd0", nullptr, 0, std::make_unique<KswapdBehavior>());
  mm_.set_kswapd_waker([kswapd] { kswapd->Wake(); });
  engine_.RunFor(Ms(5));
  EXPECT_EQ(kswapd->state(), TaskState::kSleeping);

  AddressSpace space(1, 1, "a", Layout(3800));
  mm_.Register(space);
  for (uint32_t vpn = 0; vpn < 3720; ++vpn) {
    mm_.Access(space, vpn, false, nullptr);
  }
  // free is now 80 <= low: kswapd woken by the mm.
  EXPECT_EQ(kswapd->state(), TaskState::kRunnable);
  engine_.RunFor(Sec(1));
  EXPECT_GE(mm_.free_pages(), static_cast<int64_t>(mm_.watermarks().high));
  EXPECT_EQ(kswapd->state(), TaskState::kSleeping);
  EXPECT_GT(kswapd->cpu_time_us(), 0u);
  mm_.Release(space);
}

TEST_F(BehaviorTest, PeriodicLoadApproximatesDutyCycle) {
  PeriodicLoadBehavior::Params params;
  params.period = Ms(10);
  params.compute_us = Ms(3);
  params.jitter = 0.0;
  Task* t = sched_.CreateTask("periodic", nullptr, 0,
                              std::make_unique<PeriodicLoadBehavior>(params));
  engine_.RunFor(Sec(2));
  double duty = static_cast<double>(t->cpu_time_us()) / Sec(2);
  EXPECT_NEAR(duty, 0.3, 0.05);
}

// Restores a PeriodicLoadBehavior's progress from a stream holding these
// field values, in its Transfer order.
void RestoreLoadProgress(PeriodicLoadBehavior& behavior, SimDuration remaining_compute,
                         uint32_t remaining_touches, bool started) {
  BinaryWriter w;
  w.U64(remaining_compute);
  w.U32(remaining_touches);
  w.U8(started);
  std::vector<uint8_t> buf = w.Finish();
  BinaryReader r(buf);
  SnapshotArchive load(r);
  behavior.Transfer(load);
}

// The behavior has no touch path, so restore rejects any touch countdown,
// and any compute countdown above the configured burst.
TEST(PeriodicLoadRestore, RejectsCountdownAboveItsBurst) {
  PeriodicLoadBehavior::Params params;
  params.compute_us = Us(500);
  PeriodicLoadBehavior service(params);
  EXPECT_THROW(RestoreLoadProgress(service, 0, 3, true), std::runtime_error);
  EXPECT_THROW(RestoreLoadProgress(service, Us(501), 0, true), std::runtime_error);
  EXPECT_NO_THROW(RestoreLoadProgress(service, Us(500), 0, true));
  EXPECT_NO_THROW(RestoreLoadProgress(service, Us(200), 0, true));
}

TEST(PeriodicLoadRestore, RejectsLeftoversBeforeStart) {
  PeriodicLoadBehavior::Params params;
  params.compute_us = Us(500);
  PeriodicLoadBehavior load(params);
  EXPECT_THROW(RestoreLoadProgress(load, Us(100), 0, false), std::runtime_error);
  EXPECT_THROW(RestoreLoadProgress(load, 0, 2, false), std::runtime_error);
  EXPECT_NO_THROW(RestoreLoadProgress(load, 0, 0, false));
  EXPECT_NO_THROW(RestoreLoadProgress(load, Us(100), 0, true));
}

TEST_F(BehaviorTest, ContextReportsBudget) {
  struct Probe : Behavior {
    void Run(TaskContext& ctx) override {
      budget = ctx.budget();
      ctx.Compute(Us(10));
      used_after = ctx.used();
      ctx.SleepUntilWoken();
    }
    SimDuration budget = 0;
    SimDuration used_after = 0;
  };
  auto behavior = std::make_unique<Probe>();
  Probe* probe = behavior.get();
  sched_.CreateTask("probe", nullptr, 0, std::move(behavior));
  engine_.RunFor(Ms(2));
  EXPECT_EQ(probe->budget, Engine::kTick);
  EXPECT_EQ(probe->used_after, Us(10));
}

// ---- Run path vs per-page path ----------------------------------------------
//
// One work item runs on two identical devices: through WorkQueueBehavior
// (TaskContext::TouchRuns, the memory manager's run loop) on one, and
// through the per-page reference below (one Access call per page, via
// TaskContext::Touch) on the other. Both get the same quanta, so every
// page record, LRU list, counter, free-page figure, RNG state and task
// charge must come out the same.

// The work-queue loop as it was before runs: the item's vpns one at a time,
// then its compute, then sleep.
class PerPageItemBehavior : public Behavior {
 public:
  PerPageItemBehavior(AddressSpace* space, std::vector<uint32_t> vpns, bool write,
                      SimDuration compute_us, SimTime* done_at)
      : space_(space), vpns_(std::move(vpns)), write_(write), compute_us_(compute_us),
        done_at_(done_at) {}

  void Run(TaskContext& ctx) override {
    while (!ctx.ShouldStop()) {
      if (finished_) {
        ctx.SleepUntilWoken();
        return;
      }
      while (next_ < vpns_.size()) {
        uint32_t vpn = vpns_[next_++];
        ctx.Touch(*space_, vpn, write_);
        if (ctx.ShouldStop()) {
          return;
        }
      }
      if (compute_us_ > 0) {
        SimDuration rem = ctx.budget() > ctx.used() ? ctx.budget() - ctx.used() : 0;
        SimDuration chunk = std::min(compute_us_, std::max<SimDuration>(rem, 1));
        ctx.Compute(chunk);
        compute_us_ -= chunk;
        if (compute_us_ > 0) {
          if (ctx.ShouldStop()) {
            return;
          }
          continue;
        }
      }
      finished_ = true;
      *done_at_ = ctx.now();
    }
  }

 private:
  AddressSpace* space_;
  std::vector<uint32_t> vpns_;
  bool write_;
  SimDuration compute_us_;
  SimTime* done_at_;
  size_t next_ = 0;
  bool finished_ = false;
};

enum class RunCase {
  kBudgetInsideRun,      // Quanta end inside the prefix runs.
  kCrossesLowWatermark,  // kswapd wakes mid-run; contention draws start.
  kAtMinWatermark,       // Every first touch at min enters direct reclaim.
  kZramAndFlashMidRun,   // An in-zram and an on-flash page inside the runs.
  kWriteFileRun,         // write=true: file pages turn dirty.
};

const char* RunCaseName(RunCase c) {
  switch (c) {
    case RunCase::kBudgetInsideRun:
      return "BudgetInsideRun";
    case RunCase::kCrossesLowWatermark:
      return "CrossesLowWatermark";
    case RunCase::kAtMinWatermark:
      return "AtMinWatermark";
    case RunCase::kZramAndFlashMidRun:
      return "ZramAndFlashMidRun";
    case RunCase::kWriteFileRun:
      return "WriteFileRun";
  }
  return "?";
}

AddressSpaceLayout AppLayout() {
  AddressSpaceLayout layout;
  layout.java_pages = 600;
  layout.native_pages = 600;
  layout.file_pages = 1200;
  return layout;
}

// A launch-shaped item: the file, java and native prefixes as three runs,
// then frame-like singletons (hits and first touches) and one run of two.
std::vector<VpnRun> ItemRuns(const AddressSpace& space) {
  std::vector<VpnRun> runs = {
      {space.file_begin(), 500}, {space.java_begin(), 300}, {space.native_begin(), 300}};
  for (uint32_t i = 1; i <= 40; ++i) {
    runs.push_back({(i * 7919u) % static_cast<uint32_t>(space.total_pages()), 1});
  }
  runs.push_back({space.native_begin() + 450, 2});
  return runs;
}

// One device: 4,000 pages (200 reserved), watermarks high 120, low 100,
// min 80, the item's space and a filler space that sets free memory.
struct Device {
  Device(AgingPolicy aging, bool with_kswapd)
      : storage(engine, Ufs21Profile()),
        mm(engine, Config(aging), &storage),
        sched(engine, mm, 1),
        space(1, 1, "app", AppLayout()),
        filler(2, 2, "filler", Layout(7600)) {
    mm.Register(space);
    mm.Register(filler);
    if (with_kswapd) {
      kswapd = sched.CreateTask("kswapd0", nullptr, 0, std::make_unique<KswapdBehavior>());
      mm.set_kswapd_waker([k = kswapd] { k->Wake(); });
    }
  }

  static MemConfig Config(AgingPolicy aging) {
    MemConfig config = TinyConfig();
    config.aging = aging;
    config.reclaim_contention_mean = Us(450);
    return config;
  }

  // First-touches filler pages until `free` pages are free.
  void FillTo(int64_t free) {
    for (uint32_t vpn = 0; mm.free_pages() > free; ++vpn) {
      mm.Access(filler, vpn, false, nullptr);
    }
  }

  std::vector<uint8_t> SaveMm() {
    BinaryWriter w;
    SnapshotArchive ar(w);
    mm.Transfer(ar);
    return w.Finish();
  }

  Engine engine{1};
  BlockDevice storage;
  MemoryManager mm;
  Scheduler sched;
  AddressSpace space;
  AddressSpace filler;
  Task* kswapd = nullptr;
  Task* worker = nullptr;
  SimTime done_at = 0;
};

// Every LRU list of `space`, head to tail, as (vpn, list) pairs: two-list
// order is anon inactive, anon active, file inactive, file active. The
// gen-clock policy keeps no links, so there each linked page is listed with
// its generation, in arena order.
std::vector<std::pair<uint32_t, int>> LruWalk(AddressSpace& space) {
  std::span<PageInfo> pages = space.pages();
  std::vector<std::pair<uint32_t, int>> walk;
  if (space.lru().aging() == AgingPolicy::kGenClock) {
    for (uint32_t vpn = 0; vpn < pages.size(); ++vpn) {
      if (pages[vpn].lru_linked()) {
        walk.emplace_back(vpn, pages[vpn].generation());
      }
    }
    return walk;
  }
  for (int list = 0; list < 4; ++list) {
    const bool file = list >= 2;
    const bool active = list % 2 == 1;
    uint32_t begin = file ? space.file_begin() : 0;
    uint32_t end = file ? space.file_end() : space.file_begin();
    uint32_t head = kNoPage;
    for (uint32_t vpn = begin; vpn < end && head == kNoPage; ++vpn) {
      const PageInfo& p = pages[vpn];
      if (p.lru_linked() && p.active() == active && p.lru.prev == kNoPage) {
        head = vpn;
      }
    }
    size_t length = 0;
    for (uint32_t vpn = head; vpn != kNoPage; vpn = pages[vpn].lru.next) {
      walk.emplace_back(vpn, list);
      ++length;
    }
    LruPool pool = file ? LruPool::kFile : LruPool::kAnon;
    EXPECT_EQ(length, active ? space.lru().active_size(pool) : space.lru().inactive_size(pool))
        << "list " << list << " is not one chain from its head";
  }
  return walk;
}

void ExpectSameSpace(AddressSpace& run, AddressSpace& ref) {
  SCOPED_TRACE(run.name());
  std::span<PageInfo> a = run.pages();
  std::span<PageInfo> b = ref.pages();
  ASSERT_EQ(a.size(), b.size());
  for (uint32_t vpn = 0; vpn < a.size(); ++vpn) {
    ASSERT_EQ(std::memcmp(&a[vpn], &b[vpn], sizeof(PageInfo)), 0)
        << "page record " << vpn << " differs: state " << static_cast<int>(a[vpn].state())
        << " vs " << static_cast<int>(b[vpn].state()) << ", bits " << a[vpn].bits() << " vs "
        << b[vpn].bits();
  }
  EXPECT_EQ(LruWalk(run), LruWalk(ref));
  EXPECT_EQ(run.resident(), ref.resident());
  EXPECT_EQ(run.evicted(), ref.evicted());
}

void ExpectSameTask(const Task* run, const Task* ref) {
  ASSERT_NE(run, nullptr);
  ASSERT_NE(ref, nullptr);
  SCOPED_TRACE(run->name());
  EXPECT_EQ(run->cpu_time_us(), ref->cpu_time_us());
  EXPECT_EQ(run->vruntime_us(), ref->vruntime_us());
  EXPECT_EQ(run->debt_us(), ref->debt_us());
  EXPECT_EQ(run->state(), ref->state());
}

class RunPathTest : public ::testing::TestWithParam<std::tuple<AgingPolicy, RunCase>> {
 protected:
  AgingPolicy aging() const { return std::get<0>(GetParam()); }
  RunCase run_case() const { return std::get<1>(GetParam()); }
  bool with_kswapd() const { return run_case() != RunCase::kAtMinWatermark; }
  bool write() const { return run_case() == RunCase::kWriteFileRun; }

  // Brings a device to the case's starting state, the same on both sides.
  void Prepare(Device& d) {
    AddressSpace& s = d.space;
    if (run_case() == RunCase::kZramAndFlashMidRun) {
      d.mm.Access(s, s.java_begin() + 150, false, nullptr);
      d.mm.Access(s, s.file_begin() + 250, false, nullptr);
      d.mm.ReclaimAllOf(s);
      ASSERT_EQ(s.page(s.java_begin() + 150).state(), PageState::kInZram);
      ASSERT_EQ(s.page(s.file_begin() + 250).state(), PageState::kOnFlash);
    }
    // Hits inside the file and java prefix runs.
    for (uint32_t i = 100; i < 150; ++i) {
      d.mm.Access(s, s.file_begin() + i, false, nullptr);
    }
    for (uint32_t i = 200; i < 220; ++i) {
      d.mm.Access(s, s.java_begin() + i, false, nullptr);
    }
    const Watermarks& wm = d.mm.watermarks();
    if (run_case() == RunCase::kCrossesLowWatermark) {
      // 41 first touches into the file run, free drops below low.
      d.FillTo(static_cast<int64_t>(wm.low) + 40);
      ASSERT_EQ(d.engine.stats().Get(stat::kKswapdWakeups), 0u);
    } else if (run_case() == RunCase::kAtMinWatermark) {
      d.FillTo(static_cast<int64_t>(wm.min));
    }
  }

  void ExpectCaseHappened(Device& d, const std::vector<uint32_t>& vpns) {
    StatsRegistry& st = d.engine.stats();
    AddressSpace& s = d.space;
    // Every page was touched at least once and is now resident or evicted
    // by reclaim afterwards; none is left untouched.
    for (uint32_t vpn : vpns) {
      EXPECT_NE(s.page(vpn).state(), PageState::kUntouched) << vpn;
    }
    // More than one quantum: the budget ran out inside the runs.
    EXPECT_GT(d.worker->cpu_time_us(), 4 * Engine::kTick);
    switch (run_case()) {
      case RunCase::kBudgetInsideRun:
      case RunCase::kWriteFileRun:
        EXPECT_EQ(st.Get(stat::kKswapdWakeups), 0u);
        EXPECT_EQ(st.Get(stat::kDirectReclaims), 0u);
        break;
      case RunCase::kCrossesLowWatermark:
        // Prepare left kswapd asleep, so the item woke it, and every first
        // touch after that drew a contention penalty (the draws are compared
        // through the memory manager's snapshot bytes). kswapd, on the
        // item's one core, falls behind, so direct reclaim follows too.
        EXPECT_GE(st.Get(stat::kKswapdWakeups), 1u);
        EXPECT_GT(d.kswapd->cpu_time_us(), 0u);
        break;
      case RunCase::kAtMinWatermark:
        EXPECT_GE(st.Get(stat::kDirectReclaims), 1u);
        break;
      case RunCase::kZramAndFlashMidRun:
        EXPECT_EQ(st.Get(stat::kZramLoads), 1u);
        EXPECT_EQ(st.Get(stat::kRefaults), 2u);
        break;
    }
    bool any_dirty = false;
    for (uint32_t vpn = s.file_begin(); vpn < s.file_end(); ++vpn) {
      any_dirty = any_dirty || s.page(vpn).dirty();
    }
    EXPECT_EQ(any_dirty, write());
  }
};

TEST_P(RunPathTest, MatchesPerPageAccessLoop) {
  Device run(aging(), with_kswapd());
  Device ref(aging(), with_kswapd());
  Prepare(run);
  Prepare(ref);
  const std::vector<VpnRun> runs = ItemRuns(run.space);
  const std::vector<uint32_t> vpns = ExpandRuns(runs);
  const SimDuration compute = Us(300);

  auto wq = std::make_unique<WorkQueueBehavior>();
  WorkQueueBehavior* q = wq.get();
  run.worker = run.sched.CreateTask("worker", nullptr, 0, std::move(wq));
  q->BindTask(run.worker);
  WorkItem item;
  item.space = &run.space;
  item.runs = runs;
  item.write = write();
  item.compute_us = compute;
  item.on_complete = [&run] { run.done_at = run.engine.now(); };
  q->Push(std::move(item));

  ref.worker = ref.sched.CreateTask(
      "worker", nullptr, 0,
      std::make_unique<PerPageItemBehavior>(&ref.space, vpns, write(), compute, &ref.done_at));

  // Tick by tick, so each quantum's charge is compared, not only the sums.
  for (SimTime t = 0; t < Sec(3); t += Engine::kTick) {
    run.engine.RunFor(Engine::kTick);
    ref.engine.RunFor(Engine::kTick);
    ASSERT_EQ(run.worker->cpu_time_us(), ref.worker->cpu_time_us()) << "at " << t;
    ASSERT_EQ(run.worker->debt_us(), ref.worker->debt_us()) << "at " << t;
  }
  ASSERT_EQ(q->completed(), 1u);
  ASSERT_GT(run.done_at, 0u);
  EXPECT_EQ(run.done_at, ref.done_at);

  ExpectSameSpace(run.space, ref.space);
  ExpectSameSpace(run.filler, ref.filler);
  EXPECT_EQ(run.engine.stats().Snapshot(), ref.engine.stats().Snapshot());
  EXPECT_EQ(run.mm.free_pages(), ref.mm.free_pages());
  // The memory manager's snapshot holds the contention RNG, zram store,
  // shadow sequence and frame accounting.
  EXPECT_TRUE(run.SaveMm() == ref.SaveMm()) << "memory manager state differs";
  ExpectSameTask(run.worker, ref.worker);
  if (with_kswapd()) {
    ExpectSameTask(run.kswapd, ref.kswapd);
  }
  ExpectCaseHappened(run, vpns);
}

INSTANTIATE_TEST_SUITE_P(
    AgingAndCase, RunPathTest,
    ::testing::Combine(::testing::Values(AgingPolicy::kTwoList, AgingPolicy::kGenClock),
                       ::testing::Values(RunCase::kBudgetInsideRun,
                                         RunCase::kCrossesLowWatermark,
                                         RunCase::kAtMinWatermark,
                                         RunCase::kZramAndFlashMidRun,
                                         RunCase::kWriteFileRun)),
    [](const ::testing::TestParamInfo<RunPathTest::ParamType>& p) {
      return std::string(std::get<0>(p.param) == AgingPolicy::kTwoList ? "TwoList"
                                                                        : "GenClock") +
             RunCaseName(std::get<1>(p.param));
    });

}  // namespace
}  // namespace ice
