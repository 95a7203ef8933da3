// Property-based suites: randomized operation sequences and parameterized
// sweeps checking the invariants the simulator's correctness rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

#include "src/android/activity_manager.h"
#include "src/base/rng.h"
#include "src/ice/mapping_table.h"
#include "src/ice/mdt.h"
#include "src/mem/memory_manager.h"
#include "src/proc/behavior.h"
#include "src/proc/freezer.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"
#include "src/storage/flash_profiles.h"
#include "tests/base/zipf_reference.h"

namespace ice {
namespace {

// ---------------------------------------------------------------------------
// Memory accounting invariant: under ANY random mix of touches, reclaims,
// releases and faults, the frame ledger must balance:
//   usable_frames == free + sum(resident) + zram_frames(stored_bytes).
// ---------------------------------------------------------------------------

class MemAccountingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MemAccountingProperty, FrameLedgerAlwaysBalances) {
  Engine engine(GetParam());
  BlockDevice storage(engine, Ufs21Profile());
  MemConfig config;
  config.total_pages = 6000;
  config.os_reserved_pages = 500;
  config.wm = Watermarks::FromHigh(300);
  config.zram.capacity_bytes = 4 * kMiB;
  config.reclaim_contention_mean = 0;
  MemoryManager mm(engine, config, &storage);

  Rng rng(GetParam() * 31 + 7);
  std::vector<std::unique_ptr<AddressSpace>> spaces;
  for (int i = 0; i < 4; ++i) {
    AddressSpaceLayout layout;
    layout.java_pages = 300;
    layout.native_pages = 400;
    layout.file_pages = 500;
    spaces.push_back(std::make_unique<AddressSpace>(i + 1, 100 + i, "app", layout));
    mm.Register(*spaces.back());
  }

  auto check_ledger = [&](const char* when) {
    int64_t resident = 0;
    for (auto& s : spaces) {
      resident += static_cast<int64_t>(s->resident());
    }
    int64_t usable =
        static_cast<int64_t>(config.total_pages) - static_cast<int64_t>(config.os_reserved_pages);
    int64_t zram_frames = static_cast<int64_t>(BytesToPages(mm.zram().stored_bytes()));
    int64_t in_flight = static_cast<int64_t>(mm.faults_in_flight());
    // In-flight flash faults already took a frame but are not yet resident.
    ASSERT_EQ(mm.free_pages() + resident + zram_frames + in_flight, usable) << when;
  };

  for (int op = 0; op < 3000; ++op) {
    AddressSpace& space = *spaces[rng.Below(4)];
    switch (rng.Below(8)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: {  // Touch (read or write).
        uint32_t vpn = rng.Below(static_cast<uint32_t>(space.total_pages()));
        mm.Access(space, vpn, rng.Chance(0.3), nullptr);
        break;
      }
      case 5: {  // kswapd batch.
        mm.KswapdBatch();
        break;
      }
      case 6: {  // Per-process reclaim (rarely).
        if (rng.Chance(0.05)) {
          mm.ReclaimAllOf(space);
        }
        break;
      }
      case 7: {  // Let I/O drain.
        engine.RunFor(Ms(5));
        break;
      }
    }
    if (op % 250 == 0) {
      engine.RunFor(Ms(20));  // Drain in-flight faults before the strict check.
      check_ledger("mid-sequence");
    }
  }
  engine.RunFor(Ms(100));
  check_ledger("final");

  // Release everything: all frames must come back.
  for (auto& s : spaces) {
    mm.Release(*s);
  }
  ASSERT_EQ(mm.free_pages(),
            static_cast<int64_t>(config.total_pages - config.os_reserved_pages));
  ASSERT_EQ(mm.zram().stored_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemAccountingProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Page state machine: after any op sequence, every page is in a coherent
// state w.r.t. its LRU membership, its shadow cookie and zram bookkeeping,
// under every aging x swap policy pair. The cookie and the two-list links
// share one word, so the word must hold links only on a listed page, the
// cookie only on an evicted one, and zero everywhere else. A small zram
// store makes baseline swap hit its capacity rejects and hotness swap write
// anon pages back to flash.
// ---------------------------------------------------------------------------

class PageStateProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, AgingPolicy, SwapPolicy>> {};

TEST_P(PageStateProperty, StatesStayCoherent) {
  const auto [seed, aging, swap] = GetParam();
  Engine engine(seed);
  BlockDevice storage(engine, Emmc51Profile());
  MemConfig config;
  config.total_pages = 3000;
  config.os_reserved_pages = 200;
  config.wm = Watermarks::FromHigh(200);
  config.reclaim_contention_mean = 0;
  config.zram.capacity_bytes = 512 * kKiB;
  config.aging = aging;
  config.swap.policy = swap;
  MemoryManager mm(engine, config, &storage);

  AddressSpaceLayout layout;
  layout.java_pages = 400;
  layout.native_pages = 400;
  layout.file_pages = 800;
  AddressSpace space(1, 1, "app", layout);
  mm.Register(space);

  Rng rng(seed * 97 + 11);
  for (int op = 0; op < 4000; ++op) {
    uint32_t vpn = rng.Below(static_cast<uint32_t>(space.total_pages()));
    switch (rng.Below(4)) {
      case 0:
      case 1:
        mm.Access(space, vpn, rng.Chance(0.5), nullptr);
        break;
      case 2:
        mm.KswapdBatch();
        break;
      case 3:
        engine.RunFor(Ms(3));
        break;
    }
  }
  engine.RunFor(Ms(100));

  const uint32_t pages = static_cast<uint32_t>(space.total_pages());
  uint64_t zram_pages = 0, anon_on_flash = 0;
  PageCount resident = 0, evicted = 0;
  for (const PageInfo& p : space.pages()) {
    const bool anon = IsAnon(space.KindOf(space.VpnOf(p)));
    switch (p.state()) {
      case PageState::kPresent:
        EXPECT_TRUE(p.lru_linked());
        EXPECT_EQ(p.zram_bytes, 0u);
        if (aging == AgingPolicy::kGenClock) {
          EXPECT_EQ(p.lru.prev, 0u);
          EXPECT_EQ(p.lru.next, 0u);
        } else {
          for (uint32_t link : {p.lru.prev, p.lru.next}) {
            EXPECT_TRUE(link == kNoPage || link < pages) << link;
          }
        }
        ++resident;
        break;
      case PageState::kInZram:
        EXPECT_FALSE(p.lru_linked());
        EXPECT_GT(p.zram_bytes, 0u);
        EXPECT_TRUE(anon);
        EXPECT_GT(p.evict_cookie(), 0u);
        zram_pages += 1;
        ++evicted;
        break;
      case PageState::kOnFlash:
        EXPECT_FALSE(p.lru_linked());
        // Only hotness writeback moves an anon page from zram to flash.
        EXPECT_TRUE(!anon || swap == SwapPolicy::kHotness);
        EXPECT_EQ(p.zram_bytes, 0u);
        EXPECT_GT(p.evict_cookie(), 0u);
        anon_on_flash += anon;
        ++evicted;
        break;
      case PageState::kUntouched:
        // Never touched: still the all-zero fresh record.
        EXPECT_EQ(p.bits(), 0u);
        EXPECT_EQ(p.zram_bytes, 0u);
        EXPECT_EQ(p.evict_cookie(), 0u);
        break;
      case PageState::kFaultingIn:
        ADD_FAILURE() << "fault still in flight after drain";
        break;
    }
  }
  EXPECT_EQ(space.resident(), resident);
  EXPECT_EQ(space.evicted(), evicted);
  EXPECT_EQ(mm.zram().stored_pages(), zram_pages);
  if (swap == SwapPolicy::kHotness) {
    EXPECT_GT(anon_on_flash, 0u) << "writeback never ran; the store is too large";
  }
  mm.Release(space);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PageStateProperty,
    ::testing::Combine(::testing::Values(4, 9, 16, 25, 36, 49),
                       ::testing::Values(AgingPolicy::kTwoList, AgingPolicy::kGenClock),
                       ::testing::Values(SwapPolicy::kBaseline, SwapPolicy::kHotness)));

// ---------------------------------------------------------------------------
// LRU size conservation under random churn.
// ---------------------------------------------------------------------------

class LruProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LruProperty, SizesConserveAndNoDoubleLinks) {
  AddressSpaceLayout layout;
  layout.java_pages = 64;
  layout.native_pages = 64;
  layout.file_pages = 128;
  AddressSpace space(1, 1, "app", layout);
  LruLists lru;
  lru.BindArena(&space, space.pages().data(),
                static_cast<uint32_t>(space.pages().size()));
  Rng rng(GetParam());

  std::vector<bool> linked(space.total_pages(), false);
  size_t expected = 0;
  for (int op = 0; op < 5000; ++op) {
    uint32_t vpn = rng.Below(static_cast<uint32_t>(space.total_pages()));
    PageInfo* page = &space.page(vpn);
    switch (rng.Below(5)) {
      case 0:
        if (!linked[vpn]) {
          lru.Insert(page);
          linked[vpn] = true;
          ++expected;
        }
        break;
      case 1:
        if (linked[vpn]) {
          lru.Remove(page);
          linked[vpn] = false;
          --expected;
        }
        break;
      case 2:
        lru.Touch(page);  // Safe on unlinked pages too.
        break;
      case 3:
        lru.Balance(LruPool::kAnon);
        lru.Balance(LruPool::kFile);
        break;
      case 4: {
        std::vector<PageInfo*> victims;
        lru.IsolateCandidates(rng.Chance(0.5) ? LruPool::kAnon : LruPool::kFile, 4, 16,
                              nullptr, victims);
        for (PageInfo* v : victims) {
          linked[space.VpnOf(*v)] = false;
          --expected;
        }
        break;
      }
    }
    ASSERT_EQ(lru.total_size(), expected);
  }
  // Cleanup.
  for (uint32_t vpn = 0; vpn < space.total_pages(); ++vpn) {
    if (linked[vpn]) {
      lru.Remove(&space.page(vpn));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruProperty, ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Scheduler fairness sweep: N equal spinners share the cores near-equally
// for any N.
// ---------------------------------------------------------------------------

struct SpinBehavior : Behavior {
  void Run(TaskContext& ctx) override {
    while (ctx.Compute(Us(100))) {
    }
  }
};

class FairnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(FairnessProperty, EqualWeightsShareEqually) {
  int n = GetParam();
  Engine engine(42);
  MemoryManager mm(engine, MemConfig{}, nullptr);
  Scheduler sched(engine, mm, 4);
  std::vector<Task*> tasks;
  for (int i = 0; i < n; ++i) {
    tasks.push_back(sched.CreateTask("spin" + std::to_string(i), nullptr, 0,
                                     std::make_unique<SpinBehavior>()));
  }
  engine.RunFor(Sec(2));
  double expected = std::min(1.0, 4.0 / n) * Sec(2);
  for (Task* t : tasks) {
    EXPECT_NEAR(static_cast<double>(t->cpu_time_us()), expected, expected * 0.15)
        << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(TaskCounts, FairnessProperty, ::testing::Values(1, 2, 4, 5, 8, 16));

// ---------------------------------------------------------------------------
// Task state machine fuzz: random freeze/thaw/wake/sleep sequences never
// corrupt state or crash, and thaw always restores runnability.
// ---------------------------------------------------------------------------

class TaskFuzzProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TaskFuzzProperty, RandomLifecycleSequencesStaySane) {
  Engine engine(GetParam());
  MemoryManager mm(engine, MemConfig{}, nullptr);
  Scheduler sched(engine, mm, 2);
  struct NapBehavior : Behavior {
    void Run(TaskContext& ctx) override {
      ctx.Compute(Us(50));
      ctx.SleepFor(Ms(2));
    }
  };
  std::vector<Task*> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(
        sched.CreateTask("t" + std::to_string(i), nullptr, 0, std::make_unique<NapBehavior>()));
  }
  Rng rng(GetParam() * 13 + 1);
  for (int op = 0; op < 2000; ++op) {
    Task* t = tasks[rng.Below(6)];
    switch (rng.Below(4)) {
      case 0:
        t->RequestFreeze();
        break;
      case 1:
        t->ThawNow();
        break;
      case 2:
        t->Wake();
        break;
      case 3:
        engine.RunFor(Ms(1));
        break;
    }
    ASSERT_NE(t->state(), TaskState::kDead);
  }
  // Thaw everything: all tasks must be schedulable again.
  for (Task* t : tasks) {
    t->ThawNow();
    t->Wake();
  }
  engine.RunFor(Ms(50));
  for (Task* t : tasks) {
    EXPECT_NE(t->state(), TaskState::kFrozen);
    EXPECT_GT(t->cpu_time_us(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaskFuzzProperty, ::testing::Values(3, 7, 31, 127));

// ---------------------------------------------------------------------------
// Mapping table fuzz vs a std::map reference model.
// ---------------------------------------------------------------------------

class MappingTableFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MappingTableFuzz, MatchesReferenceModel) {
  MappingTable table;
  std::map<Uid, std::map<Pid, int>> model;
  Rng rng(GetParam() * 53 + 17);

  for (int op = 0; op < 5000; ++op) {
    Uid uid = 10000 + static_cast<Uid>(rng.Below(30));
    Pid pid = 100 + static_cast<Pid>(rng.Below(90));
    switch (rng.Below(4)) {
      case 0:
        if (table.AddApp(uid)) {
          model.emplace(uid, std::map<Pid, int>{});
        }
        break;
      case 1: {
        // Real pids are globally unique: never add a pid that is already
        // registered under a different uid.
        bool pid_elsewhere = false;
        for (const auto& [u, procs] : model) {
          if (u != uid && procs.count(pid)) {
            pid_elsewhere = true;
            break;
          }
        }
        if (!pid_elsewhere && table.AddProcess(uid, pid, 900)) {
          model[uid][pid] = 900;
        }
        break;
      }
      case 2:
        if (table.RemoveApp(uid)) {
          model.erase(uid);
        }
        break;
      case 3: {
        Uid expected = kInvalidUid;
        for (const auto& [u, procs] : model) {
          if (procs.count(pid)) {
            expected = u;
            break;
          }
        }
        ASSERT_EQ(table.UidOfPid(pid), expected);
        break;
      }
    }
    ASSERT_EQ(table.app_count(), model.size());
    ASSERT_LE(table.MemoryFootprintBytes(), MappingTable::kUpperBoundBytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingTableFuzz, ::testing::Values(2, 4, 6, 8));

// ---------------------------------------------------------------------------
// Eq. 1 (MDT freezing intensity): for ANY delta — including extreme values
// that overflow int64 when cast unclamped — the freeze duration E_f stays in
// [min_freeze, max_freeze] and is monotonically non-increasing in available
// memory (equivalently: consuming memory never shortens the freeze period).
// ---------------------------------------------------------------------------

class MdtEquationProperty : public ::testing::TestWithParam<double> {};

TEST_P(MdtEquationProperty, FreezeDurationBoundedAndMonotoneInPressure) {
  Engine engine(11);
  BlockDevice storage(engine, Ufs21Profile());
  MemConfig mc;
  mc.total_pages = BytesToPages(512 * kMiB);
  mc.os_reserved_pages = BytesToPages(64 * kMiB);
  mc.wm = Watermarks::FromHigh(BytesToPages(32 * kMiB));
  mc.reclaim_contention_mean = 0;
  MemoryManager mm(engine, mc, &storage);
  Scheduler sched(engine, mm, 4);
  Freezer freezer(engine);
  ActivityManager am(engine, sched, mm, freezer);
  IceConfig ic;
  ic.delta = GetParam();
  ic.hwm_mib = 256;
  Mdt mdt(ic, engine, mm, freezer, am);

  // Consume memory in steps, sampling (available, E_f) along the way. Anon
  // pages subtract from MemAvailable in full (file pages give half back via
  // the file-LRU term), and the sweep stops well above the watermarks so
  // reclaim never interferes with the samples.
  AddressSpaceLayout layout;
  layout.native_pages = BytesToPages(360 * kMiB);
  AddressSpace space(1, 1, "hog", layout);
  mm.Register(space);

  struct Sample {
    PageCount available;
    SimDuration ef;
  };
  std::vector<Sample> samples;
  samples.push_back({mm.available_pages(), mdt.CurrentFreezeDuration()});
  uint32_t step = static_cast<uint32_t>(BytesToPages(8 * kMiB));
  for (uint32_t vpn = 0; vpn < space.total_pages(); ++vpn) {
    mm.Access(space, vpn, false, nullptr);
    if ((vpn + 1) % step == 0) {
      samples.push_back({mm.available_pages(), mdt.CurrentFreezeDuration()});
    }
  }

  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].ef, ic.min_freeze) << "delta=" << ic.delta;
    EXPECT_LE(samples[i].ef, ic.max_freeze) << "delta=" << ic.delta;
    if (i > 0) {
      // Less available memory => freeze period never shrinks.
      ASSERT_LE(samples[i].available, samples[i - 1].available);
      EXPECT_GE(samples[i].ef, samples[i - 1].ef)
          << "E_f shrank as memory tightened (delta=" << ic.delta << ", step " << i << ")";
    }
  }
  // The sweep must actually exercise a range of pressures.
  EXPECT_LT(samples.back().available, samples.front().available / 2);
  mm.Release(space);
}

INSTANTIATE_TEST_SUITE_P(Deltas, MdtEquationProperty,
                         ::testing::Values(0.0, 0.25, 1.0, 8.0, 64.0, 1e6, 1e18));

// ---------------------------------------------------------------------------
// Zipf draws through the pow tables: 10M twin-seeded draws for each (s, n)
// the benchmark workloads draw from must give the two-pow reference's rank,
// draw by draw, and leave both generators with the same Transfer bytes.
// s = 0.55 is the foreground scenario's, 0.05 and 0.7 the background
// bursts'; n spans the hot-set sizes of the Fig. 9 sweep (3,072 to 94,195)
// and the largest a fleet device draws from (133,900). Prints how many
// draws fell back to std::pow.
// ---------------------------------------------------------------------------

class ZipfTableProperty : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(ZipfTableProperty, RanksMatchTwoPowReference) {
  constexpr int kDraws = 10'000'000;
  const auto [s, n] = GetParam();
  const double one_minus_s = 1.0 - s;
  const PowTable* table = PowTable::For(1.0 / one_minus_s);
  ASSERT_NE(table, nullptr);
  const double hn = (std::pow(static_cast<double>(n), one_minus_s) - 1.0) / one_minus_s;
  const uint64_t seed = n * 1000 + static_cast<uint64_t>(s * 100);
  Rng rng(seed), ref(seed);
  ZipfDist zipf(n, s);
  uint64_t fallbacks = 0;
  for (int i = 0; i < kDraws; ++i) {
    Rng peek = ref;  // Replays the draw's u to see whether it took the table.
    fallbacks += table->Floor(peek.NextDouble() * hn * one_minus_s + 1.0) == 0 ? 1 : 0;
    ASSERT_EQ(zipf.Sample(rng), ReferenceZipf(ref, n, s)) << "draw " << i;
  }
  EXPECT_EQ(StateBytes(rng), StateBytes(ref));
  std::printf("[ zipf ] s=%.2f n=%llu draws=%d fallbacks=%llu\n", s,
              static_cast<unsigned long long>(n), kDraws,
              static_cast<unsigned long long>(fallbacks));
}

INSTANTIATE_TEST_SUITE_P(WorkloadPairs, ZipfTableProperty,
                         ::testing::Combine(::testing::Values(0.05, 0.55, 0.7),
                                            ::testing::Values(uint64_t{3072}, uint64_t{12840},
                                                              uint64_t{63641}, uint64_t{94195},
                                                              uint64_t{133900})));

// ---------------------------------------------------------------------------
// Determinism: identical seeds give identical end-to-end results.
// ---------------------------------------------------------------------------

TEST(Determinism, SameSeedSameTrajectory) {
  auto run = [](uint64_t seed) {
    Engine engine(seed);
    BlockDevice storage(engine, Ufs21Profile());
    MemConfig config;
    config.total_pages = 4000;
    config.os_reserved_pages = 300;
    config.wm = Watermarks::FromHigh(200);
    MemoryManager mm(engine, config, &storage);
    AddressSpaceLayout layout;
    layout.java_pages = 500;
    layout.native_pages = 500;
    layout.file_pages = 1000;
    AddressSpace space(1, 1, "app", layout);
    mm.Register(space);
    Rng rng(seed + 1);
    for (int i = 0; i < 5000; ++i) {
      mm.Access(space, rng.Below(2000), rng.Chance(0.3), nullptr);
      if (i % 50 == 0) {
        mm.KswapdBatch();
        engine.RunFor(Ms(1));
      }
    }
    auto snapshot = engine.stats().Snapshot();
    mm.Release(space);
    return snapshot;
  };
  EXPECT_EQ(run(12345), run(12345));
  EXPECT_NE(run(12345), run(54321));
}

}  // namespace
}  // namespace ice
