#include "src/harness/fleet.h"

#include <set>

#include <gtest/gtest.h>

#include "src/android/device_profile.h"
#include "src/harness/fleet_report.h"

namespace ice {
namespace {

// Small but real: every cell constructs a full device and runs one session.
FleetConfig SmokeConfig() {
  FleetConfig c;
  c.devices = 12;
  c.seed = 17;
  c.schemes = {"lru_cfs", "ice"};
  c.tiers = {"mid-4g", "high-6g"};
  c.sessions = 1;
  c.session_mean = Sec(2);
  c.chunk = 3;
  return c;
}

TEST(FleetRunnerTest, StratifiedGroupAssignment) {
  FleetConfig c = SmokeConfig();
  c.jobs = 1;
  FleetRunner runner(c);
  ASSERT_EQ(runner.num_groups(), 4u);
  // Tier-major, scheme-minor: group 0 = (mid-4g, lru_cfs), 1 = (mid-4g, ice)...
  EXPECT_EQ(runner.GroupOf(0), 0u);
  EXPECT_EQ(runner.GroupOf(1), 1u);
  EXPECT_EQ(runner.GroupOf(4), 0u);
  EXPECT_EQ(runner.GroupOf(7), 3u);
}

TEST(FleetRunnerTest, DeviceSeedsAreDecorrelated) {
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(FleetRunner::DeviceSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
  // Different fleet seeds give different device streams.
  EXPECT_NE(FleetRunner::DeviceSeed(1, 0), FleetRunner::DeviceSeed(2, 0));
}

TEST(FleetRunnerTest, DefaultTiersAndAutoChunkResolve) {
  FleetConfig c;
  c.devices = 100000;
  FleetRunner runner(c);
  EXPECT_EQ(runner.config().tiers, FleetTierNames());
  // Auto chunk is a function of the device count only and is clamped.
  EXPECT_EQ(runner.chunk_size(), 256u);
  EXPECT_EQ(runner.num_chunks(), (100000u + 255u) / 256u);
  FleetConfig tiny;
  tiny.devices = 10;
  EXPECT_EQ(FleetRunner(tiny).chunk_size(), 1u);
}

// Both policy axes are rejected up front, not inside a worker's first device.
TEST(FleetRunnerDeathTest, UnknownPolicyNamesFailAtConstruction) {
  FleetConfig bad_aging = SmokeConfig();
  bad_aging.aging = "lru_k";
  EXPECT_DEATH(FleetRunner{bad_aging}, "unknown aging policy: lru_k");
  FleetConfig bad_swap = SmokeConfig();
  bad_swap.swap = "zswap";
  EXPECT_DEATH(FleetRunner{bad_swap}, "unknown swap policy: zswap");
}

TEST(FleetRunnerTest, EmptyFleetProducesEmptyGroups) {
  FleetConfig c = SmokeConfig();
  c.devices = 0;
  c.jobs = 4;
  FleetResult r = FleetRunner(c).Run();
  ASSERT_EQ(r.groups.size(), 4u);
  for (const FleetGroupStats& g : r.groups) {
    EXPECT_EQ(g.devices, 0u);
    EXPECT_EQ(g.failures, 0u);
  }
  // The report still serializes (schema smoke).
  EXPECT_NE(FleetReportJson("empty", r).find("\"groups\""), std::string::npos);
}

// The determinism contract: fleet output is byte-identical for any jobs=N.
// This is the in-process twin of the CI leg that diffs --jobs=1 vs --jobs=8.
TEST(FleetRunnerTest, ReportIsByteIdenticalAcrossJobCounts) {
  FleetConfig serial_config = SmokeConfig();
  serial_config.jobs = 1;
  FleetResult serial = FleetRunner(serial_config).Run();

  FleetConfig parallel_config = SmokeConfig();
  parallel_config.jobs = 8;
  FleetResult parallel = FleetRunner(parallel_config).Run();

  EXPECT_EQ(serial.devices_failed, 0u);
  EXPECT_EQ(FleetReportJson("x", serial), FleetReportJson("x", parallel));

  // Every device landed in its group; stratification splits 12 devices
  // evenly across 4 groups.
  uint64_t total = 0;
  for (const FleetGroupStats& g : serial.groups) {
    EXPECT_EQ(g.devices, 3u) << g.tier << "/" << g.scheme;
    total += g.devices;
    EXPECT_GT(g.total_frames, 0u) << g.tier << "/" << g.scheme;
    EXPECT_EQ(g.fps.count(), g.devices);
    EXPECT_EQ(g.ria.count(), g.devices);
    // Arena accounting flowed through from the per-device MemoryManager.
    EXPECT_GT(g.peak_arena_bytes, 0u);
  }
  EXPECT_EQ(total, serial_config.devices);
  EXPECT_GE(serial.peak_arena_bytes, serial.groups[0].peak_arena_bytes);
}

// The same contract across every tier of the ladder, both aging policies and
// both swap policies. One device per (tier, scheme) group keeps every
// combination inside the smoke budget.
TEST(FleetRunnerTest, ByteIdenticalAcrossJobsTiersAgingsSwaps) {
  for (const char* aging : {"two_list", "gen_clock"}) {
    for (const char* swap : {"baseline", "hotness"}) {
      SCOPED_TRACE(std::string(aging) + "/" + swap);
      FleetConfig serial;
      serial.devices = 10;  // 5 tiers x 2 schemes, 1 device per group.
      serial.seed = 99;
      serial.schemes = {"lru_cfs", "ice"};
      serial.aging = aging;
      serial.swap = swap;
      serial.sessions = 1;
      serial.session_mean = Sec(2);
      serial.jobs = 1;
      FleetResult serial_result = FleetRunner(serial).Run();
      ASSERT_EQ(serial_result.devices_failed, 0u);

      FleetConfig parallel = serial;
      parallel.jobs = 8;
      EXPECT_EQ(FleetReportJson("x", serial_result),
                FleetReportJson("x", FleetRunner(parallel).Run()));
    }
  }
}

}  // namespace
}  // namespace ice
