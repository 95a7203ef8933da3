// Snapshot round-trip property tests: saving at a quiescent boundary and
// restoring into a fresh Experiment must reproduce the uninterrupted run
// byte for byte — same stats, same trace, same metrics — across every
// scheme and both aging and swap policies. Malformed streams must fail
// loudly.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/binary_stream.h"
#include "src/harness/experiment.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"
#include "src/trace/tracer.h"
#include "src/workload/bg_activity.h"
#include "src/workload/scenario.h"

namespace ice {
namespace {

ExperimentConfig SmallConfig(const std::string& scheme, const std::string& aging,
                             bool trace = false, const std::string& swap = "baseline") {
  ExperimentConfig config;
  config.device = Pixel3Profile();
  config.seed = 1234;
  config.scheme = scheme;
  config.aging = aging;
  config.swap = swap;
  config.trace = trace;
  return config;
}

// Digest of all live state reachable through public accessors: the stats
// registry plus scheduler/engine clocks. Cheap but broad — any divergence
// in reclaim, IO, scheduling, freezing or LMK shows up here.
std::string StateDigest(Experiment& e) {
  std::string out;
  out += "now=" + std::to_string(e.engine().now());
  out += " ticks=" + std::to_string(e.engine().ticks_elapsed());
  out += " busy=" + std::to_string(e.scheduler().busy_us());
  out += " cap=" + std::to_string(e.scheduler().capacity_us());
  for (const auto& [name, value] : e.engine().stats().Snapshot()) {
    out += " " + name + "=" + std::to_string(value);
  }
  return out;
}

// Runs single ticks until a quiescent boundary where a background burst
// was cut off mid-touches with its look-ahead full (the saved run holds
// samples the restored one has to draw afresh).
bool RunToFullLookahead(Experiment& e, int max_ticks) {
  for (int i = 0; i < max_ticks; ++i) {
    if (e.QuiescentNow()) {
      for (Task* task : e.scheduler().live_tasks()) {
        auto* burst = dynamic_cast<PeriodicTouchBehavior*>(&task->behavior());
        if (burst != nullptr && burst->lookahead() == kTouchPrefetchDistance) {
          return true;
        }
      }
    }
    e.engine().RunFor(Engine::kTick);
  }
  return false;
}

// Cache two apps cold, snapshot, then compare: (a) the uninterrupted
// continuation against (b) a restored clone running the same continuation.
// Re-saving the clone right after the restore must reproduce the snapshot
// byte for byte, which catches any field that is written but never read.
// `mid_burst` first runs on to a boundary inside a background burst with a
// full look-ahead.
void RoundTripIdentical(const std::string& scheme, const std::string& aging,
                        const std::string& swap = "baseline", bool trace = false,
                        bool mid_burst = false) {
  SCOPED_TRACE(scheme + "/" + aging + "/" + swap + (trace ? "/trace" : "") +
               (mid_burst ? "/mid-burst" : ""));
  ExperimentConfig config = SmallConfig(scheme, aging, trace, swap);

  Experiment cold(config);
  std::vector<Uid> pool = cold.PlanBackgroundPool();
  ASSERT_GE(pool.size(), 2u);
  ASSERT_TRUE(cold.CacheOneBackgroundApp(pool[0]));
  ASSERT_TRUE(cold.CacheOneBackgroundApp(pool[1]));
  if (mid_burst) {
    ASSERT_TRUE(RunToFullLookahead(cold, 20000));
  }
  ASSERT_TRUE(cold.QuiescentNow());
  std::vector<uint8_t> snapshot = cold.SaveSnapshot();

  // Saving must not perturb the donor: continue it as the reference run.
  cold.FinishCaching();
  ScenarioResult want = cold.RunScenario(ScenarioKind::kScrolling, Sec(20), Sec(10));
  std::string want_digest = StateDigest(cold);

  auto restored = Experiment::RestoreSnapshot(config, snapshot);
  EXPECT_TRUE(restored->SaveSnapshot() == snapshot) << "re-saved snapshot differs";
  ScenarioResult got;
  {
    Experiment& e = *restored;
    e.FinishCaching();
    got = e.RunScenario(ScenarioKind::kScrolling, Sec(20), Sec(10));
  }
  EXPECT_EQ(want_digest, StateDigest(*restored));
  EXPECT_EQ(want.avg_fps, got.avg_fps);
  EXPECT_EQ(want.ria, got.ria);
  EXPECT_EQ(want.fps_series, got.fps_series);
  EXPECT_EQ(want.reclaims, got.reclaims);
  EXPECT_EQ(want.refaults, got.refaults);
  EXPECT_EQ(want.io_requests, got.io_requests);
  EXPECT_EQ(want.io_bytes, got.io_bytes);
  EXPECT_EQ(want.cpu_util, got.cpu_util);
  EXPECT_EQ(want.freezes, got.freezes);
  EXPECT_EQ(want.thaws, got.thaws);
  EXPECT_EQ(want.lmk_kills, got.lmk_kills);
}

TEST(SnapshotRoundTrip, LruCfsTwoList) { RoundTripIdentical("lru_cfs", "two_list"); }
TEST(SnapshotRoundTrip, LruCfsGenClock) {
  RoundTripIdentical("lru_cfs", "gen_clock", "baseline", /*trace=*/false, /*mid_burst=*/true);
}
TEST(SnapshotRoundTrip, UcsgTwoList) { RoundTripIdentical("ucsg", "two_list"); }
TEST(SnapshotRoundTrip, AcclaimGenClock) { RoundTripIdentical("acclaim", "gen_clock"); }
TEST(SnapshotRoundTrip, PowerTwoList) { RoundTripIdentical("power", "two_list"); }
TEST(SnapshotRoundTrip, IceTwoList) { RoundTripIdentical("ice", "two_list"); }
TEST(SnapshotRoundTrip, IceGenClock) { RoundTripIdentical("ice", "gen_clock"); }
TEST(SnapshotRoundTrip, LruCfsTwoListHotness) {
  RoundTripIdentical("lru_cfs", "two_list", "hotness");
}
TEST(SnapshotRoundTrip, PowerGenClockHotnessTraced) {
  RoundTripIdentical("power", "gen_clock", "hotness", /*trace=*/true);
}
TEST(SnapshotRoundTrip, IceGenClockHotnessTraced) {
  RoundTripIdentical("ice", "gen_clock", "hotness", /*trace=*/true);
}

// The trace ring, totals and task names survive the round trip: the
// restored run's serialized trace equals the uninterrupted run's.
TEST(SnapshotRoundTrip, TraceByteIdentical) {
  ExperimentConfig config = SmallConfig("ice", "two_list", /*trace=*/true);

  Experiment cold(config);
  std::vector<Uid> pool = cold.PlanBackgroundPool();
  ASSERT_TRUE(cold.CacheOneBackgroundApp(pool[0]));
  ASSERT_TRUE(cold.CacheOneBackgroundApp(pool[1]));
  std::vector<uint8_t> snapshot = cold.SaveSnapshot();
  cold.FinishCaching();
  cold.RunScenario(ScenarioKind::kShortVideo, Sec(15), Sec(5));
  std::string want = cold.tracer()->Serialize();

  auto restored = Experiment::RestoreSnapshot(config, snapshot);
  restored->FinishCaching();
  restored->RunScenario(ScenarioKind::kShortVideo, Sec(15), Sec(5));
  EXPECT_EQ(want, restored->tracer()->Serialize());
}

// A snapshot is reusable: two restores from the same bytes are identical.
TEST(SnapshotRoundTrip, RestoreTwiceIdentical) {
  ExperimentConfig config = SmallConfig("lru_cfs", "two_list");
  Experiment cold(config);
  std::vector<Uid> pool = cold.PlanBackgroundPool();
  ASSERT_TRUE(cold.CacheOneBackgroundApp(pool[0]));
  std::vector<uint8_t> snapshot = cold.SaveSnapshot();

  auto a = Experiment::RestoreSnapshot(config, snapshot);
  auto b = Experiment::RestoreSnapshot(config, snapshot);
  a->FinishCaching();
  b->FinishCaching();
  a->RunScenario(ScenarioKind::kScrolling, Sec(10), Sec(5));
  b->RunScenario(ScenarioKind::kScrolling, Sec(10), Sec(5));
  EXPECT_EQ(StateDigest(*a), StateDigest(*b));
}

// A restored experiment is itself snapshottable: save → restore → cache one
// more app → save again works and stays deterministic.
TEST(SnapshotRoundTrip, RestoredRunIsResnapshottable) {
  ExperimentConfig config = SmallConfig("ice", "two_list");
  Experiment cold(config);
  std::vector<Uid> pool = cold.PlanBackgroundPool();
  ASSERT_TRUE(cold.CacheOneBackgroundApp(pool[0]));
  std::vector<uint8_t> first = cold.SaveSnapshot();
  ASSERT_TRUE(cold.CacheOneBackgroundApp(pool[1]));
  std::vector<uint8_t> want = cold.SaveSnapshot();

  auto restored = Experiment::RestoreSnapshot(config, first);
  ASSERT_TRUE(restored->CacheOneBackgroundApp(pool[1]));
  std::vector<uint8_t> got = restored->SaveSnapshot();
  EXPECT_EQ(want, got);
}

// ---- Warm-boot templates ----------------------------------------------------

// The invariant the fleet's template path rests on: construction and boot
// consume ZERO draws from the device-seed stream (everything boot-time or
// environmental draws from Engine::noise_rng()), so after construction plus
// settling the engine RNG still sits at the very first value a fresh
// Rng(seed) produces.
TEST(WarmBootTemplate, BootConsumesNoDeviceSeedDraws) {
  ExperimentConfig config = SmallConfig("ice", "gen_clock");
  config.seed = 987654321;
  Experiment exp(config);
  ASSERT_TRUE(exp.SettleToQuiescence());
  Rng fresh(config.seed);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(exp.engine().rng().Next64(), fresh.Next64()) << "draw " << i;
  }
}

// RestoreTemplate overlays a post-boot snapshot onto a *live* experiment
// (instance recycling) and reseeds the trace RNG; the result must be
// indistinguishable from a cold experiment built directly with that seed.
// The second device recycles an instance dirtied by the first device's run
// — the exact path each fleet worker's donor takes.
TEST(WarmBootTemplate, RecycledRestoreMatchesColdRun) {
  ExperimentConfig donor_config = SmallConfig("ice", "two_list");
  donor_config.seed = 1;  // Arbitrary: the template is seed-independent.
  Experiment donor(donor_config);
  ASSERT_TRUE(donor.SettleToQuiescence());
  std::vector<uint8_t> tmpl = donor.SaveSnapshot();

  auto run_device = [](Experiment& e) {
    std::vector<Uid> pool = e.PlanBackgroundPool();
    EXPECT_TRUE(e.CacheOneBackgroundApp(pool[0]));
    e.FinishCaching();
    e.RunScenario(ScenarioKind::kScrolling, Sec(10), Sec(5));
    return StateDigest(e);
  };

  auto cold_digest = [&](uint64_t seed) {
    ExperimentConfig config = SmallConfig("ice", "two_list");
    config.seed = seed;
    Experiment cold(config);
    EXPECT_TRUE(cold.SettleToQuiescence());
    return run_device(cold);
  };

  // First device: recycles the still-pristine donor.
  donor.RestoreTemplate(tmpl, 555);
  EXPECT_EQ(donor.config().seed, 555u);
  EXPECT_EQ(run_device(donor), cold_digest(555));
  // Second device: recycles the donor dirtied by the first run.
  donor.RestoreTemplate(tmpl, 777);
  EXPECT_EQ(run_device(donor), cold_digest(777));
  // Same seed through the recycler twice is bit-stable.
  donor.RestoreTemplate(tmpl, 555);
  std::string again = run_device(donor);
  donor.RestoreTemplate(tmpl, 555);
  EXPECT_EQ(run_device(donor), again);
}

// The seed-agnostic fingerprint check still rejects every non-seed config
// difference.
TEST(WarmBootTemplate, RejectsNonSeedConfigMismatch) {
  ExperimentConfig config = SmallConfig("lru_cfs", "two_list");
  Experiment donor(config);
  ASSERT_TRUE(donor.SettleToQuiescence());
  std::vector<uint8_t> tmpl = donor.SaveSnapshot();

  ExperimentConfig other = config;
  other.scheme = "ice";
  Experiment victim(other);
  ASSERT_TRUE(victim.SettleToQuiescence());
  EXPECT_THROW(victim.RestoreTemplate(tmpl, 99), std::runtime_error);
}

// ---- Malformed streams ------------------------------------------------------

std::vector<uint8_t> MakeSnapshot(const ExperimentConfig& config) {
  Experiment e(config);
  std::vector<Uid> pool = e.PlanBackgroundPool();
  [&] { ASSERT_TRUE(e.CacheOneBackgroundApp(pool[0])); }();
  return e.SaveSnapshot();
}

TEST(SnapshotErrors, TruncatedStreamThrows) {
  ExperimentConfig config = SmallConfig("lru_cfs", "two_list");
  std::vector<uint8_t> snapshot = MakeSnapshot(config);
  snapshot.resize(snapshot.size() / 2);
  EXPECT_THROW(Experiment::RestoreSnapshot(config, snapshot), std::runtime_error);
}

TEST(SnapshotErrors, CorruptByteThrows) {
  ExperimentConfig config = SmallConfig("lru_cfs", "two_list");
  std::vector<uint8_t> snapshot = MakeSnapshot(config);
  snapshot[snapshot.size() / 2] ^= 0xFF;  // Checksum catches it up front.
  EXPECT_THROW(Experiment::RestoreSnapshot(config, snapshot), std::runtime_error);
}

TEST(SnapshotErrors, BadMagicThrows) {
  ExperimentConfig config = SmallConfig("lru_cfs", "two_list");
  std::vector<uint8_t> snapshot = MakeSnapshot(config);
  snapshot[0] = 'X';
  EXPECT_THROW(Experiment::RestoreSnapshot(config, snapshot), std::runtime_error);
}

TEST(SnapshotErrors, VersionMismatchThrows) {
  ExperimentConfig config = SmallConfig("lru_cfs", "two_list");
  std::vector<uint8_t> snapshot = MakeSnapshot(config);
  // The u32 version sits right after the 8-byte magic. Recompute the
  // trailing checksum so the version check itself is what fires.
  snapshot[8] = static_cast<uint8_t>(kSnapshotFormatVersion + 1);
  uint64_t sum = SnapshotChecksum64(snapshot.data(), snapshot.size() - 8);
  for (int i = 0; i < 8; ++i) {
    snapshot[snapshot.size() - 8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(sum >> (8 * i));
  }
  EXPECT_THROW(Experiment::RestoreSnapshot(config, snapshot), std::runtime_error);
}

TEST(SnapshotErrors, ConfigMismatchThrows) {
  ExperimentConfig config = SmallConfig("lru_cfs", "two_list");
  std::vector<uint8_t> snapshot = MakeSnapshot(config);
  ExperimentConfig other = config;
  other.seed = config.seed + 1;
  EXPECT_THROW(Experiment::RestoreSnapshot(other, snapshot), std::runtime_error);
  other = config;
  other.scheme = "ice";
  EXPECT_THROW(Experiment::RestoreSnapshot(other, snapshot), std::runtime_error);
}

TEST(SnapshotErrors, MissingFileThrows) {
  ExperimentConfig config = SmallConfig("lru_cfs", "two_list");
  EXPECT_THROW(Experiment::RestoreSnapshotFromFile(config, "/nonexistent/snap.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace ice
