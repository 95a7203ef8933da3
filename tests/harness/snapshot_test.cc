// Snapshot round-trip property tests: saving at a quiescent boundary and
// restoring into a fresh Experiment must reproduce the uninterrupted run
// byte for byte — same stats, same trace, same metrics — across every
// scheme and both aging and swap policies. Malformed streams must fail
// loudly.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/android/activity_manager.h"
#include "src/base/binary_stream.h"
#include "src/base/stats.h"
#include "src/harness/experiment.h"
#include "src/mem/address_space.h"
#include "src/mem/memory_manager.h"
#include "src/proc/behavior.h"
#include "src/proc/freezer.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"
#include "src/storage/bio.h"
#include "src/storage/block_device.h"
#include "src/storage/flash_profiles.h"
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

// ---- Restore checks on one address space's section -------------------------
//
// A space is saved alone, so the stream is {magic, version, space payload,
// end marker, checksum} and every field sits at a known offset. Each test
// changes one field and expects the restore into an identical space to
// throw. Payload: u32 id, u64 page count, u64 extent count, then extents of
// {u32 first vpn, u32 count, 32-byte records}; after them four u64 and one
// u32 counters and the LRU state (u8 aging, four {head, tail, size} lists,
// two {counts[8], linked, hand, u8 clock} generation states).

constexpr size_t kStreamHeader = 12;  // Magic + version.
constexpr size_t kStreamTrailer = 12;  // End marker + checksum.
constexpr size_t kFirstRecord = kStreamHeader + 4 + 8 + 8 + 8;
constexpr size_t kRecordBytes = 32;
constexpr size_t kLruBytes = 1 + 4 * 12 + 2 * 41;
constexpr uint32_t kSpacePages = 64;

AddressSpaceLayout CheckLayout() {
  AddressSpaceLayout layout;
  layout.java_pages = 16;
  layout.native_pages = 16;
  layout.file_pages = 32;
  return layout;
}

MemConfig CheckMemConfig(AgingPolicy aging) {
  MemConfig config;
  config.aging = aging;
  return config;
}

// Touches vpns 0-7 (Java heap) and 40-47 (file) in that order, so a saved
// space holds two extents, the first starting at vpn 0; `reclaimed` then
// evicts them all: records 0-7 to zram, records 8-15 (vpns 40-47) to flash.
void TouchCheckPages(MemoryManager& mm, AddressSpace& space, bool reclaimed) {
  for (uint32_t vpn : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 40u, 41u, 42u, 43u, 44u, 45u, 46u, 47u}) {
    if (vpn < space.total_pages()) {
      mm.Access(space, vpn, /*write=*/false, nullptr);
    }
  }
  if (reclaimed) {
    mm.ReclaimAllOf(space);
  }
}

std::vector<uint8_t> SaveCheckSpace(AgingPolicy aging, const AddressSpaceLayout& layout,
                                    bool reclaimed = false) {
  Engine engine(3);
  MemoryManager mm(engine, CheckMemConfig(aging), nullptr);
  AddressSpace space(1, 1, "app", layout);
  mm.Register(space);
  TouchCheckPages(mm, space, reclaimed);
  BinaryWriter w;
  SnapshotArchive save(w);
  space.Transfer(save);
  std::vector<uint8_t> bytes = w.Finish();
  mm.Release(space);
  return bytes;
}

// Restores `bytes` into a freshly built twin of the saved space; rethrows
// what the restore throws, and otherwise returns the twin re-saved.
std::vector<uint8_t> RestoreCheckSpace(AgingPolicy aging, const AddressSpaceLayout& layout,
                                       const std::vector<uint8_t>& bytes) {
  Engine engine(3);
  MemoryManager mm(engine, CheckMemConfig(aging), nullptr);
  AddressSpace space(1, 1, "app", layout);
  mm.Register(space);
  BinaryReader r(bytes, /*verify_checksum=*/false);
  SnapshotArchive load(r);
  space.Transfer(load);
  BinaryWriter w;
  SnapshotArchive save(w);
  space.Transfer(save);
  return w.Finish();
}

uint32_t GetU32(const std::vector<uint8_t>& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | bytes[at + static_cast<size_t>(i)];
  }
  return v;
}

void PutU32(std::vector<uint8_t>& bytes, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) {
    bytes[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint64_t GetU64(const std::vector<uint8_t>& bytes, size_t at) {
  return static_cast<uint64_t>(GetU32(bytes, at + 4)) << 32 | GetU32(bytes, at);
}

void PutU64(std::vector<uint8_t>& bytes, size_t at, uint64_t v) {
  PutU32(bytes, at, static_cast<uint32_t>(v));
  PutU32(bytes, at + 4, static_cast<uint32_t>(v >> 32));
}

// Records 0-7 are vpns 0-7; records 8-15 are vpns 40-47, after the second
// extent's {u32 first vpn, u32 count} header.
size_t RecordAt(uint32_t index) {
  return kFirstRecord + index * kRecordBytes + (index >= 8 ? 8 : 0);
}
// Fields of a v2 record: {u32 prev, u32 next, u32 vpn, u32 zram bytes, u64
// shadow cookie, u16 flags, 6 zero bytes}.
size_t ZramBytesAt(uint32_t index) { return RecordAt(index) + 12; }
size_t CookieAt(uint32_t index) { return RecordAt(index) + 16; }
size_t StateAt(uint32_t index) { return RecordAt(index) + 24; }
size_t LruAt(const std::vector<uint8_t>& bytes) {
  return bytes.size() - kStreamTrailer - kLruBytes;
}
size_t ListAt(const std::vector<uint8_t>& bytes, int list) { return LruAt(bytes) + 1 + 12 * list; }
size_t GenAt(const std::vector<uint8_t>& bytes, int pool) {
  return LruAt(bytes) + 1 + 4 * 12 + 41 * pool;
}

// Applies `mutate` to a saved section and expects the restore to throw.
void ExpectRejected(AgingPolicy aging, const std::function<void(std::vector<uint8_t>&)>& mutate,
                    const AddressSpaceLayout& layout = CheckLayout(), bool reclaimed = false) {
  std::vector<uint8_t> bytes = SaveCheckSpace(aging, layout, reclaimed);
  mutate(bytes);
  try {
    RestoreCheckSpace(aging, layout, bytes);
    ADD_FAILURE() << "mutated section was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("snapshot: ", 0), 0u) << e.what();
  }
}

TEST(SnapshotRestoreChecks, UnmutatedSectionRestoresIdentically) {
  for (AgingPolicy aging : {AgingPolicy::kTwoList, AgingPolicy::kGenClock}) {
    std::vector<uint8_t> bytes = SaveCheckSpace(aging, CheckLayout());
    ASSERT_EQ(GetU32(bytes, kFirstRecord - 8), 0u);  // First extent starts at vpn 0...
    ASSERT_EQ(GetU32(bytes, kFirstRecord - 4), 8u);  // ...and holds 8 records.
    EXPECT_TRUE(RestoreCheckSpace(aging, CheckLayout(), bytes) == bytes);
  }
}

TEST(SnapshotRestoreChecks, RecordVpnMustBeItsPosition) {
  ExpectRejected(AgingPolicy::kTwoList,
                 [](std::vector<uint8_t>& b) { PutU32(b, RecordAt(1) + 8, 0); });
  ExpectRejected(AgingPolicy::kGenClock,
                 [](std::vector<uint8_t>& b) { PutU32(b, RecordAt(3) + 8, kSpacePages + 3); });
}

TEST(SnapshotRestoreChecks, RecordKindMustMatchTheLayout) {
  // Kind bits 3-4 of the flag word: Java heap (0) rewritten as native (1)
  // and as the unused value 3.
  for (uint8_t kind_bits : {uint8_t{1 << 3}, uint8_t{3 << 3}}) {
    ExpectRejected(AgingPolicy::kTwoList, [&](std::vector<uint8_t>& b) {
      b[RecordAt(2) + 24] = static_cast<uint8_t>(b[RecordAt(2) + 24] | kind_bits);
    });
  }
}

TEST(SnapshotRestoreChecks, RecordStateMustBeQuiescent) {
  // 4 is kFaultingIn (no fault is in flight at a snapshot); 5-7 name no state.
  for (uint8_t state = 4; state <= 7; ++state) {
    ExpectRejected(AgingPolicy::kTwoList, [&](std::vector<uint8_t>& b) {
      b[RecordAt(0) + 24] = static_cast<uint8_t>((b[RecordAt(0) + 24] & ~7) | state);
    });
  }
}

TEST(SnapshotRestoreChecks, ListedRecordLinksMustIndexTheArena) {
  ExpectRejected(AgingPolicy::kTwoList,
                 [](std::vector<uint8_t>& b) { PutU32(b, RecordAt(0), kSpacePages); });
  ExpectRejected(AgingPolicy::kTwoList,
                 [](std::vector<uint8_t>& b) { PutU32(b, RecordAt(4) + 4, 0x7fffffff); });
}

TEST(SnapshotRestoreChecks, UnlistedRecordLinksMustBeNoPage) {
  // Two-list: record 0, the oldest, links back to record 1; clearing its
  // linked bit (flag bit 8) leaves a link on a record off the lists.
  ExpectRejected(AgingPolicy::kTwoList, [](std::vector<uint8_t>& b) {
    ASSERT_EQ(GetU32(b, RecordAt(0)), 1u);
    b[RecordAt(0) + 25] = static_cast<uint8_t>(b[RecordAt(0) + 25] & ~1);
  });
  // Gen-clock keeps no links at all.
  ExpectRejected(AgingPolicy::kGenClock,
                 [](std::vector<uint8_t>& b) { PutU32(b, RecordAt(0), 3); });
  ExpectRejected(AgingPolicy::kGenClock,
                 [](std::vector<uint8_t>& b) { PutU32(b, RecordAt(5) + 4, 0); });
}

TEST(SnapshotRestoreChecks, ListHeadAndTailMustIndexTheArena) {
  for (int list = 0; list < 4; ++list) {
    for (size_t field : {size_t{0}, size_t{4}}) {
      ExpectRejected(AgingPolicy::kTwoList, [&](std::vector<uint8_t>& b) {
        PutU32(b, ListAt(b, list) + field, kSpacePages);
      });
    }
  }
}

TEST(SnapshotRestoreChecks, SizesAndGenerationCountsAreBoundedByThePages) {
  ExpectRejected(AgingPolicy::kTwoList,
                 [](std::vector<uint8_t>& b) { PutU32(b, ListAt(b, 1) + 8, kSpacePages + 1); });
  for (size_t field = 0; field <= 8; ++field) {  // counts[0..7], then linked.
    ExpectRejected(AgingPolicy::kGenClock, [&](std::vector<uint8_t>& b) {
      PutU32(b, GenAt(b, 0) + 4 * field, kSpacePages + 1);
    });
  }
}

TEST(SnapshotRestoreChecks, GenClockHandMustIndexTheArena) {
  for (int pool = 0; pool < 2; ++pool) {
    ExpectRejected(AgingPolicy::kGenClock, [&](std::vector<uint8_t>& b) {
      PutU32(b, GenAt(b, pool) + 36, kSpacePages);
    });
  }
  // An empty space has no page to point at: its hand stays 0.
  ExpectRejected(
      AgingPolicy::kGenClock, [](std::vector<uint8_t>& b) { PutU32(b, GenAt(b, 1) + 36, 1); },
      AddressSpaceLayout{});
}

TEST(SnapshotRestoreChecks, GenClockClockHasThreeBits) {
  for (uint8_t clock : {uint8_t{8}, uint8_t{255}}) {
    ExpectRejected(AgingPolicy::kGenClock,
                   [&](std::vector<uint8_t>& b) { b[GenAt(b, 0) + 40] = clock; });
  }
}

// A page carries a shadow cookie exactly when it is evicted (in zram or on
// flash): the cookie shares the record's LRU link word, and a refault
// requires one.
TEST(SnapshotRestoreChecks, ShadowCookieMarksExactlyTheEvictedRecords) {
  for (AgingPolicy aging : {AgingPolicy::kTwoList, AgingPolicy::kGenClock}) {
    ExpectRejected(aging, [](std::vector<uint8_t>& b) {
      ASSERT_EQ(b[StateAt(2)] & 7, static_cast<int>(PageState::kPresent));
      PutU64(b, CookieAt(2), 7);
    });
  }
  // Record 3 rewritten as an untouched Java heap page (flag word 0); under
  // gen-clock its links are kNoPage already.
  ExpectRejected(AgingPolicy::kGenClock, [](std::vector<uint8_t>& b) {
    b[StateAt(3)] = 0;
    b[StateAt(3) + 1] = 0;
    PutU64(b, CookieAt(3), 7);
  });
  ExpectRejected(
      AgingPolicy::kTwoList,
      [](std::vector<uint8_t>& b) {
        ASSERT_EQ(b[StateAt(8)] & 7, static_cast<int>(PageState::kOnFlash));
        ASSERT_GT(GetU64(b, CookieAt(8)), 0u);
        PutU64(b, CookieAt(8), 0);
      },
      CheckLayout(), /*reclaimed=*/true);
}

// Only a present page is on an LRU list: an evicted page's link word holds
// its shadow cookie instead.
TEST(SnapshotRestoreChecks, LinkedRecordMustBePresent) {
  for (AgingPolicy aging : {AgingPolicy::kTwoList, AgingPolicy::kGenClock}) {
    ExpectRejected(aging, [](std::vector<uint8_t>& b) {
      ASSERT_TRUE(b[StateAt(4) + 1] & 1);  // Linked: flag bit 8.
      b[StateAt(4)] = static_cast<uint8_t>((b[StateAt(4)] & ~7) |
                                           static_cast<int>(PageState::kOnFlash));
      PutU64(b, CookieAt(4), 7);
    });
  }
}

// A page carries a compressed size exactly when it is in zram: Zram::Drop
// subtracts it on the page's refault or release.
TEST(SnapshotRestoreChecks, ZramSizeMarksExactlyTheInZramRecords) {
  for (AgingPolicy aging : {AgingPolicy::kTwoList, AgingPolicy::kGenClock}) {
    ExpectRejected(aging, [](std::vector<uint8_t>& b) { PutU32(b, ZramBytesAt(1), 1000); });
  }
  ExpectRejected(
      AgingPolicy::kTwoList,
      [](std::vector<uint8_t>& b) {
        ASSERT_EQ(b[StateAt(0)] & 7, static_cast<int>(PageState::kInZram));
        ASSERT_GT(GetU32(b, ZramBytesAt(0)), 0u);
        PutU32(b, ZramBytesAt(0), 0);
      },
      CheckLayout(), /*reclaimed=*/true);
  ExpectRejected(
      AgingPolicy::kTwoList, [](std::vector<uint8_t>& b) { PutU32(b, ZramBytesAt(8), 1000); },
      CheckLayout(), /*reclaimed=*/true);
}

// The resident and evicted counters count the present and the evicted
// records. A resident count below the records' would otherwise abort a later
// eviction in AddResident.
TEST(SnapshotRestoreChecks, ResidentAndEvictedCountersMustMatchTheRecords) {
  // Four u64 counters and a u32 sit between the records and the LRU state:
  // resident, evicted, then the eviction and refault totals.
  auto resident_at = [](const std::vector<uint8_t>& b) { return LruAt(b) - 4 * 8 - 4; };
  for (AgingPolicy aging : {AgingPolicy::kTwoList, AgingPolicy::kGenClock}) {
    // Touched only, all 16 pages are present; reclaimed, all are evicted.
    for (bool reclaimed : {false, true}) {
      for (size_t field : {size_t{0}, size_t{8}}) {
        const uint64_t count = (field == 0) != reclaimed ? 16 : 0;
        for (int64_t delta : {int64_t{-1}, int64_t{1}}) {
          if (count == 0 && delta < 0) {
            continue;
          }
          ExpectRejected(
              aging,
              [&](std::vector<uint8_t>& b) {
                const size_t at = resident_at(b) + field;
                ASSERT_EQ(GetU64(b, at), count);
                PutU64(b, at, count + static_cast<uint64_t>(delta));
              },
              CheckLayout(), reclaimed);
        }
      }
    }
  }
}

// ---- Restore checks on a memory manager's section ---------------------------
//
// One registered space, every touched page evicted. The section's payload
// starts with u32 next space id, five 8-byte scalars and the two arena
// counters, and ends with the space's payload, byte for byte the section
// SaveCheckSpace writes.

constexpr size_t kFreePagesAt = kStreamHeader + 4 + 8;
constexpr size_t kZramFramesAt = kFreePagesAt + 8;
constexpr size_t kArenaLiveAt = kStreamHeader + 4 + 5 * 8;
constexpr size_t kArenaPeakAt = kArenaLiveAt + 8;

std::vector<uint8_t> SaveCheckManager(AgingPolicy aging) {
  Engine engine(3);
  MemoryManager mm(engine, CheckMemConfig(aging), nullptr);
  AddressSpace space(1, 1, "app", CheckLayout());
  mm.Register(space);
  TouchCheckPages(mm, space, /*reclaimed=*/true);
  BinaryWriter w;
  SnapshotArchive save(w);
  mm.Transfer(save);
  std::vector<uint8_t> bytes = w.Finish();
  mm.Release(space);
  return bytes;
}

void RestoreCheckManager(AgingPolicy aging, const std::vector<uint8_t>& bytes) {
  Engine engine(3);
  MemoryManager mm(engine, CheckMemConfig(aging), nullptr);
  AddressSpace space(1, 1, "app", CheckLayout());
  mm.Register(space);
  BinaryReader r(bytes, /*verify_checksum=*/false);
  SnapshotArchive load(r);
  mm.Transfer(load);
  // Releasing would drop the restored zram pages, and a store that
  // disagrees with them aborts there (the failure these checks prevent).
  mm.ForgetSpaces();
}

void ExpectManagerRejected(AgingPolicy aging,
                           const std::function<void(std::vector<uint8_t>&, size_t)>& mutate) {
  std::vector<uint8_t> bytes = SaveCheckManager(aging);
  const std::vector<uint8_t> space = SaveCheckSpace(aging, CheckLayout(), /*reclaimed=*/true);
  // Offset that maps a position in the space's own stream to this one.
  const size_t shift = bytes.size() - space.size();
  ASSERT_TRUE(std::equal(space.begin() + kStreamHeader, space.end() - kStreamTrailer,
                         bytes.begin() + static_cast<std::ptrdiff_t>(shift + kStreamHeader)));
  ASSERT_NO_THROW(RestoreCheckManager(aging, bytes));
  mutate(bytes, shift);
  try {
    RestoreCheckManager(aging, bytes);
    ADD_FAILURE() << "mutated section was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("snapshot: ", 0), 0u) << e.what();
  }
}

// The in-zram records' sizes and count must be the zram store's totals, or
// the store's accounting drifts from the pages that free it.
TEST(SnapshotRestoreChecks, InZramRecordsMustSumToTheZramTotals) {
  for (AgingPolicy aging : {AgingPolicy::kTwoList, AgingPolicy::kGenClock}) {
    ExpectManagerRejected(aging, [](std::vector<uint8_t>& b, size_t shift) {
      PutU32(b, shift + ZramBytesAt(0), GetU32(b, shift + ZramBytesAt(0)) + 1);
    });
    // Record 1 moved to flash, as hotness writeback would, without the store
    // giving up its copy: each record is coherent, the totals are not.
    ExpectManagerRejected(aging, [](std::vector<uint8_t>& b, size_t shift) {
      const size_t state = shift + StateAt(1);
      b[state] = static_cast<uint8_t>((b[state] & ~7) | static_cast<int>(PageState::kOnFlash));
      PutU32(b, shift + ZramBytesAt(1), 0);
    });
  }
}

// The arena counters are stored as format v2 bytes, 32 per page record,
// and the live figure is the replayed spaces' own.
TEST(SnapshotRestoreChecks, ArenaCountersMustFitTheRegisteredSpaces) {
  const uint64_t live = uint64_t{kSpacePages} * kRecordBytes;
  auto expect_counters = [&](std::vector<uint8_t>& b) {
    ASSERT_EQ(GetU64(b, kArenaLiveAt), live);
    ASSERT_EQ(GetU64(b, kArenaPeakAt), live);
  };
  ExpectManagerRejected(AgingPolicy::kTwoList, [&](std::vector<uint8_t>& b, size_t) {
    expect_counters(b);
    PutU64(b, kArenaLiveAt, live + kRecordBytes);
    PutU64(b, kArenaPeakAt, live + kRecordBytes);
  });
  ExpectManagerRejected(AgingPolicy::kTwoList, [&](std::vector<uint8_t>& b, size_t) {
    PutU64(b, kArenaLiveAt, live / 2);
  });
  ExpectManagerRejected(AgingPolicy::kGenClock, [&](std::vector<uint8_t>& b, size_t) {
    PutU64(b, kArenaPeakAt, live + 1);
  });
  ExpectManagerRejected(AgingPolicy::kGenClock, [&](std::vector<uint8_t>& b, size_t) {
    PutU64(b, kArenaPeakAt, live - kRecordBytes);
  });
}

// The frame ledger MemAccountingProperty checks: every usable frame is
// free, resident or holding zram data, and zram holds the frames its stored
// bytes fill. A free counter off by one would otherwise restore silently.
TEST(SnapshotRestoreChecks, FreePagesMustBalanceTheFrameLedger) {
  for (AgingPolicy aging : {AgingPolicy::kTwoList, AgingPolicy::kGenClock}) {
    for (int64_t delta : {1, -1}) {
      ExpectManagerRejected(aging, [delta](std::vector<uint8_t>& b, size_t) {
        PutU64(b, kFreePagesAt, GetU64(b, kFreePagesAt) + static_cast<uint64_t>(delta));
      });
    }
    // The sum still balances, but zram claims a frame its bytes do not fill.
    ExpectManagerRejected(aging, [](std::vector<uint8_t>& b, size_t) {
      PutU64(b, kFreePagesAt, GetU64(b, kFreePagesAt) - 1);
      PutU64(b, kZramFramesAt, GetU64(b, kZramFramesAt) + 1);
    });
  }
}

// ---- Restore checks on other sections ----------------------------------------
//
// Each rig builds one subsystem in a fixed state; Transfer saves or restores
// that subsystem's section alone.

// Saves a fresh rig, checks that the bytes restore into a second one, then
// applies `mutate` and expects the restore into a third to throw.
template <class Rig>
void ExpectRigRejected(const std::function<void(std::vector<uint8_t>&)>& mutate) {
  BinaryWriter w;
  SnapshotArchive save(w);
  Rig().Transfer(save);
  std::vector<uint8_t> bytes = w.Finish();
  {
    BinaryReader r(bytes, /*verify_checksum=*/false);
    SnapshotArchive load(r);
    ASSERT_NO_THROW(Rig().Transfer(load));
  }
  mutate(bytes);
  BinaryReader r(bytes, /*verify_checksum=*/false);
  SnapshotArchive load(r);
  try {
    Rig().Transfer(load);
    ADD_FAILURE() << "mutated section was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("snapshot: ", 0), 0u) << e.what();
  }
}

// One counter, mem.refaults, in the engine's stats registry.
struct EngineRig {
  EngineRig() { engine.stats().Increment(stat::kRefaults); }
  void Transfer(SnapshotArchive& ar) { engine.Transfer(ar); }

  Engine engine{3};
};

// Restore would add an unknown name as a new counter, and the real counter
// would restart from zero.
TEST(SnapshotRestoreChecks, CounterNamesMustBeKnown) {
  ExpectRigRejected<EngineRig>([](std::vector<uint8_t>& b) {
    const std::string name = stat::kRefaults;
    auto at = std::search(b.begin(), b.end(), name.begin(), name.end());
    ASSERT_NE(at, b.end());
    at[static_cast<std::ptrdiff_t>(name.size()) - 1] = 'z';
  });
}

// Two counters, mem.refaults_bg and mem.refaults_fg.
struct RefaultSplitRig {
  RefaultSplitRig() {
    engine.stats().Add(stat::kRefaultsBg, 2);
    engine.stats().Add(stat::kRefaultsFg, 1);
  }
  void Transfer(SnapshotArchive& ar) { engine.Transfer(ar); }

  Engine engine{3};
};

// A name flipped to another known one (mem.refaults_bg to mem.refaults_fg)
// repeats that name: restore would keep one count under it and zero the other
// counter.
TEST(SnapshotRestoreChecks, CounterNamesMustNotRepeat) {
  ExpectRigRejected<RefaultSplitRig>([](std::vector<uint8_t>& b) {
    const std::string name = stat::kRefaultsBg;
    auto at = std::search(b.begin(), b.end(), name.begin(), name.end());
    ASSERT_NE(at, b.end());
    at[static_cast<std::ptrdiff_t>(name.size()) - 2] = 'f';
  });
}

// An engine 2.5 s in. The payload starts with the u64 clock, then the u64
// tick count.
struct ClockedEngineRig {
  ClockedEngineRig() { engine.RunFor(Ms(2500)); }
  void Transfer(SnapshotArchive& ar) { engine.Transfer(ar); }

  Engine engine{3};
};

// Every event deadline and second boundary sits on the 1 ms tick grid; a
// clock between two ticks would tick the scheduler off it.
TEST(SnapshotRestoreChecks, ClockMustBeOnTheTickGrid) {
  ExpectRigRejected<ClockedEngineRig>([](std::vector<uint8_t>& b) {
    ASSERT_EQ(GetU64(b, kStreamHeader), Ms(2500));
    PutU64(b, kStreamHeader, Ms(2500) + 1);
  });
}

TEST(SnapshotRestoreChecks, TickCountMustBeTheClockInTicks) {
  ExpectRigRejected<ClockedEngineRig>([](std::vector<uint8_t>& b) {
    ASSERT_EQ(GetU64(b, kStreamHeader + 8), 2500u);
    PutU64(b, kStreamHeader + 8, 2501);
  });
}

struct IdleBehavior : Behavior {
  void Run(TaskContext& ctx) override { ctx.SleepUntilWoken(); }
};

// A sleeping task and a runnable one, neither with a timer. The payload is
// six u64 clocks, the u64 task count, an empty per-second series (u64 0),
// the u64 task population, then per task {u8 state, two bools, six u64, the
// timer's armed bool}, the run queue and the cores' last occupants.
struct SchedulerRig {
  static constexpr size_t kFirstTaskAt = kStreamHeader + 9 * 8;
  static constexpr size_t kTaskBytes = 3 + 6 * 8 + 1;

  SchedulerRig() {
    sched.CreateTask("sleeper", nullptr, 0, std::make_unique<IdleBehavior>())->SleepUntilWoken();
    sched.CreateTask("runner", nullptr, 0, std::make_unique<IdleBehavior>());
  }
  void Transfer(SnapshotArchive& ar) { sched.Transfer(ar); }

  Engine engine{3};
  MemoryManager mm{engine, MemConfig{}, nullptr};
  Scheduler sched{engine, mm, 2};
};

void ExpectTaskStates(const std::vector<uint8_t>& b) {
  ASSERT_EQ(b[SchedulerRig::kFirstTaskAt], static_cast<uint8_t>(TaskState::kSleeping));
  ASSERT_EQ(b[SchedulerRig::kFirstTaskAt + SchedulerRig::kTaskBytes],
            static_cast<uint8_t>(TaskState::kRunnable));
}

TEST(SnapshotRestoreChecks, TaskStateMustBeATaskState) {
  ExpectRigRejected<SchedulerRig>([](std::vector<uint8_t>& b) {
    ExpectTaskStates(b);
    b[SchedulerRig::kFirstTaskAt] = static_cast<uint8_t>(TaskState::kDead) + 1;
  });
}

// Wake() returns early for a runnable task, so a runnable task that the
// saved run queue leaves out would never run again.
TEST(SnapshotRestoreChecks, RunnableTaskMustBeOnTheRunQueue) {
  ExpectRigRejected<SchedulerRig>([](std::vector<uint8_t>& b) {
    ExpectTaskStates(b);
    b[SchedulerRig::kFirstTaskAt] = static_cast<uint8_t>(TaskState::kRunnable);
  });
}

// A queue naming a task twice would run it on two cores in one tick; one
// naming a sleeping task would run it without a wake.
TEST(SnapshotRestoreChecks, RunQueueMustHoldEachRunnableTaskOnce) {
  constexpr size_t kQueueAt = SchedulerRig::kFirstTaskAt + 2 * SchedulerRig::kTaskBytes;
  auto expect_queue = [](const std::vector<uint8_t>& b) {
    ExpectTaskStates(b);
    ASSERT_EQ(GetU64(b, kQueueAt), 1u);       // One queued task...
    ASSERT_EQ(GetU64(b, kQueueAt + 8), 2u);   // ...the runner (trace id 2).
  };
  ExpectRigRejected<SchedulerRig>([&](std::vector<uint8_t>& b) {
    expect_queue(b);
    PutU64(b, kQueueAt + 8, 1);
  });
  ExpectRigRejected<SchedulerRig>([&](std::vector<uint8_t>& b) {
    expect_queue(b);
    PutU64(b, kQueueAt, 2);
    b.insert(b.begin() + static_cast<std::ptrdiff_t>(kQueueAt + 16), b.begin() + kQueueAt + 8,
             b.begin() + kQueueAt + 16);
  });
}

// A two-core scheduler 1.5 s in, with no tasks. The payload starts with six
// u64 clocks: busy time, capacity, busy time this second, capacity this
// second, the next second boundary and the fairness floor.
struct ClockedSchedulerRig {
  static constexpr size_t kCapacityAt = kStreamHeader + 8;
  static constexpr size_t kSecondCapacityAt = kStreamHeader + 3 * 8;
  static constexpr size_t kBoundaryAt = kStreamHeader + 4 * 8;

  ClockedSchedulerRig() { engine.RunFor(Ms(1500)); }
  void Transfer(SnapshotArchive& ar) { sched.Transfer(ar); }

  Engine engine{3};
  MemoryManager mm{engine, MemConfig{}, nullptr};
  Scheduler sched{engine, mm, 2};
};

TEST(SnapshotRestoreChecks, CapacityMustBeCoresTimesTheClock) {
  ExpectRigRejected<ClockedSchedulerRig>([](std::vector<uint8_t>& b) {
    ASSERT_EQ(GetU64(b, ClockedSchedulerRig::kCapacityAt), 2 * Ms(1500));
    PutU64(b, ClockedSchedulerRig::kCapacityAt, 2 * Ms(1500) + 1);
  });
}

// Seconds end on whole seconds of the clock, so the next boundary is the
// first after now: not now itself, not past now + 1 s, not between seconds.
TEST(SnapshotRestoreChecks, SecondBoundaryMustBeTheNextWholeSecond) {
  for (SimTime boundary : {Ms(1500), Ms(2501), Ms(2100)}) {
    ExpectRigRejected<ClockedSchedulerRig>([boundary](std::vector<uint8_t>& b) {
      ASSERT_EQ(GetU64(b, ClockedSchedulerRig::kBoundaryAt), Sec(2));
      PutU64(b, ClockedSchedulerRig::kBoundaryAt, boundary);
    });
  }
}

// The second in progress began at the last boundary: 0.5 s on two cores.
TEST(SnapshotRestoreChecks, SecondCapacityMustMatchTheSecondBoundary) {
  ExpectRigRejected<ClockedSchedulerRig>([](std::vector<uint8_t>& b) {
    ASSERT_EQ(GetU64(b, ClockedSchedulerRig::kSecondCapacityAt), 2 * Ms(500));
    PutU64(b, ClockedSchedulerRig::kSecondCapacityAt, 2 * Ms(500) + 1);
  });
}

// Two installed apps, neither started. The payload is an empty lifecycle
// log (u64 0), the i64 foreground uid, no launches (u64 0), the i64 uid and
// pid counters, the u64 app count, then per app {bool interactive, u8 state,
// i64 oom_adj, bool frozen, u64 CPU time, u64 last foreground time}.
struct ActivityManagerRig {
  static constexpr size_t kFirstStateAt = kStreamHeader + 6 * 8 + 1;
  static constexpr size_t kAppBytes = 1 + 1 + 8 + 1 + 8 + 8;

  ActivityManagerRig() {
    for (const char* package : {"a", "b"}) {
      AppDescriptor d;
      d.package = package;
      am.Install(d);
    }
  }
  void Transfer(SnapshotArchive& ar) { am.Transfer(ar); }

  Engine engine{3};
  MemoryManager mm{engine, MemConfig{}, nullptr};
  Scheduler sched{engine, mm, 2};
  Freezer freezer{engine};
  ActivityManager am{engine, sched, mm, freezer};
};

TEST(SnapshotRestoreChecks, AppStateMustBeAnAppState) {
  ExpectRigRejected<ActivityManagerRig>([](std::vector<uint8_t>& b) {
    const size_t at = ActivityManagerRig::kFirstStateAt + ActivityManagerRig::kAppBytes;
    ASSERT_EQ(b[at], static_cast<uint8_t>(AppState::kNotRunning));
    b[at] = static_cast<uint8_t>(AppState::kCached) + 1;
  });
}

// One app frozen twice and thawed once. The payload is the u64 freeze count,
// then the u64 thaw count; restore compares them with the rig engine's
// stat:: counters, which the same calls set.
struct FreezerRig : ActivityManagerRig {
  FreezerRig() {
    App& app = *am.apps().front();
    freezer.FreezeApp(app);
    freezer.ThawApp(app);
    freezer.FreezeApp(app);
  }
  void Transfer(SnapshotArchive& ar) { freezer.Transfer(ar); }
};

TEST(SnapshotRestoreChecks, FreezerCountsMustMatchTheEngineCounters) {
  for (size_t at : {kStreamHeader, kStreamHeader + 8}) {
    ExpectRigRejected<FreezerRig>([at](std::vector<uint8_t>& b) {
      ASSERT_EQ(GetU64(b, kStreamHeader), 2u);
      ASSERT_EQ(GetU64(b, kStreamHeader + 8), 1u);
      PutU64(b, at, GetU64(b, at) + 1);
    });
  }
}

// The engine counts two kills. The payload is the u64 last refault count,
// the f64 refault rate, the u64 last kill time, a bool, the u64 kill count
// and the u64 next check time.
struct LmkRig {
  static constexpr size_t kKillsAt = kStreamHeader + 3 * 8 + 1;

  LmkRig() { engine.stats().Add(stat::kLmkKills, 2); }
  void Transfer(SnapshotArchive& ar) { lmk.Transfer(ar); }

  Engine engine{3};
  MemoryManager mm{engine, MemConfig{}, nullptr};
  Lmk lmk{engine, mm};
};

TEST(SnapshotRestoreChecks, LmkKillCountMustMatchTheEngineCounter) {
  ExpectRigRejected<LmkRig>([](std::vector<uint8_t>& b) {
    ASSERT_EQ(GetU64(b, LmkRig::kKillsAt), 2u);
    PutU64(b, LmkRig::kKillsAt, GetU64(b, LmkRig::kKillsAt) + 1);
  });
}

// A UFS device that completed a 2-page foreground read and an 8-page
// background write. The payload ends with eight u64 totals: pages read,
// pages written, requests completed, total latency, then FG requests, BG
// requests, FG latency and BG latency.
struct BlockDeviceRig {
  BlockDeviceRig() {
    for (IoDir dir : {IoDir::kRead, IoDir::kWrite}) {
      Bio bio;
      bio.dir = dir;
      bio.pages = dir == IoDir::kRead ? 2 : 8;
      bio.foreground = dir == IoDir::kRead;
      dev.Submit(std::move(bio));
    }
    engine.RunFor(Ms(50));
  }
  void Transfer(SnapshotArchive& ar) { dev.Transfer(ar); }
  static size_t TotalAt(const std::vector<uint8_t>& b, size_t i) {
    return b.size() - kStreamTrailer - 8 * (8 - i);
  }

  Engine engine{3};
  BlockDevice dev{engine, Ufs21Profile()};
};

void ExpectDeviceTotals(const std::vector<uint8_t>& b) {
  ASSERT_EQ(GetU64(b, BlockDeviceRig::TotalAt(b, 0)), 2u);
  ASSERT_EQ(GetU64(b, BlockDeviceRig::TotalAt(b, 1)), 8u);
  ASSERT_EQ(GetU64(b, BlockDeviceRig::TotalAt(b, 2)), 2u);
  ASSERT_EQ(GetU64(b, BlockDeviceRig::TotalAt(b, 3)),
            GetU64(b, BlockDeviceRig::TotalAt(b, 6)) + GetU64(b, BlockDeviceRig::TotalAt(b, 7)));
  ASSERT_EQ(GetU64(b, BlockDeviceRig::TotalAt(b, 4)), 1u);
  ASSERT_EQ(GetU64(b, BlockDeviceRig::TotalAt(b, 5)), 1u);
}

void BumpDeviceTotal(std::vector<uint8_t>& b, size_t i) {
  ExpectDeviceTotals(b);
  PutU64(b, BlockDeviceRig::TotalAt(b, i), GetU64(b, BlockDeviceRig::TotalAt(b, i)) + 1);
}

// Pages read, pages written and requests completed restate the engine's
// io.* counters, which Submit sets.
TEST(SnapshotRestoreChecks, DeviceTotalsMustMatchTheEngineCounters) {
  for (size_t i : {0, 1, 2}) {
    ExpectRigRejected<BlockDeviceRig>([i](std::vector<uint8_t>& b) { BumpDeviceTotal(b, i); });
  }
}

TEST(SnapshotRestoreChecks, DeviceLatencyTotalMustSumTheSplit) {
  ExpectRigRejected<BlockDeviceRig>([](std::vector<uint8_t>& b) { BumpDeviceTotal(b, 3); });
}

TEST(SnapshotRestoreChecks, DeviceRequestSplitMustSumToTheCompletedRequests) {
  ExpectRigRejected<BlockDeviceRig>([](std::vector<uint8_t>& b) { BumpDeviceTotal(b, 4); });
}

// A one-page ring after 50 more emissions than it holds, so it has wrapped.
// The payload is the u64 capacity, head, size and drop count, the raw ring,
// the u64 emitted count, one u64 count per event type and the (empty)
// task-name table.
struct TracerRig {
  static constexpr uint64_t kCapacity = TraceEventsPerPage();
  static constexpr size_t kHeadAt = kStreamHeader + 8;
  static constexpr size_t kSizeAt = kStreamHeader + 2 * 8;
  static constexpr size_t kDroppedAt = kStreamHeader + 3 * 8;
  static constexpr size_t kEmittedAt = kStreamHeader + 4 * 8 + kCapacity * sizeof(TraceEvent);
  static constexpr size_t kRefaultsAt =
      kEmittedAt + 8 + 8 * static_cast<size_t>(TraceEventType::kRefault);

  TracerRig() {
    for (uint64_t i = 0; i < kCapacity + 50; ++i) {
      tracer.Emit(i, i % 3 == 0 ? TraceEventType::kRefault : TraceEventType::kPageEvict);
    }
  }
  void Transfer(SnapshotArchive& ar) { tracer.Transfer(ar); }

  Tracer tracer{1};
};

void ExpectRingCursor(const std::vector<uint8_t>& b) {
  ASSERT_EQ(GetU64(b, TracerRig::kHeadAt), 50u);
  ASSERT_EQ(GetU64(b, TracerRig::kSizeAt), TracerRig::kCapacity);
  ASSERT_EQ(GetU64(b, TracerRig::kDroppedAt), 50u);
  ASSERT_EQ(GetU64(b, TracerRig::kEmittedAt), TracerRig::kCapacity + 50);
}

// Head, size and drop count are functions of the push count: the oldest
// event sits at pushes mod capacity once the ring is full, and a ring that
// dropped events is full.
TEST(SnapshotRestoreChecks, TraceRingCursorMustFollowItsPushCount) {
  ExpectRigRejected<TracerRig>([](std::vector<uint8_t>& b) {
    ExpectRingCursor(b);
    PutU64(b, TracerRig::kHeadAt, 51);
  });
  ExpectRigRejected<TracerRig>([](std::vector<uint8_t>& b) {
    ExpectRingCursor(b);
    PutU64(b, TracerRig::kSizeAt, TracerRig::kCapacity - 1);
    PutU64(b, TracerRig::kDroppedAt, 51);
  });
  ExpectRigRejected<TracerRig>([](std::vector<uint8_t>& b) {
    ExpectRingCursor(b);
    PutU64(b, TracerRig::kDroppedAt, 51);
  });
}

TEST(SnapshotRestoreChecks, TraceEmittedCountMustBeThePushCount) {
  ExpectRigRejected<TracerRig>([](std::vector<uint8_t>& b) {
    ExpectRingCursor(b);
    PutU64(b, TracerRig::kEmittedAt, TracerRig::kCapacity + 51);
  });
}

TEST(SnapshotRestoreChecks, TraceEventCountsMustSumToThePushCount) {
  ExpectRigRejected<TracerRig>([](std::vector<uint8_t>& b) {
    ExpectRingCursor(b);
    ASSERT_EQ(GetU64(b, TracerRig::kRefaultsAt), (TracerRig::kCapacity + 50 + 2) / 3);
    PutU64(b, TracerRig::kRefaultsAt, GetU64(b, TracerRig::kRefaultsAt) + 1);
  });
}

}  // namespace
}  // namespace ice
