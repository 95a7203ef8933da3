#include "src/ice/mapping_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/base/binary_stream.h"

namespace ice {
namespace {

TEST(MappingTable, AddAndFind) {
  MappingTable table;
  EXPECT_TRUE(table.AddApp(10001));
  EXPECT_TRUE(table.AddProcess(10001, 100, 0));
  EXPECT_TRUE(table.AddProcess(10001, 101, 0));
  const MappingTable::AppEntry* e = table.Find(10001);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->processes.size(), 2u);
  EXPECT_EQ(table.app_count(), 1u);
}

TEST(MappingTable, UidOfPidResolves) {
  MappingTable table;
  table.AddApp(10001);
  table.AddProcess(10001, 100, 0);
  table.AddApp(10002);
  table.AddProcess(10002, 200, 0);
  EXPECT_EQ(table.UidOfPid(100), 10001);
  EXPECT_EQ(table.UidOfPid(200), 10002);
  EXPECT_EQ(table.UidOfPid(999), kInvalidUid);
}

TEST(MappingTable, AddProcessRequiresApp) {
  MappingTable table;
  EXPECT_FALSE(table.AddProcess(10001, 100, 0));
}

TEST(MappingTable, AddAppIdempotent) {
  MappingTable table;
  EXPECT_TRUE(table.AddApp(10001));
  EXPECT_TRUE(table.AddApp(10001));
  EXPECT_EQ(table.app_count(), 1u);
}

TEST(MappingTable, AddProcessUpdatesScoreOnDuplicate) {
  MappingTable table;
  table.AddApp(10001);
  table.AddProcess(10001, 100, 0);
  table.AddProcess(10001, 100, 900);
  const auto* e = table.Find(10001);
  ASSERT_EQ(e->processes.size(), 1u);
  EXPECT_EQ(e->processes[0].score, 900);
}

TEST(MappingTable, RemoveAppDropsItsProcesses) {
  MappingTable table;
  table.AddApp(10001);
  table.AddProcess(10001, 100, 0);
  table.AddProcess(10001, 101, 0);
  EXPECT_TRUE(table.RemoveApp(10001));
  EXPECT_EQ(table.UidOfPid(100), kInvalidUid);
  EXPECT_EQ(table.Find(10001), nullptr);
  EXPECT_FALSE(table.RemoveApp(10001));
}

TEST(MappingTable, FrozenStateTracked) {
  MappingTable table;
  table.AddApp(10001);
  EXPECT_TRUE(table.SetFrozen(10001, true));
  EXPECT_TRUE(table.Find(10001)->frozen);
  EXPECT_TRUE(table.SetFrozen(10001, false));
  EXPECT_FALSE(table.Find(10001)->frozen);
  EXPECT_FALSE(table.SetFrozen(99999, true));
}

TEST(MappingTable, SetScoreAppliesToAllProcesses) {
  MappingTable table;
  table.AddApp(10001);
  table.AddProcess(10001, 100, 0);
  table.AddProcess(10001, 101, 0);
  table.SetScore(10001, 200);
  for (const auto& p : table.Find(10001)->processes) {
    EXPECT_EQ(p.score, 200);
  }
}

TEST(MappingTable, MemoryAccountingMatchesPaper) {
  // §6.4.1: 20 apps x 3 processes = 20*64B + 20*3*(64+1+64)B = 9020 B
  // (the paper rounds its arithmetic to 13.8 KB with slightly different
  // bookkeeping; the structure of the accounting is what we verify).
  MappingTable table;
  for (int i = 0; i < 20; ++i) {
    table.AddApp(10000 + i);
    for (int p = 0; p < 3; ++p) {
      table.AddProcess(10000 + i, 100 + i * 3 + p, 0);
    }
  }
  size_t expected = 20 * MappingTable::kUidEntryBytes +
                    20 * 3 * MappingTable::kPidEntryBytes;
  EXPECT_EQ(table.MemoryFootprintBytes(), expected);
  EXPECT_LT(table.MemoryFootprintBytes(), MappingTable::kUpperBoundBytes);
}

TEST(MappingTable, UpperBoundEnforced) {
  // §6.4.1: the table is capped at 32 KB for safety.
  MappingTable table;
  int added = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!table.AddApp(10000 + i)) {
      break;
    }
    ++added;
    if (!table.AddProcess(10000 + i, i * 4, 0)) {
      break;
    }
  }
  EXPECT_LT(added, 1000);
  EXPECT_LE(table.MemoryFootprintBytes(), MappingTable::kUpperBoundBytes);
}

TEST(MappingTable, RemovalFreesBudget) {
  MappingTable table;
  int added = 0;
  while (table.AddApp(10000 + added) && table.AddProcess(10000 + added, added, 0)) {
    ++added;
  }
  table.RemoveApp(10000);
  EXPECT_TRUE(table.AddApp(99999));
}

TEST(MappingTable, SnapshotRoundTrip) {
  MappingTable table;
  table.AddApp(10001);
  table.AddProcess(10001, 100, -3);
  table.AddProcess(10001, 101, 5);
  table.AddApp(10002);
  table.SetFrozen(10002, true);
  BinaryWriter w;
  SnapshotArchive save(w);
  table.Transfer(save);
  std::vector<uint8_t> buf = w.Finish();

  MappingTable restored;
  restored.AddApp(10009);  // Overwritten by the restore.
  BinaryReader r(buf);
  SnapshotArchive load(r);
  restored.Transfer(load);
  ASSERT_EQ(restored.app_count(), 2u);
  EXPECT_EQ(restored.Find(10009), nullptr);
  EXPECT_EQ(restored.UidOfPid(101), 10001);
  EXPECT_EQ(restored.Find(10001)->processes[0].score, -3);
  EXPECT_TRUE(restored.Find(10002)->frozen);
}

// A length prefix larger than the bytes left is rejected before anything is
// allocated: 2^62 would overflow reserve(), 2^40 would exhaust memory.
TEST(MappingTable, OversizedLengthPrefixThrows) {
  for (uint64_t count : {uint64_t{1} << 62, uint64_t{1} << 40}) {
    BinaryWriter w;
    w.U64(count);
    std::vector<uint8_t> buf = w.Finish();
    BinaryReader r(buf);
    SnapshotArchive load(r);
    MappingTable table;
    EXPECT_THROW(table.Transfer(load), std::runtime_error) << count;
  }
}

}  // namespace
}  // namespace ice
