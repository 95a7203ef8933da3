#include "src/base/binary_stream.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ice {
namespace {

std::vector<uint8_t> SampleStream() {
  BinaryWriter w;
  w.BeginSection(7);
  w.U8(0xab);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I64(-42);
  w.F64(3.25);
  w.Str("hello snapshot");
  w.BeginSection(9);
  uint32_t raw[4] = {1, 2, 3, 4};
  w.Bytes(raw, sizeof(raw));
  w.EndSection();
  w.EndSection();
  return w.Finish();
}

TEST(BinaryStreamTest, RoundTripAllTypes) {
  std::vector<uint8_t> buf = SampleStream();
  BinaryReader r(buf);
  r.ExpectSection(7);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_DOUBLE_EQ(r.F64(), 3.25);
  EXPECT_EQ(r.Str(), "hello snapshot");
  r.ExpectSection(9);
  uint32_t raw[4] = {};
  r.Bytes(raw, sizeof(raw));
  EXPECT_EQ(raw[0], 1u);
  EXPECT_EQ(raw[3], 4u);
  r.EndSection();
  r.EndSection();
  r.ExpectEnd();
}

TEST(BinaryStreamTest, EmptyStreamRoundTrips) {
  BinaryWriter w;
  std::vector<uint8_t> buf = w.Finish();
  BinaryReader r(buf);
  r.ExpectEnd();
}

TEST(BinaryStreamTest, WrongSectionTagThrows) {
  std::vector<uint8_t> buf = SampleStream();
  BinaryReader r(buf);
  EXPECT_THROW(r.ExpectSection(8), std::runtime_error);
}

TEST(BinaryStreamTest, TruncatedStreamThrows) {
  std::vector<uint8_t> buf = SampleStream();
  for (size_t cut : {size_t{0}, size_t{5}, buf.size() / 2, buf.size() - 1}) {
    std::vector<uint8_t> trunc(buf.begin(), buf.begin() + cut);
    EXPECT_THROW(BinaryReader r(trunc), std::runtime_error) << "cut=" << cut;
  }
}

TEST(BinaryStreamTest, CorruptByteThrowsChecksum) {
  std::vector<uint8_t> buf = SampleStream();
  buf[buf.size() / 2] ^= 0x40;
  try {
    BinaryReader r(buf);
    FAIL() << "corrupt stream accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(BinaryStreamTest, BadMagicThrows) {
  std::vector<uint8_t> buf = SampleStream();
  buf[0] = 'X';
  // Keep the checksum valid so the magic check itself is exercised.
  uint64_t sum = SnapshotChecksum64(buf.data(), buf.size() - 8);
  for (int i = 0; i < 8; ++i) {
    buf[buf.size() - 8 + i] = static_cast<uint8_t>(sum >> (8 * i));
  }
  try {
    BinaryReader r(buf);
    FAIL() << "bad magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(BinaryStreamTest, VersionMismatchThrows) {
  std::vector<uint8_t> buf = SampleStream();
  buf[8] = 99;  // Version field follows the 8-byte magic.
  uint64_t sum = SnapshotChecksum64(buf.data(), buf.size() - 8);
  for (int i = 0; i < 8; ++i) {
    buf[buf.size() - 8 + i] = static_cast<uint8_t>(sum >> (8 * i));
  }
  try {
    BinaryReader r(buf);
    FAIL() << "version skew accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(BinaryStreamTest, SectionUnderreadDetected) {
  BinaryWriter w;
  w.BeginSection(3);
  w.U64(1);
  w.U64(2);
  w.EndSection();
  std::vector<uint8_t> buf = w.Finish();
  BinaryReader r(buf);
  r.ExpectSection(3);
  r.U64();
  EXPECT_THROW(r.EndSection(), std::runtime_error);
}

TEST(BinaryStreamTest, SectionOverreadDetected) {
  BinaryWriter w;
  w.BeginSection(3);
  w.U32(1);
  w.EndSection();
  w.U64(0x1111111111111111ull);
  std::vector<uint8_t> buf = w.Finish();
  BinaryReader r(buf);
  r.ExpectSection(3);
  r.U32();
  // Reading past the section boundary must throw even though the outer
  // stream has bytes left.
  EXPECT_THROW(r.U64(), std::runtime_error);
}

// ---- SnapshotArchive -----------------------------------------------------

enum class Color : uint8_t { kRed, kBlue };

// One layout, written once, drives both directions.
struct Sample {
  Color color = Color::kRed;
  int delta = 0;
  double ratio = 0.0;
  std::string name;
  std::deque<uint64_t> fifo;
  std::map<int, std::string> names;

  void Transfer(SnapshotArchive& ar) {
    ar.Expect<uint32_t>(42, "layout tag");
    ar.U8(color);
    ar.I64(delta);
    ar.F64(ratio);
    ar.Str(name);
    ar.Sequence(fifo, 8, [&ar](uint64_t& v) { ar.U64(v); });
    ar.Entries(names, 16, [&ar](int& key, std::string& value) {
      ar.I64(key);
      ar.Str(value);
    });
  }
};

std::vector<uint8_t> SaveInSection(Sample& sample) {
  BinaryWriter w;
  SnapshotArchive ar(w);
  ar.BeginSection(5);
  sample.Transfer(ar);
  ar.EndSection();
  return w.Finish();
}

TEST(SnapshotArchiveTest, TransferRoundTrips) {
  Sample want{Color::kBlue, -7, 0.25, "zram", {3, 1, 2}, {{1, "a"}, {9, "b"}}};
  std::vector<uint8_t> buf = SaveInSection(want);

  Sample got;
  got.fifo = {99, 98, 97, 96};  // Resized away by the restore.
  BinaryReader r(buf);
  SnapshotArchive ar(r);
  EXPECT_TRUE(ar.loading());
  ar.BeginSection(5);
  got.Transfer(ar);
  ar.EndSection();
  r.ExpectEnd();
  EXPECT_EQ(got.color, Color::kBlue);
  EXPECT_EQ(got.delta, -7);
  EXPECT_EQ(got.ratio, 0.25);
  EXPECT_EQ(got.name, "zram");
  EXPECT_EQ(got.fifo, want.fifo);
  EXPECT_EQ(got.names, want.names);
}

// Restores a map from a count and `keys`, each with a one-letter value, and
// expects the archive to reject it.
void ExpectEntriesRejected(const std::vector<int>& keys) {
  BinaryWriter w;
  w.U64(keys.size());
  for (int key : keys) {
    w.I64(key);
    w.Str("v");
  }
  std::vector<uint8_t> buf = w.Finish();
  BinaryReader r(buf);
  SnapshotArchive ar(r);
  std::map<int, std::string> names;
  try {
    ar.Entries(names, 16, [&ar](int& key, std::string& value) {
      ar.I64(key);
      ar.Str(value);
    });
    ADD_FAILURE() << "keys were accepted; the map holds " << names.size() << " entries";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("snapshot: ", 0), 0u) << e.what();
  }
}

// A save writes each key once, so a repeated key is a damaged stream: the
// restore would merge two entries into one, and a re-save would lose one.
TEST(SnapshotArchiveTest, EntriesRejectADuplicateKey) { ExpectEntriesRejected({1, 1}); }

// A save writes keys in ascending order; the map would reorder descending
// ones, so a re-save would differ from the stream.
TEST(SnapshotArchiveTest, EntriesRejectDescendingKeys) { ExpectEntriesRejected({9, 1}); }

TEST(SnapshotArchiveTest, ExpectMismatchThrows) {
  BinaryWriter w;
  SnapshotArchive save(w);
  save.Expect<uint64_t>(7, "task count");
  std::vector<uint8_t> buf = w.Finish();
  BinaryReader r(buf);
  SnapshotArchive load(r);
  EXPECT_THROW(load.Expect<uint64_t>(8, "task count"), std::runtime_error);
}

// A bool travels as one byte, 0 or 1. Any other byte is a damaged stream:
// reading it as true would re-save it as 1, and the two runs would diverge
// without an error.
TEST(SnapshotArchiveTest, BoolRejectsBytesOtherThanZeroAndOne) {
  BinaryWriter w;
  SnapshotArchive save(w);
  bool yes = true;
  bool no = false;
  save.Bool(yes);
  save.Bool(no);
  BinaryWriter bytes;
  bytes.U8(1);
  bytes.U8(0);
  EXPECT_EQ(w.Finish(), bytes.Finish());

  for (int byte = 0; byte < 256; ++byte) {
    BinaryWriter raw;
    raw.U8(static_cast<uint8_t>(byte));
    std::vector<uint8_t> buf = raw.Finish();
    BinaryReader r(buf);
    SnapshotArchive load(r);
    bool v = byte == 0;  // The opposite of what a valid byte restores.
    if (byte <= 1) {
      load.Bool(v);
      EXPECT_EQ(v, byte == 1);
      continue;
    }
    try {
      load.Bool(v);
      ADD_FAILURE() << "bool byte " << byte << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("snapshot: ", 0), 0u) << e.what();
    }
  }
}

TEST(SnapshotArchiveTest, CountBoundedBySectionNotStream) {
  BinaryWriter w;
  w.BeginSection(1);
  w.U64(3);  // Three 8-byte items announced, two present.
  w.U64(0);
  w.U64(0);
  w.EndSection();
  w.U64(0);  // Bytes past the section must not count.
  std::vector<uint8_t> buf = w.Finish();
  BinaryReader r(buf);
  SnapshotArchive ar(r);
  ar.BeginSection(1);
  EXPECT_THROW(ar.Count(0, 8), std::runtime_error);
}

}  // namespace
}  // namespace ice
