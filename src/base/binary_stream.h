// Versioned binary serialization for simulation snapshots.
//
// A stream is: an 8-byte magic, a u32 format version, then a sequence of
// tagged sections ({u32 tag, u64 payload length, payload}, nestable), a
// zero end-marker tag, and a trailing 64-bit checksum (lane-folded FNV-1a,
// SnapshotChecksum64) over everything before it. Integers are little-endian
// fixed-width; no varints — snapshot size is dominated by page-arena dumps,
// not field encoding.
//
// BinaryReader is defensive end to end: magic/version/checksum are verified
// up front, every read is bounds-checked, and section nesting is enforced,
// so corrupt, truncated, or version-skewed inputs fail with a
// std::runtime_error ("snapshot: ...") instead of undefined behavior.
#ifndef SRC_BASE_BINARY_STREAM_H_
#define SRC_BASE_BINARY_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace ice {

inline constexpr char kSnapshotMagic[8] = {'I', 'C', 'E', 'S', 'N', 'A', 'P', '1'};
// Version history: 1 = initial format; 2 = Engine serializes the auxiliary
// noise RNG stream after the seeded one.
inline constexpr uint32_t kSnapshotFormatVersion = 2;

class BinaryWriter {
 public:
  BinaryWriter();

  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(const std::string& s);
  void Bytes(const void* data, size_t size);

  // Opens a tagged section (tag must be nonzero). Sections nest; each
  // BeginSection must be matched by an EndSection before Finish().
  void BeginSection(uint32_t tag);
  void EndSection();

  // Capacity hint: pre-grows the buffer to hold `total` more bytes, so a
  // caller that knows the dominant payload size (page-arena dumps) avoids
  // the doubling-growth copies of a multi-megabyte append sequence.
  void Reserve(size_t total) { buf_.reserve(buf_.size() + total); }

  // Writes the end marker and the trailing checksum, then returns the
  // completed buffer. The writer is spent afterwards.
  std::vector<uint8_t> Finish();

 private:
  std::vector<uint8_t> buf_;
  std::vector<size_t> open_;  // Offsets of open sections' length fields.
  bool finished_ = false;
};

class BinaryReader {
 public:
  // Verifies magic, version, and the trailing checksum; throws
  // std::runtime_error on any mismatch or short buffer. The buffer must
  // outlive the reader. `verify_checksum = false` skips the full-stream
  // checksum scan (magic/version/bounds checks remain) — for buffers that
  // never left this process, where the scan costs a pass over tens of
  // megabytes and can't catch anything.
  BinaryReader(const uint8_t* data, size_t size, bool verify_checksum = true);
  explicit BinaryReader(const std::vector<uint8_t>& buf, bool verify_checksum = true)
      : BinaryReader(buf.data(), buf.size(), verify_checksum) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();
  void Bytes(void* out, size_t size);

  // Reads a section header and requires its tag to equal `tag`.
  void ExpectSection(uint32_t tag);
  // Requires the cursor to sit exactly at the innermost open section's end.
  void EndSection();
  // Reads the zero end-marker tag (after all top-level sections).
  void ExpectEnd();

  // Bytes left before the innermost open section's end (the stream's end
  // outside any section).
  size_t remaining() const { return End() - pos_; }

 private:
  [[noreturn]] void Fail(const std::string& what) const;
  size_t End() const { return section_end_.empty() ? limit_ : section_end_.back(); }
  void Need(size_t n) const;

  const uint8_t* data_;
  size_t pos_ = 0;
  size_t limit_ = 0;                // Checksum excluded.
  std::vector<size_t> section_end_;  // Ends of open sections, innermost last.
};

// One snapshot layout per subsystem: each snapshotting class has a single
// Transfer(SnapshotArchive&) that lists its fields once. Saving wraps a
// BinaryWriter and every call writes its field; restoring wraps a
// BinaryReader and the same call reads into the field, so the two
// directions cannot drift apart. Work that only happens on restore (replays,
// re-linking, clearing containers) sits in explicit `if (ar.loading())`
// branches. Every restore-side error, including a structural mismatch, is a
// std::runtime_error("snapshot: ...").
class SnapshotArchive {
 public:
  explicit SnapshotArchive(BinaryWriter& w) : writer_(&w) {}
  explicit SnapshotArchive(BinaryReader& r) : reader_(&r) {}

  bool loading() const { return reader_ != nullptr; }

  // Fields. The method names the wire type; `v` may be any integral or enum
  // type that round-trips through it.
  template <class T>
  void U8(T& v) { Field<uint8_t>(v); }
  template <class T>
  void U32(T& v) { Field<uint32_t>(v); }
  template <class T>
  void U64(T& v) { Field<uint64_t>(v); }
  template <class T>
  void I64(T& v) { Field<int64_t>(v); }
  void F64(double& v) { Field<double>(v); }
  // One byte, 0 or 1; restoring throws on any other byte, which a save
  // never writes.
  void Bool(bool& v);
  void Str(std::string& s);
  void Bytes(void* data, size_t size);

  // A structural value the restoring side has already rebuilt (id counters,
  // layout sizes, the aging policy, histogram shape): saving writes `value`
  // as `Wire`; restoring reads one and throws unless it equals `value`.
  template <class Wire, class T>
  void Expect(T value, const char* what) {
    Wire want = static_cast<Wire>(value);
    Wire got = want;
    Field<Wire>(got);
    if (got != want) {
      Fail(std::string(what) + " mismatch: snapshot has " + std::to_string(got) +
           ", expected " + std::to_string(want));
    }
  }

  // A u64 length prefix for `n` items of at least `min_item_bytes` each on
  // the wire. Saving writes `n`; restoring reads it and throws unless that
  // many items fit in the bytes left in the section, so the caller may size
  // containers from the result. Returns the count either way.
  size_t Count(size_t n, size_t min_item_bytes);

  // A length-prefixed vector or deque: restoring resizes `seq` to the count
  // first, then `item(element)` transfers each element in order.
  template <class Seq, class F>
  void Sequence(Seq& seq, size_t min_item_bytes, F&& item) {
    size_t n = Count(seq.size(), min_item_bytes);
    if (loading()) {
      seq.resize(n);
    }
    for (auto& element : seq) {
      item(element);
    }
  }

  // A length-prefixed ordered map: `entry(key, value)` transfers one entry.
  // Restoring assigns map[key] per entry and does not clear `map` first. A
  // save writes keys in strictly ascending order, so restoring throws on a
  // duplicate or descending key, which would merge or reorder entries.
  template <class Map, class F>
  void Entries(Map& map, size_t min_entry_bytes, F&& entry) {
    size_t n = Count(map.size(), min_entry_bytes);
    if (!loading()) {
      for (auto& [key, value] : map) {
        typename Map::key_type k = key;
        entry(k, value);
      }
      return;
    }
    auto last = map.end();
    for (size_t i = 0; i < n; ++i) {
      typename Map::key_type key{};
      typename Map::mapped_type value{};
      entry(key, value);
      if (last != map.end() && !map.key_comp()(last->first, key)) {
        Fail("map keys not strictly ascending");
      }
      last = map.insert_or_assign(std::move(key), std::move(value)).first;
    }
  }

  // A tagged section: saving opens one, restoring requires the next one to
  // carry `tag`; EndSection closes it (on restore, only once it is fully read).
  void BeginSection(uint32_t tag);
  void EndSection();

  // Rejects the stream: throws std::runtime_error("snapshot: " + what).
  [[noreturn]] static void Fail(const std::string& what);

 private:
  // Saving writes `v` as `Wire`; restoring reads a `Wire` into `v`.
  template <class Wire, class T>
  void Field(T& v) {
    if (writer_ != nullptr) {
      Put(static_cast<Wire>(v));
    } else {
      Wire wire{};
      Get(wire);
      v = static_cast<T>(wire);
    }
  }
  void Put(uint8_t v) { writer_->U8(v); }
  void Put(uint32_t v) { writer_->U32(v); }
  void Put(uint64_t v) { writer_->U64(v); }
  void Put(int64_t v) { writer_->I64(v); }
  void Put(double v) { writer_->F64(v); }
  void Get(uint8_t& v) { v = reader_->U8(); }
  void Get(uint32_t& v) { v = reader_->U32(); }
  void Get(uint64_t& v) { v = reader_->U64(); }
  void Get(int64_t& v) { v = reader_->I64(); }
  void Get(double& v) { v = reader_->F64(); }

  BinaryWriter* writer_ = nullptr;
  BinaryReader* reader_ = nullptr;
};

// The stream checksum: FNV-1a folded over four 8-byte lanes (see the
// definition for why not plain byte-wise FNV-1a).
uint64_t SnapshotChecksum64(const uint8_t* data, size_t size);

}  // namespace ice

#endif  // SRC_BASE_BINARY_STREAM_H_
