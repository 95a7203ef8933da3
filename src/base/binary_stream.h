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
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
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
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  bool Bool() { return U8() != 0; }
  std::string Str();
  void Bytes(void* out, size_t size);

  // Reads a section header and requires its tag to equal `tag`.
  void ExpectSection(uint32_t tag);
  // Requires the cursor to sit exactly at the innermost open section's end.
  void EndSection();
  // Reads the zero end-marker tag (after all top-level sections).
  void ExpectEnd();

  size_t remaining() const { return limit_ - pos_; }

 private:
  [[noreturn]] void Fail(const std::string& what) const;
  void Need(size_t n) const;

  const uint8_t* data_;
  size_t pos_ = 0;
  size_t limit_ = 0;                // Checksum excluded.
  std::vector<size_t> section_end_;  // Ends of open sections, innermost last.
};

// The stream checksum: FNV-1a folded over four 8-byte lanes (see the
// definition for why not plain byte-wise FNV-1a).
uint64_t SnapshotChecksum64(const uint8_t* data, size_t size);

}  // namespace ice

#endif  // SRC_BASE_BINARY_STREAM_H_
