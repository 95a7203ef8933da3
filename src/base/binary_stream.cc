#include "src/base/binary_stream.h"

#include <stdexcept>

#include "src/base/log.h"

namespace ice {

uint64_t SnapshotChecksum64(const uint8_t* data, size_t size) {
  // FNV-1a structure (xor then multiply by the 64-bit FNV prime) folded over
  // four independent 8-byte lanes instead of single bytes. Snapshots are tens
  // of megabytes — arena dumps — and the byte-serial dependency chain of
  // textbook FNV-1a caps it near 0.7 GB/s, which made the checksum the single
  // most expensive part of both save and restore. Four lanes break the chain
  // (one multiply per lane per 32 bytes) and run at memory speed; the result
  // is still a fixed deterministic function of the bytes, which is all an
  // integrity check needs.
  constexpr uint64_t kOffset = 0xcbf29ce484222325ull;
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t h0 = kOffset;
  uint64_t h1 = kOffset ^ 0x9e3779b97f4a7c15ull;
  uint64_t h2 = kOffset ^ 0xc2b2ae3d27d4eb4full;
  uint64_t h3 = kOffset ^ 0x165667b19e3779f9ull;
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    uint64_t v0, v1, v2, v3;
    std::memcpy(&v0, data + i, 8);
    std::memcpy(&v1, data + i + 8, 8);
    std::memcpy(&v2, data + i + 16, 8);
    std::memcpy(&v3, data + i + 24, 8);
    h0 = (h0 ^ v0) * kPrime;
    h1 = (h1 ^ v1) * kPrime;
    h2 = (h2 ^ v2) * kPrime;
    h3 = (h3 ^ v3) * kPrime;
  }
  uint64_t h = (((h0 * kPrime ^ h1) * kPrime ^ h2) * kPrime) ^ h3;
  for (; i < size; ++i) {
    h = (h ^ data[i]) * kPrime;
  }
  return h;
}

namespace {

void PutU32At(std::vector<uint8_t>& buf, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void PutU64At(std::vector<uint8_t>& buf, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

}  // namespace

BinaryWriter::BinaryWriter() {
  buf_.reserve(256);
  buf_.insert(buf_.end(), kSnapshotMagic, kSnapshotMagic + sizeof(kSnapshotMagic));
  U32(kSnapshotFormatVersion);
}

void BinaryWriter::U8(uint8_t v) { buf_.push_back(v); }

void BinaryWriter::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void BinaryWriter::U32(uint32_t v) {
  size_t at = buf_.size();
  buf_.resize(at + 4);
  PutU32At(buf_, at, v);
}

void BinaryWriter::U64(uint64_t v) {
  size_t at = buf_.size();
  buf_.resize(at + 8);
  PutU64At(buf_, at, v);
}

void BinaryWriter::F64(double v) {
  static_assert(sizeof(double) == 8);
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  U64(bits);
}

void BinaryWriter::Str(const std::string& s) {
  U64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BinaryWriter::Bytes(const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void BinaryWriter::BeginSection(uint32_t tag) {
  ICE_CHECK(tag != 0) << "section tag 0 is the end marker";
  U32(tag);
  open_.push_back(buf_.size());
  U64(0);  // Length placeholder, patched by EndSection.
}

void BinaryWriter::EndSection() {
  ICE_CHECK(!open_.empty()) << "EndSection without BeginSection";
  size_t at = open_.back();
  open_.pop_back();
  PutU64At(buf_, at, buf_.size() - (at + 8));
}

std::vector<uint8_t> BinaryWriter::Finish() {
  ICE_CHECK(open_.empty()) << "Finish with an open section";
  ICE_CHECK(!finished_);
  finished_ = true;
  U32(0);  // End marker.
  U64(SnapshotChecksum64(buf_.data(), buf_.size()));
  return std::move(buf_);
}

BinaryReader::BinaryReader(const uint8_t* data, size_t size, bool verify_checksum)
    : data_(data) {
  constexpr size_t kHeader = sizeof(kSnapshotMagic) + 4;
  if (size < kHeader + 4 + 8) {
    Fail("truncated stream (shorter than header + end marker + checksum)");
  }
  limit_ = size - 8;
  if (verify_checksum) {
    uint64_t want = 0;
    for (int i = 7; i >= 0; --i) {
      want = (want << 8) | data_[limit_ + i];
    }
    if (want != SnapshotChecksum64(data_, limit_)) {
      Fail("checksum mismatch (corrupt or truncated stream)");
    }
  }
  if (std::memcmp(data_, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    Fail("bad magic (not a snapshot stream)");
  }
  pos_ = sizeof(kSnapshotMagic);
  uint32_t version = U32();
  if (version != kSnapshotFormatVersion) {
    Fail("format version " + std::to_string(version) + " (this build reads " +
         std::to_string(kSnapshotFormatVersion) + ")");
  }
}

void BinaryReader::Fail(const std::string& what) const {
  throw std::runtime_error("snapshot: " + what);
}

void BinaryReader::Need(size_t n) const {
  size_t end = section_end_.empty() ? limit_ : section_end_.back();
  if (pos_ + n > end) {
    Fail("truncated stream (read past " +
         std::string(section_end_.empty() ? "end" : "section end") + ")");
  }
}

uint8_t BinaryReader::U8() {
  Need(1);
  return data_[pos_++];
}

uint16_t BinaryReader::U16() {
  Need(2);
  uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

uint32_t BinaryReader::U32() {
  Need(4);
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + i];
  }
  pos_ += 4;
  return v;
}

uint64_t BinaryReader::U64() {
  Need(8);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + i];
  }
  pos_ += 8;
  return v;
}

double BinaryReader::F64() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::string BinaryReader::Str() {
  uint64_t n = U64();
  Need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void BinaryReader::Bytes(void* out, size_t size) {
  Need(size);
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

void BinaryReader::ExpectSection(uint32_t tag) {
  uint32_t got = U32();
  if (got != tag) {
    Fail("expected section tag " + std::to_string(tag) + ", found " +
         std::to_string(got));
  }
  uint64_t len = U64();
  Need(len);
  section_end_.push_back(pos_ + len);
}

void BinaryReader::EndSection() {
  if (section_end_.empty()) {
    Fail("EndSection outside any section");
  }
  if (pos_ != section_end_.back()) {
    Fail("section length mismatch (" +
         std::to_string(section_end_.back() - pos_) + " bytes unread)");
  }
  section_end_.pop_back();
}

void BinaryReader::ExpectEnd() {
  if (!section_end_.empty()) {
    Fail("end marker inside an open section");
  }
  uint32_t got = U32();
  if (got != 0) {
    Fail("expected end marker, found section tag " + std::to_string(got));
  }
  if (pos_ != limit_) {
    Fail("trailing bytes after end marker");
  }
}

}  // namespace ice
