#include "src/mem/address_space.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/binary_stream.h"
#include "src/base/log.h"

namespace ice {

namespace {

constexpr uintptr_t kHugePageBytes = uintptr_t{2} << 20;
#if defined(__linux__) && defined(MADV_HUGEPAGE)
constexpr bool kHugePages = true;
constexpr int kHugePageAdvice = MADV_HUGEPAGE;
#else
constexpr bool kHugePages = false;
constexpr int kHugePageAdvice = 0;
#endif

// Maps a zero-filled arena of `bytes` (> 0) on a private anonymous mapping
// of its own. Kernel zero-fill leaves PageInfo's padding (26 payload bytes
// in a 32-byte record) zero, which the raw snapshot dump needs: garbage
// padding would make otherwise-identical states compare unequal byte-wise.
// The mapping is page-aligned, so records pair up two per cache line. It
// ends at least one record past the arena, and ASan builds poison that
// tail, so an overrun of the last record is reported.
//
// On Linux an arena of 2 MiB or more starts on a 2 MiB boundary (2 MiB of
// extra address space is reserved, and what the alignment skips is given
// back) and its whole 2 MiB blocks are advised MADV_HUGEPAGE, so a touch at
// a random vpn skips a 4 KiB page walk and a space costs a few faults to
// build. The tail past the last whole block keeps 4 KiB pages: rounding the
// mapping up to 2 MiB would inflate RSS.
std::unique_ptr<PageInfo[], PageArenaDeleter> MapArena(size_t bytes) {
  static const size_t kHostPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  size_t map_bytes = (bytes + sizeof(PageInfo) + kHostPage - 1) / kHostPage * kHostPage;
  size_t huge_bytes = kHugePages ? bytes & ~(kHugePageBytes - 1) : 0;
  size_t reserve = map_bytes + (huge_bytes > 0 ? kHugePageBytes : 0);
  void* raw = mmap(nullptr, reserve, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    throw std::bad_alloc();
  }
  char* begin = static_cast<char*>(raw);
  if (huge_bytes > 0) {
    char* aligned = reinterpret_cast<char*>(
        (reinterpret_cast<uintptr_t>(raw) + kHugePageBytes - 1) & ~(kHugePageBytes - 1));
    char* end = aligned + map_bytes;
    if (aligned > begin) {
      munmap(begin, aligned - begin);
    }
    if (begin + reserve > end) {
      munmap(end, begin + reserve - end);
    }
    begin = aligned;
    // Advice only: where THP is off the arena keeps 4 KiB pages.
    madvise(begin, huge_bytes, kHugePageAdvice);
  }
  ASAN_POISON_MEMORY_REGION(begin + bytes, map_bytes - bytes);
  return {reinterpret_cast<PageInfo*>(begin), PageArenaDeleter{map_bytes}};
}

}  // namespace

void PageArenaDeleter::operator()(PageInfo* pages) const {
  // Poison outlives munmap; a later mapping at this address must start clean.
  ASAN_UNPOISON_MEMORY_REGION(pages, map_bytes);
  munmap(pages, map_bytes);
}

AddressSpace::AddressSpace(Pid pid, Uid uid, std::string name, const AddressSpaceLayout& layout)
    : pid_(pid), uid_(uid), name_(std::move(name)), layout_(layout) {
  page_count_ = layout.total();
  if (page_count_ > 0) {
    pages_ = MapArena(page_count_ * sizeof(PageInfo));
  }
  for (uint32_t vpn = 0; vpn < page_count_; ++vpn) {
    PageInfo& p = *new (pages_.get() + vpn) PageInfo();
    p.vpn = vpn;
    p.set_kind(KindOf(vpn));
  }
  lru_.BindArena(this, pages_.get(), page_count_);
}

PageInfo& AddressSpace::page(uint32_t vpn) {
  ICE_CHECK_LT(vpn, page_count_);
  return pages_[vpn];
}

const PageInfo& AddressSpace::page(uint32_t vpn) const {
  ICE_CHECK_LT(vpn, page_count_);
  return pages_[vpn];
}

HeapKind AddressSpace::KindOf(uint32_t vpn) const {
  if (vpn < java_end()) {
    return HeapKind::kJavaHeap;
  }
  if (vpn < native_end()) {
    return HeapKind::kNativeHeap;
  }
  return HeapKind::kFile;
}

void AddressSpace::AddResident(int64_t delta) {
  int64_t next = static_cast<int64_t>(resident_) + delta;
  ICE_CHECK_GE(next, 0);
  resident_ = static_cast<PageCount>(next);
}

void AddressSpace::AddEvicted(int64_t delta) {
  int64_t next = static_cast<int64_t>(evicted_) + delta;
  ICE_CHECK_GE(next, 0);
  evicted_ = static_cast<PageCount>(next);
}

// The arena dumps as raw bytes: links are vpn indices, not pointers.
static_assert(std::is_trivially_copyable_v<PageInfo>,
              "PageInfo must stay raw-dumpable for snapshots");

namespace {

// A freshly-constructed page record (zeroed padding, like the arena
// constructor produces) used as the byte reference for the sparse dump.
struct FreshRecord {
  alignas(alignof(PageInfo)) unsigned char bytes[sizeof(PageInfo)] = {};

  explicit FreshRecord(HeapKind kind) {
    PageInfo* p = new (bytes) PageInfo();
    p->set_kind(kind);
  }

  bool Matches(const PageInfo& record, uint32_t vpn) {
    reinterpret_cast<PageInfo*>(bytes)->vpn = vpn;
    return std::memcmp(bytes, &record, sizeof(PageInfo)) == 0;
  }
};

}  // namespace

void AddressSpace::Transfer(SnapshotArchive& ar) {
  ar.Expect<uint32_t>(space_id_, "address-space id");
  ar.Expect<uint64_t>(page_count_, "address-space page count");
  // Sparse arena dump: only runs of records that differ from their
  // freshly-constructed state, as {u32 first vpn, u32 count, raw records}
  // extents. Typically half of an arena is untouched VA whose records are
  // byte-identical to what the constructor rebuilds, so shipping them would
  // double the stream for nothing — arena payload dominates snapshot size.
  // On restore the arena was freshly constructed by the lifecycle replay, so
  // every record outside the extents already holds its saved (fresh) bytes.
  std::vector<std::pair<uint32_t, uint32_t>> extents;
  if (!ar.loading()) {
    FreshRecord fresh(HeapKind::kJavaHeap);
    HeapKind kind = HeapKind::kJavaHeap;
    uint32_t run_start = 0;
    bool in_run = false;
    for (uint32_t vpn = 0; vpn < page_count_; ++vpn) {
      HeapKind k = KindOf(vpn);
      if (k != kind) {
        kind = k;
        fresh = FreshRecord(kind);
      }
      if (fresh.Matches(pages_[vpn], vpn)) {
        if (in_run) {
          extents.emplace_back(run_start, vpn - run_start);
          in_run = false;
        }
      } else if (!in_run) {
        run_start = vpn;
        in_run = true;
      }
    }
    if (in_run) {
      extents.emplace_back(run_start, static_cast<uint32_t>(page_count_) - run_start);
    }
  }
  uint64_t prev_end = 0;
  ar.Sequence(extents, 8, [&](std::pair<uint32_t, uint32_t>& extent) {
    auto& [start, run] = extent;
    ar.U32(start);
    ar.U32(run);
    uint64_t end = static_cast<uint64_t>(start) + run;
    if (start < prev_end || end > page_count_) {
      SnapshotArchive::Fail("arena extent out of order or out of range for " + name_);
    }
    ar.Bytes(pages_.get() + start, run * sizeof(PageInfo));
    prev_end = end;
  });
  ar.U64(resident_);
  ar.U64(evicted_);
  ar.U64(total_evictions);
  ar.U64(total_refaults);
  ar.U32(last_flash_fault_vpn);
  lru_.Transfer(ar);
}

}  // namespace ice
