#include "src/mem/address_space.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <string>
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
// of its own. Kernel zero-fill leaves PageInfo's padding (14 payload bytes
// in a 16-byte record) zero, so a record nobody wrote is all zero: the
// fresh record, which the sparse snapshot dump leaves out. The mapping is
// page-aligned, so records sit four to a cache line. It ends at least one
// record past the arena, and ASan builds poison that tail, so an overrun of
// the last record is reported.
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
    // Zero bytes are fresh records (PageInfo is implicit-lifetime), so the
    // mapping is the construction: no record is written here.
    pages_ = MapArena(page_count_ * sizeof(PageInfo));
  }
  lru_.BindArena(this, pages_.get(), page_count_);
}

static_assert(std::is_trivially_copyable_v<PageInfo>,
              "PageInfo must stay plain data for the snapshot image");

namespace {

// A page record as snapshot format v2 stores it: the in-memory record of
// the format's first release, which also carried its vpn and heap kind, and
// kNoPage links on every record that was not on a two-list LRU list.
struct V2Record {
  uint32_t prev = kNoPage;
  uint32_t next = kNoPage;
  uint32_t vpn = 0;
  uint32_t zram_bytes = 0;
  uint64_t evict_cookie = 0;
  uint16_t bits = 0;  // PageInfo's flag word with the heap kind in bits 3-4.
  uint8_t zero[6] = {};
};
static_assert(sizeof(V2Record) == kSnapshotRecordBytes &&
              std::is_trivially_copyable_v<V2Record>);

constexpr int kV2KindShift = 3;
constexpr uint16_t kV2KindBits = 0x3 << kV2KindShift;

// Whether a record is fresh: all zero. The link word is zero unless the page
// is on a two-list list or evicted (LruLists::Unlink writes zeros), so this
// is exactly a record whose v2 image is the fresh record's, the ones the
// sparse dump leaves out.
bool IsFresh(const PageInfo& p) {
  return p.bits() == 0 && p.zram_bytes == 0 && p.lru.prev == 0 && p.lru.next == 0;
}

}  // namespace

void AddressSpace::Transfer(SnapshotArchive& ar, ZramUsage* restored_zram) {
  ar.Expect<uint32_t>(space_id_, "address-space id");
  ar.Expect<uint64_t>(page_count_, "address-space page count");
  // Sparse arena dump: only runs of records that are not fresh, as {u32
  // first vpn, u32 count, v2 records} extents. Typically half of an arena is
  // untouched VA, so shipping it would double the stream for nothing — arena
  // payload dominates snapshot size. On restore the arena was freshly
  // constructed by the lifecycle replay, so every record outside the
  // extents already holds its saved (fresh) state.
  std::vector<std::pair<uint32_t, uint32_t>> extents;
  if (!ar.loading()) {
    uint32_t run_start = 0;
    bool in_run = false;
    for (uint32_t vpn = 0; vpn < page_count_; ++vpn) {
      if (IsFresh(pages_[vpn])) {
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
  // The v2 image takes vpn and heap kind from the record's position, and
  // reads the link word as links on a two-list list and as the shadow
  // cookie everywhere else (zero unless the page is evicted).
  auto to_image = [&](uint32_t vpn) {
    const PageInfo& p = pages_[vpn];
    V2Record r;
    if (lru_.on_two_list(p)) {
      r.prev = p.lru.prev;
      r.next = p.lru.next;
    } else {
      r.evict_cookie = p.evict_cookie();
    }
    r.vpn = vpn;
    r.zram_bytes = p.zram_bytes;
    r.bits = static_cast<uint16_t>(p.bits() | static_cast<uint16_t>(KindOf(vpn)) << kV2KindShift);
    return r;
  };
  // Restore checks every field that indexes something or selects a code
  // path, and stores a record only once it passed: a snapshot is taken at a
  // quiescent point, so no page is mid-fault, a linked page is present, and
  // a page carries a shadow cookie exactly when it is evicted and a zram
  // size exactly when it is in zram. The link word then holds either the
  // links or the cookie, never both. Returns why the image cannot be this
  // space's record at `vpn`, or "" once stored.
  auto from_image = [&](const V2Record& r, uint32_t vpn) -> std::string {
    if (r.vpn != vpn) {
      return "record carries vpn " + std::to_string(r.vpn);
    }
    if ((r.bits & kV2KindBits) >> kV2KindShift != static_cast<uint16_t>(KindOf(vpn))) {
      return "heap kind does not match the layout";
    }
    PageInfo flags;
    flags.set_bits(static_cast<uint16_t>(r.bits & ~kV2KindBits));
    if (flags.state() > PageState::kOnFlash) {
      return "state " + std::to_string(static_cast<int>(flags.state())) +
             " is not a quiescent page state";
    }
    auto on_state = [&] {
      return " on a page in state " + std::to_string(static_cast<int>(flags.state()));
    };
    if (flags.lru_linked() && flags.state() != PageState::kPresent) {
      return "LRU membership" + on_state();
    }
    const bool listed = lru_.on_two_list(flags);
    for (uint32_t link : {r.prev, r.next}) {
      if (link != kNoPage && (!listed || link >= page_count_)) {
        return "LRU link " + std::to_string(link) +
               (listed ? " outside the arena" : " on a page off the two-list lists");
      }
    }
    const bool in_zram = flags.state() == PageState::kInZram;
    if ((r.evict_cookie != 0) != (in_zram || flags.state() == PageState::kOnFlash)) {
      return "shadow cookie " + std::to_string(r.evict_cookie) + on_state();
    }
    if ((r.zram_bytes != 0) != in_zram) {
      return "zram size " + std::to_string(r.zram_bytes) + on_state();
    }
    PageInfo& p = pages_[vpn];
    p.set_bits(flags.bits());
    if (listed) {
      p.lru = PageLinks{r.prev, r.next};
    } else {
      p.set_evict_cookie(r.evict_cookie);
    }
    p.zram_bytes = r.zram_bytes;
    if (in_zram && restored_zram != nullptr) {
      restored_zram->bytes += r.zram_bytes;
      ++restored_zram->pages;
    }
    return "";
  };
  // Whether links may be set depends on the aging policy, which the stream
  // stores after the records: the first bad record is reported only once
  // the LRU state has been read, so a snapshot of the other policy fails as
  // a policy mismatch. The resident and evicted counters must count the
  // present and the evicted records; every record outside the extents is
  // fresh (untouched).
  std::string bad_record;
  PageCount present = 0;
  PageCount evicted = 0;
  std::vector<V2Record> image;
  uint64_t prev_end = 0;
  ar.Sequence(extents, 8, [&](std::pair<uint32_t, uint32_t>& extent) {
    auto& [start, run] = extent;
    ar.U32(start);
    ar.U32(run);
    uint64_t end = static_cast<uint64_t>(start) + run;
    if (start < prev_end || end > page_count_) {
      SnapshotArchive::Fail("arena extent out of order or out of range for " + name_);
    }
    image.resize(run);
    if (!ar.loading()) {
      for (uint32_t i = 0; i < run; ++i) {
        image[i] = to_image(start + i);
      }
    }
    ar.Bytes(image.data(), run * sizeof(V2Record));
    for (uint32_t i = 0; ar.loading() && i < run; ++i) {
      std::string why = from_image(image[i], start + i);
      if (bad_record.empty() && !why.empty()) {
        bad_record = name_ + " page " + std::to_string(start + i) + ": " + why;
      }
      PageState state = pages_[start + i].state();
      present += state == PageState::kPresent ? 1 : 0;
      evicted += state == PageState::kInZram || state == PageState::kOnFlash ? 1 : 0;
    }
    prev_end = end;
  });
  ar.U64(resident_);
  ar.U64(evicted_);
  ar.U64(total_evictions);
  ar.U64(total_refaults);
  ar.U32(last_flash_fault_vpn);
  lru_.Transfer(ar);
  if (!bad_record.empty()) {
    SnapshotArchive::Fail(bad_record);
  }
  if (ar.loading() && (resident_ != present || evicted_ != evicted)) {
    SnapshotArchive::Fail(name_ + " counts " + std::to_string(resident_) + " resident and " +
                          std::to_string(evicted_) + " evicted pages, its records " +
                          std::to_string(present) + " and " + std::to_string(evicted));
  }
}

}  // namespace ice
