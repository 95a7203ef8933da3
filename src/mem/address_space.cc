#include "src/mem/address_space.h"

#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/binary_stream.h"
#include "src/base/log.h"

namespace ice {

void PageArenaDeleter::operator()(PageInfo* pages) const {
  ::operator delete(static_cast<void*>(pages), std::align_val_t(kPageArenaAlign));
}

AddressSpace::AddressSpace(Pid pid, Uid uid, std::string name, const AddressSpaceLayout& layout)
    : pid_(pid), uid_(uid), name_(std::move(name)), layout_(layout) {
  page_count_ = layout.total();
  void* raw = ::operator new(page_count_ * sizeof(PageInfo), std::align_val_t(kPageArenaAlign));
  // Zero the arena before constructing: PageInfo has padding (26 payload
  // bytes in a 32-byte record), and snapshots dump the arena raw — padding
  // left as heap garbage would make otherwise-identical states compare
  // unequal byte-wise.
  std::memset(raw, 0, page_count_ * sizeof(PageInfo));
  PageInfo* pages = static_cast<PageInfo*>(raw);
  for (uint32_t vpn = 0; vpn < page_count_; ++vpn) {
    PageInfo& p = *new (pages + vpn) PageInfo();
    p.vpn = vpn;
    p.set_kind(KindOf(vpn));
  }
  pages_ = std::unique_ptr<PageInfo[], PageArenaDeleter>(pages, PageArenaDeleter{});
  lru_.BindArena(this, pages, page_count_);
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
