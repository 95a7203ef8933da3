// Per-page metadata, the simulator's analog of `struct page` + PTE bits.
//
// Layout budget: the reclaim scan, LRU rotation and refault path touch this
// record millions of times per simulated second, so it is packed into a
// 16-byte slab entry (four per cache line):
//
//   PageLinks lru       8 bytes  shared word: 32-bit index links (vpn within
//                                the owning AddressSpace arena) while the
//                                page is on a two-list LRU list, the 64-bit
//                                workingset shadow cookie while it is evicted
//                                (kInZram, kOnFlash), zero otherwise
//   zram_bytes          4 bytes  compressed size while in ZRAM
//   bits                2 bytes  state:3 | (free):2 | dirty | referenced |
//                                active | linked | generation:3 |
//                                hotness:3 | zram_dense
//   (free)              2 bytes
//
// The word can be shared because the kernel keeps the same invariant: a
// page's shadow entry sits in the page-cache slot the page vacated, so a
// page is either resident and on an LRU list or evicted and carrying a
// shadow entry, never both. Eviction stamps the cookie only after the page
// was unlinked, a refault consumes it before the page is relinked, and
// unlinking writes zeros; gen-clock aging never writes links at all.
//
// The record holds dynamic state only, and the all-zero record is the fresh
// (never touched) one, so a new arena is the kernel's zero-fill and nothing
// writes a record nobody touches. A record's vpn is its index in the arena
// and its heap kind is the layout region that index falls in: the owning
// AddressSpace answers both (VpnOf, KindOf), and every hot path already
// knows that space, so call sites pass it explicitly. Pages live in one
// contiguous per-AddressSpace arena and never move (see AddressSpace), so a
// {space, vpn} handle or a raw PageInfo* is stable for the space's lifetime.
#ifndef SRC_MEM_PAGE_H_
#define SRC_MEM_PAGE_H_

#include <cstdint>
#include <type_traits>

namespace ice {

// Where the page's contents currently live.
enum class PageState : uint8_t {
  // Never touched; consumes no frame (analog of an unpopulated PTE).
  kUntouched,
  // Resident in RAM.
  kPresent,
  // Anonymous page compressed into ZRAM (the \_PAGE_PRESENT bit is clear and
  // the PTE holds a swap entry).
  kInZram,
  // File-backed page not in the page cache: clean pages were discarded,
  // dirty pages were written back. A fault must read from flash.
  kOnFlash,
  // A fault is in flight; faulting tasks queue on the page.
  kFaultingIn,
};

// Which heap/region the page belongs to, matching the paper's Figure 4
// categorization (file-backed vs anonymous, and for anonymous pages the Java
// heap managed by ART vs the native malloc heap).
enum class HeapKind : uint8_t {
  kJavaHeap,
  kNativeHeap,
  kFile,
};

inline bool IsAnon(HeapKind kind) { return kind != HeapKind::kFile; }

// Sentinel for "no page" in the index-linked LRU lists.
inline constexpr uint32_t kNoPage = UINT32_MAX;

// The LRU link record: 32-bit neighbor indices (vpns into the owning
// AddressSpace's page arena) — half the size of the pointer-based intrusive
// node it replaced, so a list hop plus the flag word land in one cache line.
// The links mean something only while the record is on a two-list LRU list
// (kNoPage ends the list there). The same word holds the shadow cookie of an
// evicted page (PageInfo::evict_cookie); otherwise, and for every present
// page under the gen-clock policy, it stays zero.
struct PageLinks {
  uint32_t prev = 0;
  uint32_t next = 0;
};

// A page identity that survives outside the owning AddressSpace: the
// MemoryManager assigns each registered space a per-manager id and keys
// cross-space structures (the in-flight read list) by this packed handle.
struct PageHandle {
  uint64_t packed = 0;

  PageHandle() = default;
  PageHandle(uint32_t space_id, uint32_t vpn)
      : packed((static_cast<uint64_t>(space_id) << 32) | vpn) {}

  uint32_t space_id() const { return static_cast<uint32_t>(packed >> 32); }
  uint32_t vpn() const { return static_cast<uint32_t>(packed); }
  bool operator==(const PageHandle& o) const { return packed == o.packed; }
};

struct alignas(16) PageInfo {
  // LRU list membership while the page is on a two-list list, managed
  // exclusively by LruLists; the shadow cookie while it is evicted.
  PageLinks lru;

  // Compressed size while in ZRAM.
  uint32_t zram_bytes = 0;

  // Workingset shadow entry: the global eviction sequence number at the time
  // this page was last evicted, or 0 when the page is not evicted. A fault on
  // a page with a nonzero cookie is a *refault* and the distance is (current
  // sequence - cookie), matching mm/workingset.c. The cookie is kept 64-bit
  // (the global eviction sequence overflows 32 bits on long sweeps) and lives
  // in the `lru` word, low half in `prev`: an evicted page is on no list, the
  // way the kernel packs the entry into the vacated radix-tree slot, so
  // evictions allocate nothing. Set it only on an unlinked page.
  uint64_t evict_cookie() const {
    return static_cast<uint64_t>(lru.next) << 32 | lru.prev;
  }
  void set_evict_cookie(uint64_t cookie) {
    lru.prev = static_cast<uint32_t>(cookie);
    lru.next = static_cast<uint32_t>(cookie >> 32);
  }

  PageState state() const { return static_cast<PageState>(bits_ & kStateMask); }
  void set_state(PageState s) {
    bits_ = static_cast<uint16_t>((bits_ & ~kStateMask) | static_cast<uint16_t>(s));
  }

  // Dirty file pages need writeback before reclaim; anonymous pages are
  // always "dirty" in the kernel sense, so the bit is only meaningful for
  // file pages.
  bool dirty() const { return bits_ & kDirtyBit; }
  void set_dirty(bool v) { SetBit(kDirtyBit, v); }

  // Second-chance reference bit, set on access, cleared by the reclaim scan.
  bool referenced() const { return bits_ & kReferencedBit; }
  void set_referenced(bool v) { SetBit(kReferencedBit, v); }

  // Which LRU list the page is on (valid only while linked).
  bool active() const { return bits_ & kActiveBit; }
  void set_active(bool v) { SetBit(kActiveBit, v); }

  // Whether the page is on any LRU list (maintained by LruLists).
  bool lru_linked() const { return bits_ & kLinkedBit; }
  void set_lru_linked(bool v) { SetBit(kLinkedBit, v); }

  // Generation number under the gen-clock aging policy (AgingPolicy::
  // kGenClock): the pool clock value at the page's last insert/touch, valid
  // only while lru_linked. 3 bits wrapping mod 8 — a page whose stored
  // generation aliases the advancing clock merely looks young again, which
  // the counts in LruLists track consistently. Unused (stays 0) under the
  // two-list policy.
  uint8_t generation() const {
    return static_cast<uint8_t>((bits_ >> kGenShift) & kGenMask);
  }
  void set_generation(uint8_t gen) {
    bits_ = static_cast<uint16_t>((bits_ & ~(kGenMask << kGenShift)) |
                                  (static_cast<uint16_t>(gen & kGenMask) << kGenShift));
  }

  // Decayed re-reference counter under the hotness swap policy (SwapPolicy::
  // kHotness): anon refaults boost it (saturating at 7), zram admission
  // halves it. Gates zram admission and picks the compression tier. Unused
  // (stays 0) under the baseline swap policy.
  uint8_t hotness() const {
    return static_cast<uint8_t>((bits_ >> kHotShift) & kHotMask);
  }
  void set_hotness(uint8_t h) {
    bits_ = static_cast<uint16_t>((bits_ & ~(kHotMask << kHotShift)) |
                                  (static_cast<uint16_t>(h & kHotMask) << kHotShift));
  }

  // Which compression tier the page's zram copy used (valid only while
  // kInZram): set = dense codec, clear = fast codec. Decides the decompress
  // cost charged on refault. Always clear under the baseline swap policy.
  bool zram_dense() const { return bits_ & kDenseBit; }
  void set_zram_dense(bool v) { SetBit(kDenseBit, v); }

  // The whole flag word, for the snapshot image (AddressSpace::Transfer).
  // Bits 3-4 are free: they held the heap kind, which snapshot format v2
  // still stores there.
  uint16_t bits() const { return bits_; }
  void set_bits(uint16_t bits) { bits_ = bits; }

 private:
  static constexpr uint16_t kStateMask = 0x7;
  static constexpr uint16_t kDirtyBit = 1u << 5;
  static constexpr uint16_t kReferencedBit = 1u << 6;
  static constexpr uint16_t kActiveBit = 1u << 7;
  static constexpr uint16_t kLinkedBit = 1u << 8;
  static constexpr uint16_t kGenShift = 9;
  static constexpr uint16_t kGenMask = 0x7;   // Bits 9-11.
  static constexpr uint16_t kHotShift = 12;
  static constexpr uint16_t kHotMask = 0x7;   // Bits 12-14.
  static constexpr uint16_t kDenseBit = 1u << 15;

  void SetBit(uint16_t bit, bool v) {
    bits_ = static_cast<uint16_t>(v ? (bits_ | bit) : (bits_ & ~bit));
  }

  uint16_t bits_ = 0;
};

// The layout budget above is load-bearing: the reclaim scan is memory-bound
// and sized around four PageInfo records per 64-byte cache line. A new field
// must either fit the two spare bytes or earn a redesign — this assert makes
// the regression loud instead of a silent sweep slowdown.
static_assert(sizeof(PageInfo) <= 16, "PageInfo outgrew its 16-byte budget");
// alignas(16) keeps every record inside a single cache line (four records
// per 64-byte line with a line-aligned arena; see AddressSpace).
static_assert(alignof(PageInfo) == 16);
static_assert(sizeof(PageLinks) == 8,
              "LRU link record must stay two 32-bit indices (the word also "
              "holds the 64-bit shadow cookie)");
// The arena allocates raw storage and frees it without running destructors.
static_assert(std::is_trivially_destructible_v<PageInfo>);
// A zero-filled record reads as untouched, unlinked and not evicted.
static_assert(PageState::kUntouched == PageState{});

}  // namespace ice

#endif  // SRC_MEM_PAGE_H_
