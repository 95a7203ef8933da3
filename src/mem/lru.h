// Global page aging structure with two selectable policies (AgingPolicy,
// src/mem/aging.h) behind one facade:
//
//  * Two-list (default): the classic Linux design — one active and one
//    inactive list per pool (anonymous, file-backed). Pages enter active on
//    fault; a reference while inactive promotes them on the next scan
//    (second chance); the reclaim scan isolates victims from the inactive
//    tail. Lists are index-linked rather than pointer-linked: every page
//    lives in one AddressSpace's contiguous arena, so the link stored in
//    PageInfo is the neighbor's vpn (32 bits) and the list header is three
//    32-bit words — half the per-page link footprint of an intrusive
//    pointer list, in an 8-byte word the page's shadow cookie reuses while
//    it is evicted, so a record is 16 bytes and four share a cache line.
//
//  * Gen-clock: an MGLRU-style generation clock (src/mem/gen_clock.cc).
//    Each pool keeps a 3-bit clock; a linked page stores the clock value of
//    its last insert/touch in its flag word, and per-generation population
//    counts replace list sizes. Reclaim sweeps the contiguous arena
//    sequentially from a persistent hand cursor selecting pages whose
//    generation lags the clock — no prev-link dependency chain at all, so
//    the scan streams at memory bandwidth instead of pointer-chase latency.
//
// Both policies honor the same VictimFilter hook (the Acclaim baseline's
// foreground-aware eviction) and the same second-chance reference bit, and
// both are deterministic: identical operation sequences produce identical
// victim orders regardless of thread count or wall clock.
#ifndef SRC_MEM_LRU_H_
#define SRC_MEM_LRU_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/log.h"
#include "src/mem/aging.h"
#include "src/mem/page.h"

namespace ice {

class AddressSpace;
class SnapshotArchive;

enum class LruPool { kAnon, kFile };

class LruLists {
 public:
  // Returns true to *skip* (rotate) the candidate instead of evicting it.
  // The owning AddressSpace is passed alongside the page because the packed
  // PageInfo no longer carries an owner back-pointer.
  using VictimFilter = std::function<bool(const AddressSpace&, const PageInfo&)>;

  LruLists() = default;

  LruLists(const LruLists&) = delete;
  LruLists& operator=(const LruLists&) = delete;

  // Binds the lists to the arena they link into. Must be called (by the
  // owning AddressSpace, or a test harness) before any list operation; the
  // arena must outlive the lists and never move. `page_count` bounds the
  // gen-clock hand sweep (and vpn-indexed links never exceed it). A record's
  // link index is its position in the arena, and its pool is the owner's
  // layout region at that position: anon below `owner->file_begin()`.
  void BindArena(const AddressSpace* owner, PageInfo* arena, uint32_t page_count);

  // Selects the aging policy. Must be called while no page is linked: the
  // two representations share no per-page state.
  void set_aging(AgingPolicy policy) {
    ICE_CHECK_EQ(total_size(), 0u) << "aging policy change on a populated LRU";
    aging_ = policy;
  }
  AgingPolicy aging() const { return aging_; }

  // Adds a newly-present page to the active head of its pool. Defined inline
  // below: Insert/Remove/Touch run once per simulated page access, so they
  // must inline into the fault path rather than cross a TU boundary.
  void Insert(PageInfo* page);

  // Removes a page from whichever list it is on (eviction, process exit).
  void Remove(PageInfo* page);

  // Marks an access. Inactive+referenced pages are promoted to active
  // immediately (a simplification of the kernel's mark-then-promote-on-scan
  // that preserves the working-set-protection property).
  void Touch(PageInfo* page);

  // Isolates up to `max` eviction candidates from the inactive tail of
  // `pool` into `out` (cleared first; a caller-provided scratch vector so
  // repeated reclaim batches reuse one allocation). Referenced pages get a
  // second chance (promoted to active, reference bit cleared). Pages rejected
  // by `filter` are rotated to the inactive head and count against
  // `scan_budget`. Isolated pages are unlinked from the LRU; the caller owns
  // their fate.
  //
  // Returns the number of pages examined: isolations PLUS second-chance
  // promotions and filter rotations. The caller must charge scan cost from
  // this count, not from out.size() — on a busy device most tail pages are
  // referenced, so the scan work far exceeds the pages it isolates.
  //
  // Two-list: the scan walks the inactive tail in cache-line-sized batches —
  // up to kScanBatch upcoming candidates are gathered (prefetching their
  // metadata) before any is processed, so the eviction decision never stalls
  // on the list hop. Processing only ever unlinks the page being processed,
  // which is why a gathered batch stays valid.
  //
  // Gen-clock: a sequential sweep of the contiguous arena from a persistent
  // per-pool hand cursor, selecting linked pages of `pool` whose generation
  // lags the clock; hops over young/foreign slots are a single flag-word
  // read on a streamed line and are not charged against `scan_budget`.
  uint32_t IsolateCandidates(LruPool pool, uint32_t max, uint32_t scan_budget,
                             const VictimFilter& filter, std::vector<PageInfo*>& out);

  // Two-list: moves pages from the active tail to the inactive head until
  // the inactive list holds at least half the pool (inactive_is_low).
  // Gen-clock: advances the pool clock when the young generation outgrows
  // twice the old pages — the same ratio at generation granularity.
  void Balance(LruPool pool);

  // Returns a rejected candidate to the inactive head.
  void PutBackInactive(PageInfo* page);

  // Under gen-clock, "active" means the young (current-clock) generation and
  // "inactive" every lagging one, so the reclaim weighting in ReclaimBatch
  // and the inactive_is_low balancing read the same way under both policies.
  size_t active_size(LruPool pool) const {
    if (aging_ == AgingPolicy::kGenClock) {
      const GenState& g = gen(pool);
      return g.counts[g.clock];
    }
    return list(pool, true).size;
  }
  size_t inactive_size(LruPool pool) const {
    if (aging_ == AgingPolicy::kGenClock) {
      const GenState& g = gen(pool);
      return g.linked - g.counts[g.clock];
    }
    return list(pool, false).size;
  }
  size_t pool_size(LruPool pool) const {
    return active_size(pool) + inactive_size(pool);
  }
  size_t total_size() const {
    return pool_size(LruPool::kAnon) + pool_size(LruPool::kFile);
  }

  // Candidates gathered (and prefetched) per scan step.
  static constexpr uint32_t kScanBatch = 8;

  // Whether `page` is on a two-list list, the only place its links mean
  // anything (elsewhere the word holds the shadow cookie or zero, and the
  // snapshot image writes kNoPage links).
  bool on_two_list(const PageInfo& page) const {
    return aging_ == AgingPolicy::kTwoList && page.lru_linked();
  }

  // Snapshot support: list heads/tails/sizes and gen-clock hands/counters.
  // Per-page link state rides along with the owning arena's dump, so
  // restore assumes the arena records were restored first. Restoring throws
  // on a head, tail or hand outside the arena, a size or count above the
  // page count, or a clock outside its 3 bits.
  void Transfer(SnapshotArchive& ar);

 private:
  // List header: head/tail arena indices plus a cached size. 12 bytes, so
  // all four pool lists fit in one cache line.
  struct IndexList {
    uint32_t head = kNoPage;
    uint32_t tail = kNoPage;
    uint32_t size = 0;
  };
  static_assert(sizeof(IndexList) == 12, "list header outgrew its budget");

  // Gen-clock per-pool state: the 3-bit clock, the persistent arena hand
  // cursor the scan resumes from, the population of each stored generation
  // value, and the pool's linked total. `counts` is keyed by the raw stored
  // 3-bit value, so it and the scan always agree on which pages are young —
  // including after mod-8 aliasing.
  struct GenState {
    uint32_t counts[8] = {};
    uint32_t linked = 0;
    uint32_t hand = 0;
    uint8_t clock = 0;
  };

  IndexList& list(LruPool pool, bool active) {
    return lists_[static_cast<int>(pool) * 2 + (active ? 1 : 0)];
  }
  const IndexList& list(LruPool pool, bool active) const {
    return lists_[static_cast<int>(pool) * 2 + (active ? 1 : 0)];
  }
  GenState& gen(LruPool pool) { return gen_[static_cast<int>(pool)]; }
  const GenState& gen(LruPool pool) const { return gen_[static_cast<int>(pool)]; }

  PageInfo& at(uint32_t index) { return arena_[index]; }
  uint32_t index_of(const PageInfo* page) const {
    return static_cast<uint32_t>(page - arena_);
  }
  LruPool pool_of(const PageInfo* page) const {
    return index_of(page) < anon_end_ ? LruPool::kAnon : LruPool::kFile;
  }

  void PushFront(IndexList& l, PageInfo* page);
  void Unlink(IndexList& l, PageInfo* page);
  PageInfo* PopBack(IndexList& l);

  // Gen-clock policy bodies (src/mem/gen_clock.cc). Deliberately out of
  // line: the two-list Insert/Remove/Touch fast paths below must stay small
  // enough to inline into the fault path, so the gen-clock branch is a
  // single predictable test plus a call.
  void GenInsert(PageInfo* page);
  void GenRemove(PageInfo* page);
  void GenTouch(PageInfo* page);
  void GenPutBackInactive(PageInfo* page);
  uint32_t GenIsolate(LruPool pool, uint32_t max, uint32_t scan_budget,
                      const VictimFilter& filter, std::vector<PageInfo*>& out);
  void GenBalance(LruPool pool);
  static void GenAdvanceClock(GenState& g);

  const AddressSpace* owner_ = nullptr;
  PageInfo* arena_ = nullptr;
  uint32_t page_count_ = 0;
  uint32_t anon_end_ = 0;  // Arena index where the file region begins.
  AgingPolicy aging_ = AgingPolicy::kTwoList;
  IndexList lists_[4];
  GenState gen_[2];
};

// ---------------------------------------------------------------------------
// Hot-path inline definitions. PushFront/Unlink finish all writes to `page`
// (flag word and links) before touching neighbor records: stores into the
// arena could alias the page's own fields as far as the compiler knows, so
// interleaving them forces reloads on the hottest path in the simulator.
// ---------------------------------------------------------------------------

inline void LruLists::PushFront(IndexList& l, PageInfo* page) {
  const uint32_t idx = index_of(page);
  const uint32_t old_head = l.head;
  page->set_lru_linked(true);
  page->lru.prev = kNoPage;
  page->lru.next = old_head;
  l.head = idx;
  ++l.size;
  if (old_head != kNoPage) {
    at(old_head).lru.prev = idx;
  } else {
    l.tail = idx;
  }
}

inline void LruLists::Unlink(IndexList& l, PageInfo* page) {
  ICE_CHECK(page->lru_linked()) << "removing unlinked page";
  const uint32_t prev = page->lru.prev;
  const uint32_t next = page->lru.next;
  page->set_lru_linked(false);
  page->lru = PageLinks{};
  --l.size;
  if (prev != kNoPage) {
    at(prev).lru.next = next;
  } else {
    l.head = next;
  }
  if (next != kNoPage) {
    at(next).lru.prev = prev;
  } else {
    l.tail = prev;
  }
}

inline PageInfo* LruLists::PopBack(IndexList& l) {
  if (l.tail == kNoPage) {
    return nullptr;
  }
  PageInfo* page = &at(l.tail);
  Unlink(l, page);
  return page;
}

inline void LruLists::Insert(PageInfo* page) {
  ICE_CHECK(!page->lru_linked());
  // Newly faulted pages start young/active (they were just referenced);
  // aging happens by Balance() demotion (two-list) or by the pool clock
  // advancing past them (gen-clock).
  page->set_active(true);
  page->set_referenced(false);
  if (aging_ == AgingPolicy::kGenClock) {
    GenInsert(page);
    return;
  }
  PushFront(list(pool_of(page), true), page);
}

inline void LruLists::Remove(PageInfo* page) {
  if (!page->lru_linked()) {
    return;
  }
  if (aging_ == AgingPolicy::kGenClock) {
    GenRemove(page);
    return;
  }
  Unlink(list(pool_of(page), page->active()), page);
}

inline void LruLists::Touch(PageInfo* page) {
  if (!page->lru_linked()) {
    return;
  }
  if (aging_ == AgingPolicy::kGenClock) {
    GenTouch(page);
    return;
  }
  if (page->active()) {
    page->set_referenced(true);
    return;
  }
  if (!page->referenced()) {
    // First touch while inactive: set the reference bit only.
    page->set_referenced(true);
    return;
  }
  // Second touch while inactive: promote.
  Unlink(list(pool_of(page), false), page);
  page->set_active(true);
  page->set_referenced(false);
  PushFront(list(pool_of(page), true), page);
}

inline void LruLists::PutBackInactive(PageInfo* page) {
  ICE_CHECK(!page->lru_linked());
  page->set_active(false);
  if (aging_ == AgingPolicy::kGenClock) {
    GenPutBackInactive(page);
    return;
  }
  PushFront(list(pool_of(page), false), page);
}

}  // namespace ice

#endif  // SRC_MEM_LRU_H_
