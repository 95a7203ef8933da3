#include "src/mem/lru.h"

#include <string>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/mem/address_space.h"

namespace ice {

namespace {

inline void PrefetchPage(const PageInfo* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

}  // namespace

void LruLists::BindArena(const AddressSpace* owner, PageInfo* arena, uint32_t page_count) {
  owner_ = owner;
  arena_ = arena;
  page_count_ = page_count;
  anon_end_ = owner->file_begin();
}

uint32_t LruLists::IsolateCandidates(LruPool pool, uint32_t max, uint32_t scan_budget,
                                     const VictimFilter& filter, std::vector<PageInfo*>& out) {
  if (aging_ == AgingPolicy::kGenClock) {
    return GenIsolate(pool, max, scan_budget, filter, out);
  }
  out.clear();
  IndexList& inactive = list(pool, false);
  IndexList& active = list(pool, true);

  // Scan from the inactive tail in gathered batches. Each refill walks the
  // prev-links for up to kScanBatch candidates and prefetches their records,
  // so by the time a candidate's flags are inspected its cache line is
  // (usually) already in flight. Processing a page only ever unlinks *that*
  // page (isolate), or moves it to the active list (second chance) or the
  // inactive head (filter rotation) — never a not-yet-processed batch entry —
  // so the gathered tail segment stays a valid walk of the list.
  uint32_t scanned = 0;
  uint32_t batch[kScanBatch];
  while (out.size() < max && scanned < scan_budget && inactive.size != 0) {
    uint32_t batch_len = 0;
    uint32_t cursor = inactive.tail;
    while (cursor != kNoPage && batch_len < kScanBatch) {
      PageInfo& candidate = at(cursor);
      PrefetchPage(&candidate);
      batch[batch_len++] = cursor;
      cursor = candidate.lru.prev;
    }
    for (uint32_t i = 0; i < batch_len; ++i) {
      if (out.size() >= max || scanned >= scan_budget) {
        return scanned;
      }
      ++scanned;
      PageInfo* page = &at(batch[i]);
      Unlink(inactive, page);
      if (page->referenced()) {
        // Second chance: promote to active.
        page->set_referenced(false);
        page->set_active(true);
        PushFront(active, page);
        continue;
      }
      if (filter && filter(*owner_, *page)) {
        // Protected (e.g. foreground under Acclaim): rotate to inactive head.
        PushFront(inactive, page);
        continue;
      }
      out.push_back(page);
    }
  }
  return scanned;
}

void LruLists::Transfer(SnapshotArchive& ar) {
  ar.Expect<uint8_t>(aging_, "aging policy");
  // Restored values index the arena and GenState::counts, so each is checked
  // against their bounds before anything reads through it.
  auto check = [&](bool ok, const char* what) {
    if (ar.loading() && !ok) {
      SnapshotArchive::Fail(std::string("LRU ") + what + " out of range");
    }
  };
  auto link_ok = [&](uint32_t index) { return index == kNoPage || index < page_count_; };
  for (IndexList& l : lists_) {
    ar.U32(l.head);
    ar.U32(l.tail);
    ar.U32(l.size);
    check(link_ok(l.head) && link_ok(l.tail), "list head or tail");
    check(l.size <= page_count_, "list size");
  }
  for (GenState& g : gen_) {
    for (uint32_t& c : g.counts) {
      ar.U32(c);
      check(c <= page_count_, "generation count");
    }
    ar.U32(g.linked);
    ar.U32(g.hand);
    ar.U8(g.clock);
    check(g.linked <= page_count_, "generation count");
    check(g.hand < page_count_ || (page_count_ == 0 && g.hand == 0), "gen-clock hand");
    check(g.clock < 8, "gen-clock clock");
  }
}

void LruLists::Balance(LruPool pool) {
  if (aging_ == AgingPolicy::kGenClock) {
    GenBalance(pool);
    return;
  }
  IndexList& active = list(pool, true);
  IndexList& inactive = list(pool, false);
  // inactive_is_low: keep inactive >= active / 2 (i.e. at least 1/3 of pool).
  while (active.size != 0 && inactive.size * 2 < active.size) {
    if (at(active.tail).lru.prev != kNoPage) {
      PrefetchPage(&at(at(active.tail).lru.prev));
    }
    PageInfo* page = PopBack(active);
    page->set_active(false);
    // Clear the reference bit on demotion: a genuinely hot page earns its
    // way back to the active list through fresh references.
    page->set_referenced(false);
    PushFront(inactive, page);
  }
}

}  // namespace ice
