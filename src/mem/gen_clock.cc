// Generation-clock (MGLRU-style) aging bodies for LruLists.
//
// The two-list scan is a pointer chase: each hop depends on the previous
// page's prev-link, so on an aged system every hop is a dependent cache
// miss. The gen-clock scan instead sweeps the contiguous per-AddressSpace
// arena in index order from a persistent hand cursor: candidate selection is
// a flag-word compare (linked? right pool? generation lags the clock?), the
// access pattern is sequential, and the next candidates are always
// hardware-prefetchable. Recency lives in the 3-bit generation number each
// linked page carries (refreshed to the pool clock on touch), not in list
// position.
//
// Determinism: the sweep order is a pure function of the hand cursor and the
// page states, both of which evolve only through the (deterministic)
// simulation — no wall clock, no addresses, no thread identity.
#include <algorithm>

#include "src/base/log.h"
#include "src/mem/lru.h"

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

void LruLists::GenInsert(PageInfo* page) {
  GenState& g = gen(pool_of(page));
  page->set_lru_linked(true);
  page->set_generation(g.clock);
  ++g.counts[g.clock];
  ++g.linked;
}

void LruLists::GenRemove(PageInfo* page) {
  GenState& g = gen(pool_of(page));
  --g.counts[page->generation()];
  --g.linked;
  page->set_lru_linked(false);
}

void LruLists::GenTouch(PageInfo* page) {
  // A touch rejuvenates immediately: move the page into the current
  // generation (a counter transfer, no links to rewrite). The reference bit
  // still backs the scan's second chance for pages whose last touch
  // predates a clock advance.
  GenState& g = gen(pool_of(page));
  const uint8_t current = page->generation();
  if (current != g.clock) {
    --g.counts[current];
    ++g.counts[g.clock];
    page->set_generation(g.clock);
    page->set_active(true);
  }
  page->set_referenced(true);
}

void LruLists::GenPutBackInactive(PageInfo* page) {
  // Relink one generation behind the clock: old (so a later scan can take
  // it again) but not further aged than it was.
  GenState& g = gen(pool_of(page));
  const uint8_t behind = (g.clock + 7) & 7;
  page->set_lru_linked(true);
  page->set_generation(behind);
  ++g.counts[behind];
  ++g.linked;
}

void LruLists::GenAdvanceClock(GenState& g) {
  // Mod-8 wraparound: pages whose stored generation aliases the new clock
  // value count as young again. Accepted — the counts and the scan agree on
  // the aliased interpretation (both key on the raw 3-bit value), so the
  // structure stays consistent, and a page only benefits after surviving
  // eight full advances untouched.
  g.clock = (g.clock + 1) & 7;
}

void LruLists::GenBalance(LruPool pool) {
  GenState& g = gen(pool);
  // inactive_is_low at generation granularity: advance the clock when the
  // young generation outgrows twice the old pages, opening a fresh
  // generation so the previously-young cohort starts aging. Bounded to one
  // full turn of the wheel.
  for (int i = 0; i < 7; ++i) {
    const uint32_t young = g.counts[g.clock];
    const uint32_t old = g.linked - young;
    if (g.linked == 0 || young <= 2 * old) {
      break;
    }
    GenAdvanceClock(g);
  }
}

uint32_t LruLists::GenIsolate(LruPool pool, uint32_t max, uint32_t scan_budget,
                              const VictimFilter& filter, std::vector<PageInfo*>& out) {
  out.clear();
  GenState& g = gen(pool);
  if (g.linked == 0 || page_count_ == 0) {
    return 0;
  }
  // If every linked page sits in the current generation there is nothing old
  // to harvest: open an older one. One advance normally suffices (the next
  // bucket is empty or stale); seven visits the whole wheel.
  for (int i = 0; i < 7 && g.counts[g.clock] == g.linked; ++i) {
    GenAdvanceClock(g);
  }
  if (g.counts[g.clock] == g.linked) {
    return 0;
  }

  // Sequential sweep from the persistent hand. `hops` bounds one call to a
  // single full pass over the arena; only pages of this pool whose
  // generation lags the clock count against `scan_budget` (a hop over a
  // young, unlinked or foreign slot is one flag-word read on a streamed
  // line, not a unit of reclaim work).
  uint32_t scanned = 0;
  for (uint32_t hops = 0; hops < page_count_ && out.size() < max &&
                          scanned < scan_budget && g.counts[g.clock] != g.linked;
       ++hops) {
    const uint32_t idx = g.hand;
    g.hand = g.hand + 1 == page_count_ ? 0 : g.hand + 1;
    if (kScanBatch < page_count_) {
      const uint32_t ahead = idx + kScanBatch;
      PrefetchPage(arena_ + (ahead < page_count_ ? ahead : ahead - page_count_));
    }
    PageInfo& page = arena_[idx];
    if (!page.lru_linked() || pool_of(&page) != pool ||
        page.generation() == g.clock) {
      continue;
    }
    ++scanned;
    if (page.referenced()) {
      // Second chance: rejuvenate into the current generation.
      page.set_referenced(false);
      --g.counts[page.generation()];
      ++g.counts[g.clock];
      page.set_generation(g.clock);
      page.set_active(true);
      continue;
    }
    if (filter && filter(*owner_, page)) {
      // Protected (e.g. foreground under Acclaim): left in its lagging
      // generation, so the next pass re-examines — and re-charges — it, the
      // gen-clock analog of the two-list head rotation.
      continue;
    }
    --g.counts[page.generation()];
    --g.linked;
    page.set_lru_linked(false);
    out.push_back(&page);
  }
  return scanned;
}

}  // namespace ice
