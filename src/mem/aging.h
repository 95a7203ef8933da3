// The page-aging policy axis: how LruLists decides which resident pages are
// cold. Two implementations share one facade (see src/mem/lru.h):
//
//  * kTwoList — the classic Linux active/inactive two-list LRU the rest of
//    the reproduction was built on: list order *is* recency, reclaim walks
//    the inactive tail by prev-links.
//  * kGenClock — an MGLRU-style generation clock: every linked page carries
//    a 3-bit generation number (in the PageInfo flag word), a touch
//    refreshes it to the pool's current clock value, and the reclaim scan
//    sweeps the contiguous page arena sequentially selecting pages whose
//    generation lags the clock. No list links are maintained, so the scan
//    has no pointer-chase dependency chain.
//
// The policy is chosen per MemoryManager (MemConfig::aging) and applied to
// every address space at Register time; sweeps treat it as a first-class
// axis (SweepAxes::agings, icesim_cli --aging).
#ifndef SRC_MEM_AGING_H_
#define SRC_MEM_AGING_H_

#include <cstdint>
#include <string>

namespace ice {

enum class AgingPolicy : uint8_t { kTwoList, kGenClock };

// Parses the CLI/config spelling. Returns false (and leaves *out untouched)
// for unknown names so callers own the error surface.
inline bool AgingPolicyFromName(const std::string& name, AgingPolicy* out) {
  if (name == "two_list") {
    *out = AgingPolicy::kTwoList;
    return true;
  }
  if (name == "gen_clock") {
    *out = AgingPolicy::kGenClock;
    return true;
  }
  return false;
}

}  // namespace ice

#endif  // SRC_MEM_AGING_H_
