#include "src/mem/shadow.h"

#include <algorithm>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/mem/address_space.h"

namespace ice {

void ShadowRegistry::RecordEviction(PageInfo* page) {
  ICE_CHECK(page != nullptr);
  // The cookie shares the LRU link word: a nonzero word here is a page still
  // on a list (or evicted twice), and stamping it would corrupt the list.
  ICE_CHECK_EQ(page->evict_cookie(), 0u) << "evicting a page whose link word is in use";
  page->set_evict_cookie(++eviction_seq_);
}

RefaultEvent ShadowRegistry::RecordRefault(PageInfo* page, const AddressSpace& space,
                                           SimTime now, bool foreground) {
  ICE_CHECK(page != nullptr);
  const uint64_t cookie = page->evict_cookie();
  ICE_CHECK_GT(cookie, 0u);
  RefaultEvent event;
  event.time = now;
  event.pid = space.pid();
  event.uid = space.uid();
  event.kind = space.KindOf(space.VpnOf(*page));
  event.foreground = foreground;
  event.distance = eviction_seq_ - cookie;
  // Zeroed before the page is relinked: the word holds its links next.
  page->set_evict_cookie(0);
  ++refault_count_;
  for (RefaultListener* l : listeners_) {
    l->OnRefault(event);
  }
  return event;
}

void ShadowRegistry::Transfer(SnapshotArchive& ar) {
  ar.U64(eviction_seq_);
  ar.U64(refault_count_);
}

void ShadowRegistry::AddListener(RefaultListener* listener) {
  ICE_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

void ShadowRegistry::RemoveListener(RefaultListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

}  // namespace ice
