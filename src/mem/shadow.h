// Workingset shadow-entry bookkeeping and the refault event stream.
//
// When a page is evicted the kernel leaves a shadow entry recording the
// global eviction sequence number; a later fault on that entry is a
// *refault* with distance = (sequence now) - (sequence at eviction). ICE's
// RPF component consumes exactly this signal (§4.2.1, "the modern Linux
// kernel has already provided an interface to obtain the refault-related
// information (shadow_entry)").
#ifndef SRC_MEM_SHADOW_H_
#define SRC_MEM_SHADOW_H_

#include <cstdint>
#include <vector>

#include "src/base/units.h"
#include "src/mem/page.h"

namespace ice {

class SnapshotArchive;

struct RefaultEvent {
  SimTime time = 0;
  Pid pid = kInvalidPid;
  Uid uid = kInvalidUid;
  HeapKind kind = HeapKind::kFile;
  // True when the owning application was foreground at fault time.
  bool foreground = false;
  // Eviction-to-refault distance in evicted pages (refault distance).
  uint64_t distance = 0;
};

class RefaultListener {
 public:
  virtual ~RefaultListener() = default;
  virtual void OnRefault(const RefaultEvent& event) = 0;
};

class AddressSpace;

// Tracks the global eviction sequence and fans refault events out to
// listeners (ICE's daemon, experiment probes, ...).
//
// Shadow entries are packed into the evicted page's own PageInfo record
// (`evict_cookie()`, which shares the LRU link word: an evicted page is on
// no list), the way the kernel packs them into the vacated radix-tree slot —
// recording an eviction or a refault allocates nothing. The owning
// AddressSpace is passed explicitly because the packed PageInfo carries no
// owner back-pointer.
class ShadowRegistry {
 public:
  ShadowRegistry() = default;

  // Called on eviction, after the page left its LRU list: stamps the page's
  // shadow cookie.
  void RecordEviction(PageInfo* page);

  // Called on fault-in of a previously evicted page, before it is relinked:
  // consumes (zeroes) the cookie. Returns the populated event (already
  // dispatched to listeners).
  RefaultEvent RecordRefault(PageInfo* page, const AddressSpace& space, SimTime now,
                             bool foreground);

  void AddListener(RefaultListener* listener);
  void RemoveListener(RefaultListener* listener);

  uint64_t eviction_sequence() const { return eviction_seq_; }
  uint64_t refault_count() const { return refault_count_; }

  // Snapshot support: the sequence counters only — shadow cookies live in
  // PageInfo records and listeners are re-registered structurally.
  void Transfer(SnapshotArchive& ar);

 private:
  uint64_t eviction_seq_ = 0;
  uint64_t refault_count_ = 0;
  std::vector<RefaultListener*> listeners_;
};

}  // namespace ice

#endif  // SRC_MEM_SHADOW_H_
