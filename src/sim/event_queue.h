// Time-ordered callback queue driving the discrete-event half of the
// simulator (timers, I/O completions, MDT heartbeats, vsync, ...).
//
// One binary min-heap of contiguous (when, seq, node) entries over a pooled
// node array. Measured runs keep at most 48 events pending, so a sift is
// about six comparisons within 1 KiB of entries.
//
// Determinism contract: events fire in exactly (when, seq) order, ties FIFO
// by insertion. RunDue pops while the top is due, so an event a callback
// schedules at a time <= now joins the running batch in that same order.
//
// Cancel is lazy: it marks the node dead and releases its captures at once;
// the husk's heap entry is dropped when it reaches the top. Event nodes live
// in a free list and callbacks are EventFns with inline storage, so the
// schedule/fire hot path performs no allocation in steady state.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/base/units.h"
#include "src/sim/event_fn.h"

namespace ice {

// Handle for a scheduled event. Encodes (generation << 32 | node index + 1),
// so a handle is invalidated the moment its event fires or is cancelled —
// cancel-after-fire and double-cancel are detected exactly, not by bookkeeping
// side tables.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` at absolute time `when`. Ties are broken FIFO by insertion
  // order so simulation order is deterministic.
  EventId Schedule(SimTime when, EventFn fn) {
    return ScheduleWithSeq(when, next_seq_++, std::move(fn));
  }

  // O(1) cancel. Returns false — with no other effect — if the event already
  // fired, was already cancelled, or the id is unknown/invalid.
  bool Cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  // Earliest pending (non-cancelled) event time; only valid when !empty().
  SimTime NextTime();

  // Pops and runs every event with time <= now, in (when, seq) order. Events
  // scheduled during dispatch at times <= now also run in this call.
  void RunDue(SimTime now);

  // ---- Snapshot/restore support ---------------------------------------------
  // Schedules `fn` with an explicit (when, seq) pair instead of drawing the
  // next sequence number. Restore paths use this to re-arm timers whose
  // (when, seq) was captured by a snapshot, reproducing the pre-snapshot
  // firing order exactly. next_seq_ is not advanced; the restorer sets it
  // once via set_next_seq() after every timer is re-armed.
  EventId ScheduleWithSeq(SimTime when, uint64_t seq, EventFn fn);

  // The (when, seq) of a still-pending event, or nullopt if the id is
  // invalid, already fired, or cancelled. Lets components serialize their
  // outstanding timers without the queue serializing callables.
  std::optional<std::pair<SimTime, uint64_t>> Pending(EventId id) const;

  // Whether a pending event already holds (when, seq). The heap orders
  // events totally only while these pairs are unique; restore checks them.
  bool Holds(SimTime when, uint64_t seq) const;

  uint64_t next_seq() const { return next_seq_; }
  void set_next_seq(uint64_t seq) { next_seq_ = seq; }

  // Drops every node — live or husk — back into the free pool and rewinds the
  // sequence counter, keeping the pool's capacity. Recycling support: a queue
  // that has run a whole device trace is reset in O(nodes) with no frees, so
  // the next restore re-arms timers into warm storage.
  void Clear();

  // Total pool capacity ever allocated (live + dead + free nodes).
  size_t allocated_nodes() const { return pool_.size(); }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Node {
    SimTime when = 0;
    uint64_t seq = 0;
    uint32_t gen = 0;
    uint32_t next_free = kNil;
    bool live = false;
    EventFn fn;
  };

  // Carrying (when, seq) by value keeps the sift comparisons on contiguous
  // memory instead of chasing node indices back into the pool.
  struct Entry {
    SimTime when;
    uint64_t seq;
    uint32_t idx;
  };

  // Comparator for std::push_heap/pop_heap (which build max-heaps): ordering
  // the heap by "later" makes its top the earliest entry. A function object,
  // not a function pointer, so the heap algorithms inline it.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  // Pops the top entry and returns its node index.
  uint32_t PopTop();
  void FreeNode(uint32_t idx);
  // The index of the live node an id names, or kNil once the id went stale.
  uint32_t Find(EventId id) const;

  std::vector<Node> pool_;
  uint32_t free_head_ = kNil;
  std::vector<Entry> heap_;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
};

}  // namespace ice

#endif  // SRC_SIM_EVENT_QUEUE_H_
