#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"

namespace ice {

EventQueue::EventQueue() {
  pool_.reserve(64);
  heap_.reserve(64);
}

EventId EventQueue::ScheduleWithSeq(SimTime when, uint64_t seq, EventFn fn) {
  ICE_CHECK(static_cast<bool>(fn));
  uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = pool_[idx].next_free;
  } else {
    idx = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Node& n = pool_[idx];
  n.when = when;
  n.seq = seq;
  n.live = true;
  n.fn = std::move(fn);
  ++live_count_;
  heap_.push_back(Entry{when, seq, idx});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return (static_cast<EventId>(n.gen) << 32) | (static_cast<EventId>(idx) + 1);
}

uint32_t EventQueue::Find(EventId id) const {
  uint32_t low = static_cast<uint32_t>(id & 0xffffffffu);
  if (low == 0 || low > pool_.size()) {
    return kNil;
  }
  const Node& n = pool_[low - 1];
  if (n.gen != static_cast<uint32_t>(id >> 32) || !n.live) {
    return kNil;  // Already fired, already cancelled, or a stale handle.
  }
  return low - 1;
}

std::optional<std::pair<SimTime, uint64_t>> EventQueue::Pending(EventId id) const {
  uint32_t idx = Find(id);
  if (idx == kNil) {
    return std::nullopt;
  }
  return std::make_pair(pool_[idx].when, pool_[idx].seq);
}

bool EventQueue::Holds(SimTime when, uint64_t seq) const {
  return std::any_of(heap_.begin(), heap_.end(), [&](const Entry& e) {
    return e.when == when && e.seq == seq && pool_[e.idx].live;
  });
}

bool EventQueue::Cancel(EventId id) {
  uint32_t idx = Find(id);
  if (idx == kNil) {
    return false;
  }
  Node& n = pool_[idx];
  n.live = false;
  n.fn.reset();  // Release captures now; the husk leaves the heap lazily.
  --live_count_;
  return true;
}

void EventQueue::FreeNode(uint32_t idx) {
  Node& n = pool_[idx];
  n.fn.reset();
  n.live = false;
  ++n.gen;  // Invalidates every outstanding EventId for this node.
  n.next_free = free_head_;
  free_head_ = idx;
}

uint32_t EventQueue::PopTop() {
  uint32_t idx = heap_.front().idx;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  return idx;
}

void EventQueue::RunDue(SimTime now) {
  while (!heap_.empty() && heap_.front().when <= now) {
    uint32_t idx = PopTop();
    if (!pool_[idx].live) {
      FreeNode(idx);
      continue;
    }
    EventFn fn = std::move(pool_[idx].fn);
    --live_count_;
    FreeNode(idx);
    // The callback may Schedule (possibly at <= now, which the next pop
    // picks up in order) or Cancel; no node reference is held across it.
    fn();
  }
}

SimTime EventQueue::NextTime() {
  ICE_CHECK(live_count_ > 0) << "NextTime on empty queue";
  while (!pool_[heap_.front().idx].live) {
    FreeNode(PopTop());
  }
  return heap_.front().when;
}

void EventQueue::Clear() {
  for (const Entry& e : heap_) {
    FreeNode(e.idx);
  }
  heap_.clear();
  live_count_ = 0;
  next_seq_ = 1;
}

}  // namespace ice
