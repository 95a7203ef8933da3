// The SwapGovernor: the decision core of the swap-out policy axis.
//
// It owns no pages and talks to no subsystem — the MemoryManager's reclaim
// path asks it questions (ShouldReject? which tier? who is the writeback
// candidate?) and notifies it of outcomes (OnStored / OnRefault / OnDropped).
// All state it keeps is deterministic bookkeeping: the writeback FIFO of
// stored-page handles and the compressed-size histogram. It deliberately
// holds no RNG — compressed-size draws stay inside Zram so the engine's RNG
// fork order (contention, zram) is identical whether or not the hotness
// policy is enabled, which is what keeps baseline runs bit-for-bit.
//
// Under SwapPolicy::kBaseline every query is a constant (never reject, no
// tiers, never write back) and the notify hooks are never called, so the
// governor is pure dead weight — by design, that is the byte-compat
// guarantee.
#ifndef SRC_SWAP_GOVERNOR_H_
#define SRC_SWAP_GOVERNOR_H_

#include <algorithm>
#include <cstdint>
#include <deque>

#include "src/base/merge_histogram.h"
#include "src/swap/swap_policy.h"

namespace ice {

class SnapshotArchive;

class SwapGovernor {
 public:
  explicit SwapGovernor(const SwapConfig& config)
      : config_(config),
        compressed_bytes_(MergeHistogram::Options{
            kZramSizeHistLo, kZramSizeHistHi, kZramSizeHistBuckets}) {}

  bool enabled() const { return config_.policy == SwapPolicy::kHotness; }
  const SwapConfig& config() const { return config_; }

  // Admission gate: warm pages stay resident rather than round-tripping
  // through a compression they will immediately undo.
  template <typename Page>
  bool ShouldReject(const Page& page) const {
    return enabled() && page.hotness() >= config_.hot_reject_threshold;
  }

  // Tier selection for an admitted page: warmer pages take the cheap fast
  // codec (they are the likely refaulters), cold bulk takes the dense one.
  template <typename Page>
  bool UseDenseTier(const Page& page) const {
    return page.hotness() < config_.fast_tier_min_hotness;
  }
  const ZramTierProfile& TierFor(bool dense) const {
    return dense ? config_.dense : config_.fast;
  }

  // Decompress cost for a refaulting zram page, by the tier it was stored
  // with (the dense bit on the page record).
  template <typename Page>
  SimDuration DecompressCost(const Page& page) const {
    return page.zram_dense() ? config_.dense.decompress_us
                             : config_.fast.decompress_us;
  }

  // Outcome hooks (called only when enabled()).
  // After a successful store: decay the page's hotness (the re-reference
  // evidence has been consumed), queue the page for eventual writeback, and
  // record the compressed size.
  template <typename Page>
  void OnStored(Page* page, uint64_t handle) {
    page->set_hotness(static_cast<uint8_t>(page->hotness() >> 1));
    writeback_fifo_.push_back(handle);
    compressed_bytes_.Add(static_cast<double>(page->zram_bytes));
  }

  // An anon refault (from zram or flash) is re-reference evidence.
  template <typename Page>
  void OnRefault(Page* page) const {
    page->set_hotness(static_cast<uint8_t>(std::min<unsigned>(
        7u, page->hotness() + config_.refault_hotness_boost)));
  }

  // A rejected victim cools by one step, so a page the gate keeps resident
  // is released after a few reclaim passes unless refaults keep re-warming
  // it — the gate cannot pin a page forever.
  template <typename Page>
  void OnRejected(Page* page) const {
    uint8_t h = page->hotness();
    if (h > 0) {
      page->set_hotness(static_cast<uint8_t>(h - 1));
    }
  }

  // FIFO-oldest stored page, or false when the queue is drained. Handles
  // can be stale (the page refaulted or its space died since it was queued);
  // the caller validates against live state and simply skips misses.
  bool PopWritebackCandidate(uint64_t* handle) {
    if (writeback_fifo_.empty()) {
      return false;
    }
    *handle = writeback_fifo_.front();
    writeback_fifo_.pop_front();
    return true;
  }
  size_t writeback_queue_depth() const { return writeback_fifo_.size(); }

  const MergeHistogram& compressed_bytes() const { return compressed_bytes_; }

  void Transfer(SnapshotArchive& ar);

 private:
  SwapConfig config_;
  std::deque<uint64_t> writeback_fifo_;  // Packed PageHandles, oldest first.
  MergeHistogram compressed_bytes_;
};

}  // namespace ice

#endif  // SRC_SWAP_GOVERNOR_H_
