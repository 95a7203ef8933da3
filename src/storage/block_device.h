// Queued flash block device model (UFS / eMMC).
//
// Requests are serviced FIFO with a bounded number of in-flight commands
// (the device queue depth). Service time per command is
//   command_overhead + pages * per_page_latency, with log-normal jitter.
// This reproduces the property the paper depends on: when background refault
// I/O floods the queue, foreground fault-in requests wait behind it.
//
// A completion is an engine event, and the engine fires an event at the first
// 1 ms tick boundary at or after its deadline (src/sim/engine.h). Requests
// are submitted at tick boundaries, so every latency is a whole number of
// ticks, at least one, however short the service time.
#ifndef SRC_STORAGE_BLOCK_DEVICE_H_
#define SRC_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/base/rng.h"
#include "src/sim/engine.h"
#include "src/storage/bio.h"

namespace ice {

class SnapshotArchive;

struct FlashProfile {
  std::string name;
  SimDuration read_per_page = Us(20);
  SimDuration write_per_page = Us(45);
  SimDuration command_overhead = Us(80);
  int queue_depth = 16;
  // Sigma of the log-normal jitter applied to each command's service time.
  double jitter_sigma = 0.25;
};

class BlockDevice {
 public:
  BlockDevice(Engine& engine, FlashProfile profile);

  // Enqueues a request; `bio.on_complete` fires when the device finishes it.
  void Submit(Bio bio);

  size_t queued() const { return queue_.size(); }
  int inflight() const { return inflight_; }

  // Totals of requests and pages are the engine's io.* counters. These count
  // completions by who the request served, for the paper's I/O-pressure
  // analysis: BG refault traffic queues ahead of FG fault-ins.
  uint64_t fg_requests() const { return fg_requests_; }
  uint64_t bg_requests() const { return bg_requests_; }
  double fg_mean_latency_us() const {
    return fg_requests_ == 0 ? 0.0
                             : static_cast<double>(fg_latency_us_) / fg_requests_;
  }
  double bg_mean_latency_us() const {
    return bg_requests_ == 0 ? 0.0
                             : static_cast<double>(bg_latency_us_) / bg_requests_;
  }

  // Mean completion latency (µs) over the device lifetime.
  double mean_latency_us() const;

  const FlashProfile& profile() const { return profile_; }

  // Snapshot support. A quiescent point requires an idle device — queued or
  // in-flight commands carry completion closures the snapshot cannot carry —
  // so Transfer ICE_CHECKs emptiness and carries only counters + RNG. Format
  // v2's page, request and latency totals are written as derived from the
  // engine's io.* counters and the FG/BG split, and restoring throws where
  // the saved ones disagree.
  void Transfer(SnapshotArchive& ar);

  // Recycling support: drop queued commands and forget in-flight ones (their
  // completion events died with the engine's queue) so Transfer's idle
  // checks hold on a reused device.
  void ResetForRecycle() {
    queue_.clear();
    inflight_ = 0;
  }

 private:
  void MaybeStart();
  void Complete(Bio bio, SimTime submitted, uint64_t id);

  Engine& engine_;
  FlashProfile profile_;
  Rng rng_;

  struct Pending {
    Bio bio;
    SimTime submitted;
    uint64_t id = 0;  // Monotonic per-device request id (trace correlation).
  };
  std::deque<Pending> queue_;
  int inflight_ = 0;
  uint64_t bio_seq_ = 0;

  uint64_t fg_requests_ = 0;
  uint64_t bg_requests_ = 0;
  uint64_t fg_latency_us_ = 0;
  uint64_t bg_latency_us_ = 0;
};

}  // namespace ice

#endif  // SRC_STORAGE_BLOCK_DEVICE_H_
