// The four foreground scenarios of §2.2.1 / §6.1:
//   S-A video call (WhatsApp), S-B short-form video switching (TikTok),
//   S-C screen scrolling (Facebook), S-D mobile game (PUBG Mobile).
//
// A Scenario is a FrameSource: per vsync it produces the frame's CPU work
// plus the pages the frame reads — mostly the foreground app's hot working
// set, plus scenario-specific cold content (new video buffers on a switch,
// new timeline content while scrolling, per-round allocations in the game).
#ifndef SRC_WORKLOAD_SCENARIO_H_
#define SRC_WORKLOAD_SCENARIO_H_

#include <optional>
#include <string>

#include "src/android/activity_manager.h"
#include "src/android/choreographer.h"
#include "src/base/rng.h"

namespace ice {

enum class ScenarioKind { kVideoCall, kShortVideo, kScrolling, kGame };

const char* ScenarioName(ScenarioKind kind);
const char* ScenarioLabel(ScenarioKind kind);  // "S-A".."S-D"
// The foreground app each scenario uses in the paper.
const char* ScenarioPackage(ScenarioKind kind);

struct ScenarioParams {
  // Frame CPU model: log-normal base cost plus occasional hiccups (decode
  // stalls, input bursts, layout passes). Real frame-time distributions are
  // bimodal — mostly fast frames with jank spikes — which is what lets the
  // paper report ~42 fps averages alongside moderate RIA values.
  SimDuration frame_compute_us = Us(11000);  // Median of the base lognormal.
  double frame_sigma = 0.22;
  double hiccup_prob = 0.15;
  SimDuration hiccup_us = Us(45000);
  // Hot working-set pages read per frame.
  uint32_t frame_touches = 80;
  // Fraction of frame touches that revisit the app's *whole* launched
  // footprint uniformly (scroll-back, cache lookups, asset reloads). These
  // are the foreground pages reclaim displaces under pressure; faulting them
  // back stalls the render thread.
  double revisit_fraction = 0.22;
  // Anonymous pages newly allocated per frame (render buffers, game state).
  // Allocations cycle through a bounded ring above the hot prefix — like a
  // real decoded-frame ring — so under pressure the reused slots have been
  // evicted and fault back in on the render path.
  uint32_t frame_alloc_pages = 2;
  PageCount alloc_ring_pages = BytesToPages(64 * kMiB);
  // Content switch: every `burst_period`, `burst_pages` cold file pages are
  // read (next video, next timeline screen).
  SimDuration burst_period = 0;
  uint32_t burst_pages = 0;
  // Game rounds: every `round_period`, `round_alloc_pages` anon pages are
  // allocated (the 100 MB+ PUBG battle of §6.2.1).
  SimDuration round_period = 0;
  PageCount round_alloc_pages = 0;
};

ScenarioParams ParamsFor(ScenarioKind kind);

class Scenario : public FrameSource {
 public:
  // `uid` must already be launched (or launching) in `am`.
  Scenario(ActivityManager& am, Uid uid, ScenarioKind kind, Rng rng);

  std::optional<FrameWork> NextFrame(SimTime vsync) override;

  ScenarioKind kind() const { return kind_; }
  Uid uid() const { return uid_; }

 private:
  uint32_t SampleHotVpn(AddressSpace& space);
  void AppendColdFile(AddressSpace& space, FrameWork& frame, uint32_t pages);
  void AppendAnonAlloc(AddressSpace& space, FrameWork& frame, uint32_t pages);

  ActivityManager& am_;
  Uid uid_;
  ScenarioKind kind_;
  ScenarioParams params_;
  Rng rng_;

  // Cursors into the cold regions; wrap back to the hot prefix end.
  uint32_t file_cursor_ = 0;
  uint32_t anon_cursor_ = 0;
  SimTime next_burst_ = 0;
  SimTime next_round_ = 0;
  // Cold content is drained a few hundred pages per frame so one content
  // switch or game round spreads over the following frames (like real
  // streaming decode / level loading).
  uint32_t pending_cold_file_ = 0;
  uint32_t pending_anon_alloc_ = 0;
  bool initialized_ = false;

  // Launched-prefix lengths of the java, native and file regions, and the
  // hot-touch samplers over them, fixed on the first frame: they depend only
  // on the app's layout and descriptor, which a relaunch keeps.
  uint32_t java_hot_ = 0;
  uint32_t native_hot_ = 0;
  uint32_t file_hot_ = 0;
  ZipfDist anon_zipf_;  // Over java_hot_ + native_hot_.
  ZipfDist file_zipf_;  // Over file_hot_.

  static constexpr uint32_t kMaxColdPerFrame = 400;
  static constexpr uint32_t kMaxAllocPerFrame = 700;
};

}  // namespace ice

#endif  // SRC_WORKLOAD_SCENARIO_H_
