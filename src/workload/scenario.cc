#include "src/workload/scenario.h"

#include <algorithm>

#include "src/base/log.h"

namespace ice {

const char* ScenarioName(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kVideoCall:
      return "Video Call";
    case ScenarioKind::kShortVideo:
      return "Short-Form Video";
    case ScenarioKind::kScrolling:
      return "Screen Scrolling";
    case ScenarioKind::kGame:
      return "Mobile Game";
  }
  return "?";
}

const char* ScenarioLabel(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kVideoCall:
      return "S-A";
    case ScenarioKind::kShortVideo:
      return "S-B";
    case ScenarioKind::kScrolling:
      return "S-C";
    case ScenarioKind::kGame:
      return "S-D";
  }
  return "?";
}

const char* ScenarioPackage(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kVideoCall:
      return "WhatsApp";
    case ScenarioKind::kShortVideo:
      return "TikTok";
    case ScenarioKind::kScrolling:
      return "Facebook";
    case ScenarioKind::kGame:
      return "PUBGMobile";
  }
  return "?";
}

ScenarioParams ParamsFor(ScenarioKind kind) {
  ScenarioParams p;
  switch (kind) {
    case ScenarioKind::kVideoCall:
      // ~45 fps natural: decode + render of the remote stream.
      p.frame_compute_us = Us(13000);
      p.frame_sigma = 0.20;
      p.hiccup_prob = 0.11;
      p.hiccup_us = Us(42000);
      p.frame_touches = 350;
      // Decoded remote-stream frames churn through a ring of buffers
      // (~4-5 MB/s of fresh pages at 45 fps).
      p.frame_alloc_pages = 25;
      break;
    case ScenarioKind::kShortVideo:
      // ~52 fps natural; a video switch every ~9 s pulls new content.
      p.frame_compute_us = Us(12000);
      p.frame_sigma = 0.22;
      p.hiccup_prob = 0.12;
      p.hiccup_us = Us(42000);
      p.frame_touches = 420;
      p.frame_alloc_pages = 12;
      p.burst_period = Sec(7);
      p.burst_pages = 2200;  // ~9 MB of fresh video buffers per switch.
      break;
    case ScenarioKind::kScrolling:
      // ~55 fps natural; continuous small content ingestion.
      p.frame_compute_us = Us(11500);
      p.frame_sigma = 0.25;
      p.hiccup_prob = 0.10;
      p.hiccup_us = Us(38000);
      p.frame_touches = 400;
      p.frame_alloc_pages = 8;
      p.burst_period = Sec(3);
      p.burst_pages = 400;  // Next timeline screenful.
      break;
    case ScenarioKind::kGame:
      // ~44 fps natural; memory-intensive with per-round allocations.
      p.frame_compute_us = Us(13500);
      p.frame_sigma = 0.20;
      p.hiccup_prob = 0.16;
      p.hiccup_us = Us(50000);
      p.frame_touches = 480;
      p.frame_alloc_pages = 30;
      p.round_period = Sec(45);
      p.round_alloc_pages = BytesToPages(110 * kMiB);
      break;
  }
  return p;
}

Scenario::Scenario(ActivityManager& am, Uid uid, ScenarioKind kind, Rng rng)
    : am_(am), uid_(uid), kind_(kind), params_(ParamsFor(kind)), rng_(rng) {}

uint32_t Scenario::SampleHotVpn(AddressSpace& space) {
  if (rng_.NextDouble() < params_.revisit_fraction) {
    // Cold revisit: uniform over the launched prefix of all three regions.
    uint32_t span = std::max(1u, java_hot_ + native_hot_ + file_hot_);
    uint32_t r = rng_.Below(span);
    if (r < java_hot_) {
      return space.java_begin() + r;
    }
    r -= java_hot_;
    if (r < native_hot_) {
      return space.native_begin() + r;
    }
    return space.file_begin() + (r - native_hot_);
  }
  // 55 % anonymous (java+native prefix), 45 % file prefix — the foreground
  // working set mix.
  if (rng_.NextDouble() < 0.55) {
    uint32_t r = static_cast<uint32_t>(anon_zipf_.Sample(rng_));
    if (r < java_hot_) {
      return space.java_begin() + r;
    }
    return space.native_begin() + (r - java_hot_);
  }
  return space.file_begin() + static_cast<uint32_t>(file_zipf_.Sample(rng_));
}

void Scenario::AppendColdFile(AddressSpace& space, FrameWork& frame, uint32_t pages) {
  for (uint32_t i = 0; i < pages; ++i) {
    if (file_cursor_ >= space.file_end()) {
      // Wrap to the hot-prefix boundary: old content gets re-read.
      file_cursor_ = space.file_begin() + file_hot_;
    }
    AppendVpn(frame.runs, file_cursor_++);
  }
}

void Scenario::AppendAnonAlloc(AddressSpace& space, FrameWork& frame, uint32_t pages) {
  // Allocations cycle through a bounded ring above the hot prefix — like a
  // real decoded-frame ring. Under pressure the reused slots have been
  // evicted, so each lap faults them back in on the render path.
  uint32_t ring_begin = space.native_begin() + native_hot_;
  uint32_t ring_end = static_cast<uint32_t>(std::min<uint64_t>(
      space.native_end(), ring_begin + params_.alloc_ring_pages));
  for (uint32_t i = 0; i < pages; ++i) {
    if (anon_cursor_ < ring_begin || anon_cursor_ >= ring_end) {
      anon_cursor_ = ring_begin;
    }
    AppendVpn(frame.runs, anon_cursor_++);
  }
}

std::optional<FrameWork> Scenario::NextFrame(SimTime vsync) {
  AddressSpace* space = am_.main_space(uid_);
  if (space == nullptr) {
    return std::nullopt;  // App died (LMK) mid-scenario.
  }
  if (!initialized_) {
    initialized_ = true;
    const AppDescriptor& d = am_.descriptor(uid_);
    java_hot_ = static_cast<uint32_t>(
        (space->java_end() - space->java_begin()) * d.cold_touch_fraction * 0.8);
    native_hot_ = static_cast<uint32_t>(
        (space->native_end() - space->native_begin()) * d.cold_touch_fraction * 0.8);
    file_hot_ = static_cast<uint32_t>(
        (space->file_end() - space->file_begin()) * d.cold_touch_fraction);
    anon_zipf_ = ZipfDist(std::max(1u, java_hot_ + native_hot_), 0.55);
    file_zipf_ = ZipfDist(std::max(1u, file_hot_), 0.55);
    file_cursor_ = space->file_begin() + file_hot_;
    anon_cursor_ = space->native_begin() + native_hot_;
    next_burst_ = params_.burst_period == 0 ? UINT64_MAX : vsync + params_.burst_period;
    next_round_ = params_.round_period == 0 ? UINT64_MAX : vsync + params_.round_period;
  }

  FrameWork frame;
  frame.space = space;
  frame.compute_us = static_cast<SimDuration>(
      std::max(1000.0, rng_.LogNormal(static_cast<double>(params_.frame_compute_us),
                                      params_.frame_sigma)));
  if (rng_.Chance(params_.hiccup_prob)) {
    frame.compute_us += static_cast<SimDuration>(
        rng_.LogNormal(static_cast<double>(params_.hiccup_us), 0.4));
  }
  // A hot touch adds at most one run; each cursor append at most two (it may
  // wrap).
  frame.runs.reserve(params_.frame_touches + 6);
  for (uint32_t i = 0; i < params_.frame_touches; ++i) {
    AppendVpn(frame.runs, SampleHotVpn(*space));
  }
  AppendAnonAlloc(*space, frame, params_.frame_alloc_pages);

  if (vsync >= next_burst_) {
    next_burst_ = vsync + params_.burst_period;
    pending_cold_file_ += params_.burst_pages;
    // A content switch costs extra decode/layout work too.
    frame.compute_us += Ms(14);
  }
  if (vsync >= next_round_) {
    next_round_ = vsync + params_.round_period;
    pending_anon_alloc_ += static_cast<uint32_t>(params_.round_alloc_pages);
    frame.compute_us += Ms(30);
  }
  if (pending_cold_file_ > 0) {
    uint32_t n = std::min(pending_cold_file_, kMaxColdPerFrame);
    pending_cold_file_ -= n;
    AppendColdFile(*space, frame, n);
  }
  if (pending_anon_alloc_ > 0) {
    uint32_t n = std::min(pending_anon_alloc_, kMaxAllocPerFrame);
    pending_anon_alloc_ -= n;
    AppendAnonAlloc(*space, frame, n);
  }
  return frame;
}

}  // namespace ice
