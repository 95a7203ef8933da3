// Swap-policy hot-path microbenchmarks: the hotness counter packed into the
// PageInfo flag word (bits 12-14, riding the record the fault/reclaim paths
// already touch) against the side-table a naive implementation would use —
// a {page handle -> counter} hash map maintained next to the page records.
//
// The side-table variant is reproduced in-file with identical decision
// semantics (same thresholds, same boost/decay schedule, entries erased when
// they decay to zero the way a sparse table must) so the comparison stays
// runnable as the packed implementation evolves. Working sets are sized past
// the LLC (256k-1M pages) because the win is locality: the packed bits are
// free bits of a line the caller has already loaded, while the map costs a
// hash, a probe chain, and a second cache line per page — plus node churn
// on the erase/insert cycle every boost-from-zero implies.
//
// Set ICE_BENCH_ITERS to pin the iteration count (CI smoke runs do, so the
// artifact is comparable across machines in shape even when not in time).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"
#include "src/mem/page.h"
#include "src/swap/governor.h"
#include "src/swap/swap_policy.h"

namespace ice {
namespace {

void ApplyIters(benchmark::internal::Benchmark* b) {
  if (const char* iters = std::getenv("ICE_BENCH_ITERS")) {
    long long n = std::strtoll(iters, nullptr, 10);
    if (n > 0) {
      b->Iterations(n);
    }
  }
}

SwapConfig HotnessConfig() {
  SwapConfig config;
  config.policy = SwapPolicy::kHotness;
  return config;
}

// ---------------------------------------------------------------------------
// The naive alternative: hotness in a handle-keyed hash map beside the page
// records. Every query hashes and probes; a counter that decays to zero is
// erased (a sparse table that never shrank would grow monotonically), so the
// steady-state boost/decay cycle also churns map nodes.
// ---------------------------------------------------------------------------

class SideTableHotness {
 public:
  explicit SideTableHotness(const SwapConfig& config) : config_(config) {}

  uint8_t Get(uint64_t handle) const {
    auto it = table_.find(handle);
    return it == table_.end() ? 0 : it->second;
  }
  bool ShouldReject(uint64_t handle) const {
    return Get(handle) >= config_.hot_reject_threshold;
  }
  bool UseDenseTier(uint64_t handle) const {
    return Get(handle) < config_.fast_tier_min_hotness;
  }
  void Boost(uint64_t handle) {
    uint8_t& h = table_[handle];
    unsigned next = h + config_.refault_hotness_boost;
    h = static_cast<uint8_t>(next > 7 ? 7 : next);
  }
  void DecayOnStore(uint64_t handle) {
    auto it = table_.find(handle);
    if (it == table_.end()) {
      return;
    }
    it->second = static_cast<uint8_t>(it->second >> 1);
    if (it->second == 0) {
      table_.erase(it);
    }
  }

 private:
  SwapConfig config_;
  std::unordered_map<uint64_t, uint8_t> table_;
};

struct SideTableFixture {
  explicit SideTableFixture(uint32_t pages)
      : arena(pages), book(HotnessConfig()) {
    for (uint32_t i = 0; i < pages; ++i) {
      arena[i].set_state(PageState::kPresent);
    }
  }
  uint64_t HandleOf(uint32_t vpn) const { return PageHandle(0, vpn).packed; }

  bool Reject(uint32_t vpn) const { return book.ShouldReject(HandleOf(vpn)); }
  bool Dense(uint32_t vpn) const { return book.UseDenseTier(HandleOf(vpn)); }
  void Boost(uint32_t vpn) { book.Boost(HandleOf(vpn)); }
  void Decay(uint32_t vpn) { book.DecayOnStore(HandleOf(vpn)); }

  std::vector<PageInfo> arena;
  SideTableHotness book;
};

// The shipped implementation: SwapGovernor decisions over the counter bits
// in the page record itself.
struct PackedFixture {
  explicit PackedFixture(uint32_t pages) : arena(pages), gov(HotnessConfig()) {
    for (uint32_t i = 0; i < pages; ++i) {
      arena[i].set_state(PageState::kPresent);
    }
  }
  bool Reject(uint32_t vpn) const { return gov.ShouldReject(arena[vpn]); }
  bool Dense(uint32_t vpn) const { return gov.UseDenseTier(arena[vpn]); }
  void Boost(uint32_t vpn) { gov.OnRefault(&arena[vpn]); }
  void Decay(uint32_t vpn) {
    PageInfo& p = arena[vpn];
    p.set_hotness(static_cast<uint8_t>(p.hotness() >> 1));
  }

  std::vector<PageInfo> arena;
  SwapGovernor gov;
};

// ---------------------------------------------------------------------------
// Admission decision path: a reclaim batch asks ShouldReject + UseDenseTier
// for 32 random victims — the questions EvictPage puts to the governor for
// every isolated anonymous page. The packed read is bits of the record the
// eviction is about to rewrite anyway; the side table pays a hash+probe per
// question. A third of the population is pre-warmed so both branches of the
// decision are live.
// ---------------------------------------------------------------------------

constexpr uint32_t kBatch = 32;

template <class Fixture>
void AdmissionBatch(benchmark::State& state) {
  const uint32_t pages = static_cast<uint32_t>(state.range(0));
  Fixture fix(pages);
  Rng warm_rng(7);
  for (uint32_t i = 0; i < pages / 3; ++i) {
    fix.Boost(warm_rng.Below(pages));  // One boost: below the fast tier...
  }
  for (uint32_t i = 0; i < pages / 16; ++i) {
    uint32_t vpn = warm_rng.Below(pages);
    fix.Boost(vpn);  // ...a second pushes toward the reject threshold.
    fix.Boost(vpn);
  }
  Rng rng(21);
  uint64_t rejected = 0;
  uint64_t dense = 0;
  for (auto _ : state) {
    for (uint32_t i = 0; i < kBatch; ++i) {
      uint32_t vpn = rng.Below(pages);
      if (fix.Reject(vpn)) {
        ++rejected;
        continue;
      }
      if (fix.Dense(vpn)) {
        ++dense;
      }
    }
  }
  benchmark::DoNotOptimize(rejected);
  benchmark::DoNotOptimize(dense);
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_SideTableAdmission(benchmark::State& state) {
  AdmissionBatch<SideTableFixture>(state);
}
void BM_PackedAdmission(benchmark::State& state) {
  AdmissionBatch<PackedFixture>(state);
}
BENCHMARK(BM_SideTableAdmission)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);
BENCHMARK(BM_PackedAdmission)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);

// ---------------------------------------------------------------------------
// Hotness update churn: the full counter lifecycle a thrashing page drives —
// refault boost, admission question, store decay — for a 32-page batch per
// iteration. This is the write side: the side table churns nodes (boost
// creates entries, decay-to-zero erases them), the packed bits rewrite a
// half-word in place.
// ---------------------------------------------------------------------------

template <class Fixture>
void HotnessChurn(benchmark::State& state) {
  const uint32_t pages = static_cast<uint32_t>(state.range(0));
  Fixture fix(pages);
  Rng rng(22);
  uint64_t rejected = 0;
  for (auto _ : state) {
    for (uint32_t i = 0; i < kBatch; ++i) {
      uint32_t vpn = rng.Below(pages);
      fix.Boost(vpn);             // The page refaulted...
      if (fix.Reject(vpn)) {      // ...reclaim catches up with it...
        ++rejected;
        continue;
      }
      benchmark::DoNotOptimize(fix.Dense(vpn));
      fix.Decay(vpn);             // ...and it is stored again.
    }
  }
  benchmark::DoNotOptimize(rejected);
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_SideTableHotnessChurn(benchmark::State& state) {
  HotnessChurn<SideTableFixture>(state);
}
void BM_PackedHotnessChurn(benchmark::State& state) {
  HotnessChurn<PackedFixture>(state);
}
BENCHMARK(BM_SideTableHotnessChurn)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);
BENCHMARK(BM_PackedHotnessChurn)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);

}  // namespace
}  // namespace ice

BENCHMARK_MAIN();
