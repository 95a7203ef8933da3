// Memory-manager hot-path microbenchmarks: the packed 16-byte PageInfo with
// index-linked LRU lists against the pointer-based layout it replaced
// (56-byte records with an intrusive prev/next pointer pair and an owner
// back-pointer).
//
// The legacy layout, its intrusive list and LRU are reproduced in-file
// (verbatim semantics: active-head insert, second-chance promotion,
// inactive_is_low balancing, victim-filter rotation) so the comparison stays
// runnable after the old code is gone. Working sets are sized past the LLC
// (256k-1M pages, i.e. 4-56 MB of page metadata) because the win is cache
// behavior: four packed records share a 64-byte line where one legacy record
// spilled over it.
//
// Set ICE_BENCH_ITERS to pin the iteration count (CI smoke runs do, so the
// artifact is comparable across machines in shape even when not in time).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/mem/address_space.h"
#include "src/mem/lru.h"
#include "src/mem/page.h"

namespace ice {
namespace {

// ---------------------------------------------------------------------------
// The pre-packing page record and pointer-based LRU (one heap-spread record
// per page, prev/next pointers, owner back-pointer).
// ---------------------------------------------------------------------------

// The intrusive doubly-linked list the legacy LRU linked its records with,
// reduced to the members the LRU calls.
template <typename Tag>
class ListNode {
 public:
  ListNode() = default;
  ~ListNode() { ICE_CHECK(!linked()) << "destroying a linked ListNode"; }

  ListNode(const ListNode&) = delete;
  ListNode& operator=(const ListNode&) = delete;

  bool linked() const { return next_ != nullptr; }

 private:
  template <typename T, typename U>
  friend class IntrusiveList;

  ListNode* prev_ = nullptr;
  ListNode* next_ = nullptr;
};

// T must derive from ListNode<Tag>.
template <typename T, typename Tag>
class IntrusiveList {
 public:
  using Node = ListNode<Tag>;

  IntrusiveList() {
    head_.prev_ = &head_;
    head_.next_ = &head_;
  }

  ~IntrusiveList() {
    while (!empty()) {
      PopBack();
    }
    // Neutralize the self-referencing sentinel so its own ~ListNode check
    // (which guards real elements) does not fire.
    head_.prev_ = nullptr;
    head_.next_ = nullptr;
  }

  IntrusiveList(const IntrusiveList&) = delete;
  IntrusiveList& operator=(const IntrusiveList&) = delete;

  bool empty() const { return head_.next_ == &head_; }
  size_t size() const { return size_; }

  void PushFront(T* item) { InsertBefore(head_.next_, item); }

  T* PopBack() {
    if (empty()) {
      return nullptr;
    }
    T* item = FromNode(head_.prev_);
    Remove(item);
    return item;
  }

  void Remove(T* item) {
    Node* n = AsNode(item);
    ICE_CHECK(n->linked()) << "removing unlinked item";
    n->prev_->next_ = n->next_;
    n->next_->prev_ = n->prev_;
    n->prev_ = nullptr;
    n->next_ = nullptr;
    --size_;
  }

  static bool IsLinked(const T* item) { return AsNode(item)->linked(); }

 private:
  static Node* AsNode(T* item) { return static_cast<Node*>(item); }
  static const Node* AsNode(const T* item) { return static_cast<const Node*>(item); }
  static T* FromNode(Node* n) { return static_cast<T*>(n); }

  void InsertBefore(Node* pos, T* item) {
    Node* n = AsNode(item);
    ICE_CHECK(!n->linked()) << "inserting already linked item";
    n->prev_ = pos->prev_;
    n->next_ = pos;
    pos->prev_->next_ = n;
    pos->prev_ = n;
    ++size_;
  }

  Node head_;
  size_t size_ = 0;
};

struct LegacyLruTag {};

struct LegacyPageInfo : ListNode<LegacyLruTag> {
  void* owner = nullptr;
  uint32_t vpn = 0;
  PageState state = PageState::kUntouched;
  HeapKind kind = HeapKind::kFile;
  bool dirty = false;
  bool referenced = false;
  bool active = false;
  uint64_t evict_cookie = 0;
  uint32_t zram_bytes = 0;
};

class LegacyLruLists {
 public:
  using VictimFilter = std::function<bool(const LegacyPageInfo&)>;

  void Insert(LegacyPageInfo* page) {
    page->active = true;
    page->referenced = false;
    list(PoolOfLegacy(*page), true).PushFront(page);
  }

  void Remove(LegacyPageInfo* page) {
    if (List::IsLinked(page)) {
      list(PoolOfLegacy(*page), page->active).Remove(page);
    }
  }

  void Touch(LegacyPageInfo* page) {
    if (!List::IsLinked(page)) {
      return;
    }
    if (page->active) {
      page->referenced = true;
      return;
    }
    if (!page->referenced) {
      page->referenced = true;
      return;
    }
    list(PoolOfLegacy(*page), false).Remove(page);
    page->active = true;
    page->referenced = false;
    list(PoolOfLegacy(*page), true).PushFront(page);
  }

  void IsolateCandidates(LruPool pool, uint32_t max, uint32_t scan_budget,
                         const VictimFilter& filter, std::vector<LegacyPageInfo*>& out) {
    out.clear();
    List& inactive = list(pool, false);
    List& active = list(pool, true);
    uint32_t scanned = 0;
    while (out.size() < max && scanned < scan_budget && !inactive.empty()) {
      ++scanned;
      LegacyPageInfo* page = inactive.PopBack();
      if (page->referenced) {
        page->referenced = false;
        page->active = true;
        active.PushFront(page);
        continue;
      }
      if (filter && filter(*page)) {
        inactive.PushFront(page);
        continue;
      }
      out.push_back(page);
    }
  }

  void Balance(LruPool pool) {
    List& active = list(pool, true);
    List& inactive = list(pool, false);
    while (!active.empty() && inactive.size() * 2 < active.size()) {
      LegacyPageInfo* page = active.PopBack();
      page->active = false;
      page->referenced = false;
      inactive.PushFront(page);
    }
  }

  void PutBackInactive(LegacyPageInfo* page) {
    page->active = false;
    list(PoolOfLegacy(*page), false).PushFront(page);
  }

 private:
  using List = IntrusiveList<LegacyPageInfo, LegacyLruTag>;

  static LruPool PoolOfLegacy(const LegacyPageInfo& page) {
    return IsAnon(page.kind) ? LruPool::kAnon : LruPool::kFile;
  }

  List& list(LruPool pool, bool active) {
    return lists_[static_cast<int>(pool) * 2 + (active ? 1 : 0)];
  }

  List lists_[4];
};

void ApplyIters(benchmark::internal::Benchmark* b) {
  if (const char* iters = std::getenv("ICE_BENCH_ITERS")) {
    long long n = std::strtoll(iters, nullptr, 10);
    if (n > 0) {
      b->Iterations(n);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-fault bookkeeping, reproduced from each implementation of the fault
// path. The legacy path allocated three times per flash refault: a fresh
// batch-vpn vector (even for single-page faults), a {space*, vpn}-keyed map
// node for the pending-fault table, and a waiter vector destroyed when the
// I/O completed. The packed path keys the table on the uint64 page handle
// (identity hash), carries the readahead range by value in the completion
// closure, and recycles waiter vectors through a pool, so steady-state
// churn allocates only the map node. The waker closure itself is identical
// on both sides.
// ---------------------------------------------------------------------------

using BenchWaiterList = std::vector<std::function<void()>>;

struct LegacyFaultBook {
  struct Key {
    void* space;
    uint32_t vpn;
    bool operator==(const Key& o) const { return space == o.space && vpn == o.vpn; }
  };
  struct Hash {
    size_t operator()(const Key& k) const { return std::hash<void*>()(k.space) * 31 + k.vpn; }
  };
  std::unordered_map<Key, BenchWaiterList, Hash> pending;

  void Begin(void* space, uint32_t vpn, const std::function<void()>& waker) {
    std::vector<uint32_t> batch_vpns{vpn};
    benchmark::DoNotOptimize(batch_vpns.data());
    pending[Key{space, vpn}].push_back(waker);
  }
  void Finish(void* space, uint32_t vpn) {
    auto it = pending.find(Key{space, vpn});
    BenchWaiterList waiters = std::move(it->second);
    pending.erase(it);
    for (auto& w : waiters) {
      w();
    }
  }
};

struct PackedFaultBook {
  std::unordered_map<uint64_t, BenchWaiterList> pending;
  std::vector<BenchWaiterList> pool;

  void Begin(uint64_t handle, const std::function<void()>& waker) {
    auto [it, inserted] = pending.try_emplace(handle);
    if (inserted && !pool.empty()) {
      it->second = std::move(pool.back());
      pool.pop_back();
    }
    it->second.push_back(waker);
  }
  void Finish(uint64_t handle) {
    auto it = pending.find(handle);
    BenchWaiterList waiters = std::move(it->second);
    pending.erase(it);
    for (auto& w : waiters) {
      w();
    }
    waiters.clear();
    pool.push_back(std::move(waiters));
  }
};

// Both fixtures expose the same surface so the workload templates below stay
// byte-for-byte identical across implementations.

struct LegacyFixture {
  explicit LegacyFixture(uint32_t pages) : arena(pages) {
    for (uint32_t i = 0; i < pages; ++i) {
      arena[i].vpn = i;
      // Same region split an AddressSpace uses: half anon, half file.
      arena[i].kind = i < pages / 2 ? HeapKind::kJavaHeap : HeapKind::kFile;
      arena[i].state = PageState::kPresent;
    }
  }
  LegacyPageInfo* page(uint32_t i) { return &arena[i]; }
  std::vector<LegacyPageInfo> arena;
  LegacyLruLists lru;
  LegacyFaultBook book;
  std::function<void()> waker = [this] { benchmark::DoNotOptimize(this); };
  std::vector<LegacyPageInfo*> scratch;
};

struct PackedFixture {
  explicit PackedFixture(uint32_t pages) : space(1, 1, "bench", Layout(pages)) {
    for (uint32_t i = 0; i < pages; ++i) {
      space.page(i).set_state(PageState::kPresent);
    }
  }
  static AddressSpaceLayout Layout(uint32_t pages) {
    AddressSpaceLayout layout;
    layout.java_pages = pages / 2;
    layout.native_pages = 0;
    layout.file_pages = pages - pages / 2;
    return layout;
  }
  PageInfo* page(uint32_t i) { return &space.page(i); }
  LruLists& lru_ref() { return space.lru(); }
  AddressSpace space;
  PackedFaultBook book;
  std::function<void()> waker = [this] { benchmark::DoNotOptimize(this); };
  std::vector<PageInfo*> scratch;
};

// Adapter so templates can say fix.lru() uniformly.
LegacyLruLists& LruOf(LegacyFixture& f) { return f.lru; }
LruLists& LruOf(PackedFixture& f) { return f.lru_ref(); }
void SetState(LegacyPageInfo* p, PageState s) { p->state = s; }
void SetState(PageInfo* p, PageState s) { p->set_state(s); }
void SetDirty(LegacyPageInfo* p, bool v) { p->dirty = v; }
void SetDirty(PageInfo* p, bool v) { p->set_dirty(v); }
uint64_t Cookie(const LegacyPageInfo* p) { return p->evict_cookie; }
uint64_t Cookie(const PageInfo* p) { return p->evict_cookie(); }
void SetCookie(LegacyPageInfo* p, uint64_t cookie) { p->evict_cookie = cookie; }
void SetCookie(PageInfo* p, uint64_t cookie) { p->set_evict_cookie(cookie); }
// Tasks build one `[this]{ Wake(); }` waker each and hand out const refs;
// pushing it onto a waiter list is a small-buffer copy, never an allocation.
void BeginFault(LegacyFixture& f, uint32_t vpn) { f.book.Begin(&f.lru, vpn, f.waker); }
void BeginFault(PackedFixture& f, uint32_t vpn) {
  f.book.Begin(PageHandle(0, vpn).packed, f.waker);
}
void FinishFault(LegacyFixture& f, uint32_t vpn) { f.book.Finish(&f.lru, vpn); }
void FinishFault(PackedFixture& f, uint32_t vpn) { f.book.Finish(PageHandle(0, vpn).packed); }
uint32_t VpnOf(LegacyFixture&, const LegacyPageInfo* p) { return p->vpn; }
uint32_t VpnOf(PackedFixture& f, const PageInfo* p) { return f.space.VpnOf(*p); }

// Populates the LRU in a random vpn permutation. On a real device the LRU
// order decorrelates from address order within minutes of uptime (faults,
// promotions and rotations shuffle it); inserting in vpn order would instead
// hand the hardware prefetcher a sequential walk no aged system exhibits.
template <class Fixture>
void ShuffledInsert(Fixture& fix, uint32_t pages) {
  std::vector<uint32_t> order(pages);
  for (uint32_t i = 0; i < pages; ++i) {
    order[i] = i;
  }
  Rng shuffle_rng(99);
  for (uint32_t i = pages - 1; i > 0; --i) {
    std::swap(order[i], order[shuffle_rng.Below(i + 1)]);
  }
  for (uint32_t i = 0; i < pages; ++i) {
    LruOf(fix).Insert(fix.page(order[i]));
  }
}

// ---------------------------------------------------------------------------
// Access-hit path: every present page sits on an LRU; the workload is random
// Touch()es across the whole working set — the kPresent fast path of
// MemoryManager::Access. Legacy chases a pointer into a 56-byte record;
// packed reads a 16-byte record at a computed offset.
// ---------------------------------------------------------------------------

template <class Fixture>
void TouchHit(benchmark::State& state) {
  const uint32_t pages = static_cast<uint32_t>(state.range(0));
  Fixture fix(pages);
  auto& lru = LruOf(fix);
  ShuffledInsert(fix, pages);
  Rng rng(11);
  for (auto _ : state) {
    lru.Touch(fix.page(rng.Below(pages)));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LegacyTouchHit(benchmark::State& state) { TouchHit<LegacyFixture>(state); }
void BM_PackedTouchHit(benchmark::State& state) { TouchHit<PackedFixture>(state); }
BENCHMARK(BM_LegacyTouchHit)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);
BENCHMARK(BM_PackedTouchHit)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);

// ---------------------------------------------------------------------------
// Evict/refault churn: the full record lifecycle of pages under memory
// pressure — unlink + shadow-cookie stamp + state flip (EvictPage), then the
// refault undoing it (cookie consumed, state present, relink). Pages are
// processed a reclaim-batch at a time, the way MemoryManager::ReclaimBatch
// isolates 32 victims and then evicts them: the batch's record accesses are
// independent, so the memory system overlaps them and total metadata lines
// becomes the bound. The LRU is aged first (see ShuffledInsert), making each
// victim an effectively random line: one per packed record, nearly two for
// a straddling 56-byte record.
// ---------------------------------------------------------------------------

constexpr uint32_t kChurnBatch = 32;

template <class Page>
void EvictRecord(Page* page, uint64_t seq) {
  SetCookie(page, seq);
  SetState(page, PageState::kOnFlash);
  SetDirty(page, false);
}

// The refault path *reads* the record's cold half before rewriting it: the
// shadow tracker looks up the eviction cookie to compute refault distance,
// and dropping the zram copy reads the stored compressed size. On the
// legacy layout those fields live past byte 32, i.e. usually on a second
// cache line; the packed record keeps the cookie in its link word.
template <class Page>
uint64_t RefaultRecord(Page* page) {
  uint64_t cold = Cookie(page) + page->zram_bytes;
  SetCookie(page, 0);
  SetState(page, PageState::kPresent);
  return cold;
}

template <class Fixture>
void ChurnEvictRefault(benchmark::State& state) {
  const uint32_t pages = static_cast<uint32_t>(state.range(0));
  Fixture fix(pages);
  auto& lru = LruOf(fix);
  ShuffledInsert(fix, pages);
  Rng rng(12);
  uint64_t seq = 0;
  uint32_t victims[kChurnBatch];
  for (auto _ : state) {
    for (uint32_t i = 0; i < kChurnBatch; ++i) {
      // Distinct victims within a batch, as a real isolate pass would yield.
      uint32_t v;
      bool dup;
      do {
        v = rng.Below(pages);
        dup = false;
        for (uint32_t j = 0; j < i; ++j) {
          if (victims[j] == v) {
            dup = true;
            break;
          }
        }
      } while (dup);
      victims[i] = v;
    }
    for (uint32_t i = 0; i < kChurnBatch; ++i) {
      auto* page = fix.page(victims[i]);
      lru.Remove(page);
      EvictRecord(page, ++seq);
    }
    uint64_t cold = 0;
    for (uint32_t i = 0; i < kChurnBatch; ++i) {
      auto* page = fix.page(victims[i]);
      cold += RefaultRecord(page);
      BeginFault(fix, victims[i]);
      lru.Insert(page);
    }
    // I/O completion drains the whole batch's pending-fault entries (the
    // storage queue keeps a batch in flight).
    for (uint32_t i = 0; i < kChurnBatch; ++i) {
      FinishFault(fix, victims[i]);
    }
    benchmark::DoNotOptimize(cold);
  }
  state.SetItemsProcessed(state.iterations() * kChurnBatch);
}

void BM_LegacyChurn(benchmark::State& state) { ChurnEvictRefault<LegacyFixture>(state); }
void BM_PackedChurn(benchmark::State& state) { ChurnEvictRefault<PackedFixture>(state); }
BENCHMARK(BM_LegacyChurn)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);
BENCHMARK(BM_PackedChurn)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);

// ---------------------------------------------------------------------------
// Full reclaim scan: one kswapd-sized batch per iteration — Balance both
// pools, isolate up to 32 victims within a 128-page scan budget, evict each
// victim (shadow cookie + state flip), then refault and reinsert it so the
// population is steady. This is the shape of MemoryManager::ReclaimBatch
// plus the refaults that follow it. The scan hops are serial either way (a
// linked list is a dependency chain); the packed layout wins on every
// record the scan and the eviction bookkeeping then touch.
// ---------------------------------------------------------------------------

template <class Fixture>
void ReclaimScan(benchmark::State& state) {
  const uint32_t pages = static_cast<uint32_t>(state.range(0));
  Fixture fix(pages);
  auto& lru = LruOf(fix);
  ShuffledInsert(fix, pages);
  Rng rng(13);
  uint64_t isolated = 0;
  uint64_t seq = 0;
  uint32_t refault_vpns[192];
  auto batch = [&] {
    // Sprinkle reference bits so the scan exercises second-chance promotion
    // (the dominant cost on a busy device: most tail pages were touched).
    for (int i = 0; i < 8; ++i) {
      lru.Touch(fix.page(rng.Below(pages)));
    }
    // Reclaim until 64 pages have been freed, however much scanning that
    // takes — per-iteration work is then a fixed number of evictions plus
    // the (variable, and honestly charged) scan cost of finding them.
    uint32_t refaults = 0;
    while (refaults < 64) {
      for (LruPool pool : {LruPool::kAnon, LruPool::kFile}) {
        lru.Balance(pool);
        lru.IsolateCandidates(pool, 32, 128, nullptr, fix.scratch);
        isolated += fix.scratch.size();
        for (auto* page : fix.scratch) {
          EvictRecord(page, ++seq);
          isolated += RefaultRecord(page);
          const uint32_t vpn = VpnOf(fix, page);
          BeginFault(fix, vpn);
          refault_vpns[refaults++] = vpn;
          lru.Insert(page);
        }
      }
    }
    // The refaults that put the victims back complete as one storage batch.
    for (uint32_t i = 0; i < refaults; ++i) {
      FinishFault(fix, refault_vpns[i]);
    }
  };
  // One full population turnover untimed: ShuffledInsert leaves every page
  // active and never-referenced, and the measured window is comparable to
  // one list cycle, so timing from a cold start samples a drifting
  // transient instead of the steady state (~a quarter of tail pages
  // referenced, pools balanced).
  for (uint32_t warm = 0; warm < pages / 32; ++warm) {
    batch();
  }
  for (auto _ : state) {
    batch();
  }
  benchmark::DoNotOptimize(isolated);
  state.SetItemsProcessed(state.iterations());
}

void BM_LegacyReclaimScan(benchmark::State& state) { ReclaimScan<LegacyFixture>(state); }
void BM_PackedReclaimScan(benchmark::State& state) { ReclaimScan<PackedFixture>(state); }
BENCHMARK(BM_LegacyReclaimScan)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);
BENCHMARK(BM_PackedReclaimScan)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);

// ---------------------------------------------------------------------------
// The same reclaim batch under the generation-clock aging policy: Balance is
// an O(1) counter comparison and the isolate pass is a sequential sweep over
// the contiguous PageInfo arena instead of a pointer chase along the
// inactive list. The sweep examines pages in address order, so the hardware
// prefetcher covers the next records while the current one is inspected —
// the list walk's serial dependency chain is gone.
// ---------------------------------------------------------------------------

struct GenClockFixture : PackedFixture {
  explicit GenClockFixture(uint32_t pages) : PackedFixture(pages) {
    space.lru().set_aging(AgingPolicy::kGenClock);
  }
};

void BM_GenClockReclaimScan(benchmark::State& state) { ReclaimScan<GenClockFixture>(state); }
BENCHMARK(BM_GenClockReclaimScan)->Arg(262144)->Arg(1048576)->Apply(ApplyIters);

}  // namespace
}  // namespace ice

BENCHMARK_MAIN();
