// ZRAM: the compressed in-RAM swap device Android uses for anonymous pages.
//
// Stores compressed copies of evicted anonymous pages up to a configured
// capacity (512 MB on Pixel3, 1024 MB on P20 per Table 4). Compression and
// decompression consume CPU time in the context of whoever performs them
// (kswapd, a direct-reclaiming task, or a faulting task), which is one of
// the CPU-pressure channels §6.2.2 measures.
#ifndef SRC_MEM_ZRAM_H_
#define SRC_MEM_ZRAM_H_

#include <cstdint>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/mem/page.h"

namespace ice {

class AddressSpace;
class SnapshotArchive;

struct ZramConfig {
  uint64_t capacity_bytes = 512 * kMiB;
  // LZ4-class costs on a mobile big core.
  SimDuration compress_us = Us(35);
  SimDuration decompress_us = Us(15);
  // Compression ratio model: compressed size = kPageSize / ratio with ratio
  // drawn log-normally around `mean_ratio`.
  double mean_ratio = 2.8;
  double ratio_sigma = 0.35;
};

class Zram {
 public:
  Zram(const ZramConfig& config, Rng rng);

  // True when a page of typical compressed size still fits.
  bool HasRoom() const;

  // Compresses `page`, an anonymous page of `space`, into the store.
  // Returns false (and stores nothing) when the device is full. On success,
  // sets page->zram_bytes.
  bool Store(const AddressSpace& space, PageInfo* page);

  // Tiered store for the hotness swap policy: same single RNG draw per call
  // as Store() — only the log-normal parameters differ — so enabling tiers
  // never shifts the compression-ratio stream's position.
  bool StoreWithRatio(const AddressSpace& space, PageInfo* page, double mean_ratio,
                      double ratio_sigma);

  // Removes `page`'s compressed copy (fault-in or owner exit).
  void Drop(PageInfo* page);

  SimDuration compress_cost() const { return config_.compress_us; }
  SimDuration decompress_cost() const { return config_.decompress_us; }

  uint64_t stored_bytes() const { return stored_bytes_; }
  uint64_t capacity_bytes() const { return config_.capacity_bytes; }
  uint64_t stored_pages() const { return stored_pages_; }
  double utilization() const {
    return static_cast<double>(stored_bytes_) / static_cast<double>(config_.capacity_bytes);
  }

  // Snapshot support: occupancy plus the compression-ratio RNG stream (the
  // per-page compressed sizes themselves live in PageInfo::zram_bytes).
  void Transfer(SnapshotArchive& ar);

 private:
  ZramConfig config_;
  Rng rng_;
  uint64_t stored_bytes_ = 0;
  uint64_t stored_pages_ = 0;
};

}  // namespace ice

#endif  // SRC_MEM_ZRAM_H_
