#include "src/mem/zram.h"

#include <algorithm>

#include "src/base/binary_stream.h"
#include "src/base/log.h"
#include "src/mem/address_space.h"

namespace ice {

Zram::Zram(const ZramConfig& config, Rng rng) : config_(config), rng_(rng) {}

bool Zram::HasRoom() const {
  uint64_t typical = static_cast<uint64_t>(kPageSize / config_.mean_ratio);
  return stored_bytes_ + typical <= config_.capacity_bytes;
}

bool Zram::Store(const AddressSpace& space, PageInfo* page) {
  return StoreWithRatio(space, page, config_.mean_ratio, config_.ratio_sigma);
}

bool Zram::StoreWithRatio(const AddressSpace& space, PageInfo* page, double mean_ratio,
                          double ratio_sigma) {
  ICE_CHECK(page != nullptr);
  ICE_CHECK(IsAnon(space.KindOf(space.VpnOf(*page)))) << "only anonymous pages swap to zram";
  double ratio = std::max(1.05, rng_.LogNormal(mean_ratio, ratio_sigma));
  uint32_t compressed = static_cast<uint32_t>(kPageSize / ratio);
  if (stored_bytes_ + compressed > config_.capacity_bytes) {
    return false;
  }
  page->zram_bytes = compressed;
  stored_bytes_ += compressed;
  ++stored_pages_;
  return true;
}

void Zram::Transfer(SnapshotArchive& ar) {
  rng_.Transfer(ar);
  ar.U64(stored_bytes_);
  ar.U64(stored_pages_);
}

void Zram::Drop(PageInfo* page) {
  ICE_CHECK(page != nullptr);
  ICE_CHECK_GT(page->zram_bytes, 0u);
  ICE_CHECK_GE(stored_bytes_, page->zram_bytes);
  stored_bytes_ -= page->zram_bytes;
  ICE_CHECK_GT(stored_pages_, 0u);
  --stored_pages_;
  page->zram_bytes = 0;
}

}  // namespace ice
