// Test helper: a run list written out as the vpns it touches, in order.
#ifndef TESTS_MEM_VPN_RUNS_H_
#define TESTS_MEM_VPN_RUNS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/mem/address_space.h"

namespace ice {

inline std::vector<uint32_t> ExpandRuns(std::span<const VpnRun> runs) {
  std::vector<uint32_t> vpns;
  for (const VpnRun& run : runs) {
    for (uint32_t i = 0; i < run.count; ++i) {
      vpns.push_back(run.begin + i);
    }
  }
  return vpns;
}

}  // namespace ice

#endif  // TESTS_MEM_VPN_RUNS_H_
