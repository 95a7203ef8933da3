#include "src/swap/governor.h"

#include "src/base/binary_stream.h"

namespace ice {

void SwapGovernor::Transfer(SnapshotArchive& ar) {
  ar.Sequence(writeback_fifo_, 8, [&ar](uint64_t& handle) { ar.U64(handle); });
  compressed_bytes_.Transfer(ar);
}

}  // namespace ice
