// Block I/O request, mirroring the kernel's `struct bio`: an in-flight block
// I/O request handed from the memory manager to a block device driver.
#ifndef SRC_STORAGE_BIO_H_
#define SRC_STORAGE_BIO_H_

#include <functional>

#include "src/base/units.h"

namespace ice {

enum class IoDir { kRead, kWrite };

struct Bio {
  IoDir dir = IoDir::kRead;
  PageCount pages = 1;
  // True when the request is on behalf of the foreground application. The
  // device is FIFO (the paper's stock configuration); the flag is tracked
  // for accounting and traces.
  bool foreground = false;
  Pid pid = kInvalidPid;
  // Invoked at completion time (simulated).
  std::function<void()> on_complete;
};

}  // namespace ice

#endif  // SRC_STORAGE_BIO_H_
