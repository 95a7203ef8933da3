#include "src/base/log.h"

#include <cstdio>
#include <cstdlib>

namespace ice {
namespace log_internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  stream_ << "[" << (level == LogLevel::kFatal ? "FATAL" : "ERROR") << " " << file << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::fputs(stream_.str().c_str(), stderr);
  if (level_ == LogLevel::kFatal) {
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace log_internal
}  // namespace ice
