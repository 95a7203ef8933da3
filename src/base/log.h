// Minimal logging and assertion support for the simulator.
//
// ICE_CHECK aborts with a message on invariant violation; it is always on
// (the simulator is not performance critical enough to justify stripping
// invariant checks in release builds, and silent corruption of simulation
// state would invalidate experiment results).
#ifndef SRC_BASE_LOG_H_
#define SRC_BASE_LOG_H_

#include <sstream>
#include <string>

namespace ice {

// ICE_LOG(kError) always prints; kFatal (ICE_CHECK) also aborts.
enum class LogLevel {
  kError,
  kFatal,
};

namespace log_internal {

// Accumulates one log statement and emits it (to stderr) on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Turns the streamed expression into void, the type of the other branch of
// ICE_CHECK's conditional.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace log_internal

#define ICE_LOG(level) \
  ::ice::log_internal::LogMessage(::ice::LogLevel::level, __FILE__, __LINE__).stream()

#define ICE_CHECK(cond)                                                                  \
  (cond) ? (void)0                                                                       \
         : ::ice::log_internal::Voidify() &                                              \
               ::ice::log_internal::LogMessage(::ice::LogLevel::kFatal, __FILE__, __LINE__) \
                       .stream()                                                         \
                   << "Check failed: " #cond " "

#define ICE_CHECK_LE(a, b) ICE_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define ICE_CHECK_LT(a, b) ICE_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define ICE_CHECK_GE(a, b) ICE_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "
#define ICE_CHECK_GT(a, b) ICE_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define ICE_CHECK_EQ(a, b) ICE_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define ICE_CHECK_NE(a, b) ICE_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "

}  // namespace ice

#endif  // SRC_BASE_LOG_H_
