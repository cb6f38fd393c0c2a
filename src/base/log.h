// Minimal leveled logger. Quiet by default so tests and benches stay clean;
// set PDAT_LOG=debug|info|warn in the environment to see pipeline progress.
#pragma once

#include <sstream>
#include <string>

namespace pdat {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Off = 3 };

void log_emit(LogLevel lvl, const std::string& msg);

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel lvl) : lvl_(lvl) {}
  ~LogLine() { log_emit(lvl_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel lvl_;
  std::ostringstream os_;
};
}  // namespace detail

inline detail::LogLine log_debug() { return detail::LogLine(LogLevel::Debug); }
inline detail::LogLine log_info() { return detail::LogLine(LogLevel::Info); }
inline detail::LogLine log_warn() { return detail::LogLine(LogLevel::Warn); }

}  // namespace pdat
