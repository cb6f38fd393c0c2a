#include "base/log.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pdat {
namespace {

LogLevel g_threshold = [] {
  const char* env = std::getenv("PDAT_LOG");
  if (env == nullptr) return LogLevel::Warn;
  if (std::strcmp(env, "debug") == 0) return LogLevel::Debug;
  if (std::strcmp(env, "info") == 0) return LogLevel::Info;
  if (std::strcmp(env, "warn") == 0) return LogLevel::Warn;
  return LogLevel::Off;
}();

const char* prefix(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::Debug: return "[pdat:debug] ";
    case LogLevel::Info: return "[pdat:info ] ";
    case LogLevel::Warn: return "[pdat:warn ] ";
    default: return "";
  }
}

}  // namespace

void log_emit(LogLevel lvl, const std::string& msg) {
  if (static_cast<int>(lvl) < static_cast<int>(g_threshold)) return;
  std::fprintf(stderr, "%s%s\n", prefix(lvl), msg.c_str());
}

}  // namespace pdat
