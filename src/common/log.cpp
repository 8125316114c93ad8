#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <string>

#include "common/config.hpp"

namespace safelight::log {

namespace {

constexpr int kUnset = -1;

std::atomic<int>& level_cell() {
  static std::atomic<int> cell{kUnset};
  return cell;
}

int parse_env_level() {
  const std::string name = config::log_level();
  if (name == "error") return static_cast<int>(Level::kError);
  if (name == "warn") return static_cast<int>(Level::kWarn);
  if (name == "debug") return static_cast<int>(Level::kDebug);
  // "info" and, since diagnostics must never abort a run, any unknown name.
  return static_cast<int>(Level::kInfo);
}

void vmessage(Level l, const char* tag, const char* fmt, std::va_list args) {
  if (!enabled(l)) return;
  char body[2048];
  std::vsnprintf(body, sizeof(body), fmt, args);
  // One fprintf per line: coordinator and worker processes share stderr,
  // and line-granular interleaving is what the old ad-hoc calls gave us.
  if (tag == nullptr) {
    std::fprintf(stderr, "%s\n", body);
  } else {
    std::fprintf(stderr, "[%s] %s\n", tag, body);
  }
}

}  // namespace

Level level() {
  int v = level_cell().load(std::memory_order_relaxed);
  if (v == kUnset) {
    v = parse_env_level();
    level_cell().store(v, std::memory_order_relaxed);
  }
  return static_cast<Level>(v);
}

void set_level(Level level) {
  level_cell().store(static_cast<int>(level), std::memory_order_relaxed);
}

void reset() { level_cell().store(kUnset, std::memory_order_relaxed); }

void error(const char* tag, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  vmessage(Level::kError, tag, fmt, args);
  va_end(args);
}

void warn(const char* tag, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  vmessage(Level::kWarn, tag, fmt, args);
  va_end(args);
}

void info(const char* tag, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  vmessage(Level::kInfo, tag, fmt, args);
  va_end(args);
}

}  // namespace safelight::log
