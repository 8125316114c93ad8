// Tiny leveled stderr logger unifying SafeLight's ad-hoc diagnostic
// prints ("[dist] ...", "[store] ...", worker logs, resume hints).
//
// Every line is "[<tag>] <formatted message>\n", written with one fprintf
// so concurrent processes (coordinator + workers sharing stderr) interleave
// at line granularity, exactly like the fprintf calls this replaces. At the
// default level (info) the emitted bytes are identical to the historical
// ad-hoc messages — tests and scripts that grep "[dist] summary:" keep
// working.
//
// The level comes from config::log_level() (SAFELIGHT_LOG_LEVEL: "error" |
// "warn" | "info" | "debug", default "info"), read once on first use;
// set_level() overrides it (tests, or a future --log-level flag). debug is
// for messages that were previously compiled out or hidden behind verbose
// gates.
#pragma once

#include <cstdarg>

namespace safelight::log {

enum class Level { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Active level: set_level() > SAFELIGHT_LOG_LEVEL > kInfo. An
/// unrecognized env value falls back to kInfo (diagnostics must never
/// throw).
Level level();

/// Installs an explicit level, overriding the environment.
void set_level(Level level);

/// Re-reads the environment on next use (tests).
void reset();

inline bool enabled(Level l) {
  return static_cast<int>(l) <= static_cast<int>(level());
}

/// Core emitter: "[<tag>] <printf(fmt, ...)>\n" to stderr when `l` is
/// enabled. A null tag drops the "[tag] " prefix (messages whose historical
/// bytes carry none, e.g. the CLI resume hint).
void message(Level l, const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

void error(const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void warn(const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void info(const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void debug(const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace safelight::log
