#include "common/config.hpp"

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <thread>

#include "common/error.hpp"

namespace safelight {

std::string to_string(Scale scale) {
  switch (scale) {
    case Scale::kTiny: return "tiny";
    case Scale::kFull: return "full";
    case Scale::kDefault: break;
  }
  return "default";
}

}  // namespace safelight

namespace safelight::config {

namespace {

/// Reads an environment variable; returns fallback when unset or empty.
std::string env_string(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return value;
}

Overrides& mutable_overrides() {
  static Overrides active;
  return active;
}

}  // namespace

std::optional<std::int64_t> strict_env_int(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  char* end = nullptr;
  const long long parsed = std::strtoll(raw, &end, 10);
  require(end != raw && *end == '\0',
          std::string(name) + " must be a decimal integer (got '" + raw +
              "')");
  return static_cast<std::int64_t>(parsed);
}

std::optional<double> strict_env_double(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  char* end = nullptr;
  const double parsed = std::strtod(raw, &end);
  require(end != raw && *end == '\0',
          std::string(name) + " must be a number (got '" + raw + "')");
  return parsed;
}

void set_overrides(const Overrides& overrides) {
  mutable_overrides() = overrides;
}

const Overrides& overrides() { return mutable_overrides(); }

ScopedOverrides::ScopedOverrides(const Overrides& next)
    : previous_(mutable_overrides()) {
  mutable_overrides() = next;
}

ScopedOverrides::~ScopedOverrides() { mutable_overrides() = previous_; }

Scale parse_scale(const std::string& name) {
  if (name == "tiny") return Scale::kTiny;
  if (name == "default") return Scale::kDefault;
  if (name == "full") return Scale::kFull;
  fail_argument("unknown scale '" + name +
                "' (valid scales: tiny, default, full)");
}

Scale scale() {
  if (mutable_overrides().scale) return *mutable_overrides().scale;
  return parse_scale(env_string("SAFELIGHT_SCALE", "default"));
}

std::size_t seed_count(std::size_t fallback) {
  if (mutable_overrides().seed_count) return *mutable_overrides().seed_count;
  const std::int64_t v = strict_env_int("SAFELIGHT_SEEDS")
                             .value_or(static_cast<std::int64_t>(fallback));
  require(v >= 1, "SAFELIGHT_SEEDS must be >= 1 (got " + std::to_string(v) +
                      "); every grid cell needs at least one placement");
  return static_cast<std::size_t>(v);
}

std::uint64_t base_seed(std::uint64_t fallback) {
  if (mutable_overrides().base_seed) return *mutable_overrides().base_seed;
  const std::int64_t v = strict_env_int("SAFELIGHT_BASE_SEED")
                             .value_or(static_cast<std::int64_t>(fallback));
  require(v >= 0, "SAFELIGHT_BASE_SEED must be >= 0");
  return static_cast<std::uint64_t>(v);
}

std::string out_dir() {
  std::string dir = mutable_overrides().out_dir
                        ? *mutable_overrides().out_dir
                        : env_string("SAFELIGHT_OUT", "safelight_out");
  // error_code overload + explicit throw: the default filesystem_error text
  // buries the path; sweeps must fail on this *before* any work starts,
  // with a message that says what to change.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create output directory '" + dir +
                             "': " + ec.message() +
                             " (pass a writable --out directory)");
  }
  return dir;
}

std::string zoo_dir() {
  if (mutable_overrides().zoo_dir) return *mutable_overrides().zoo_dir;
  return env_string("SAFELIGHT_ZOO", "safelight_zoo");
}

std::size_t threads() {
  if (mutable_overrides().threads) {
    return *mutable_overrides().threads < 1 ? 1 : *mutable_overrides().threads;
  }
  if (const auto v = strict_env_int("SAFELIGHT_THREADS")) {
    require(*v >= 1, "SAFELIGHT_THREADS must be >= 1 (got " +
                         std::to_string(*v) + ")");
    return static_cast<std::size_t>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::string fault_mode() {
  if (mutable_overrides().fault_mode) return *mutable_overrides().fault_mode;
  return env_string("SAFELIGHT_FAULT_MODE", "none");
}

std::string fault_point() {
  if (mutable_overrides().fault_point) return *mutable_overrides().fault_point;
  return env_string("SAFELIGHT_FAULT_POINT", "");
}

std::uint64_t fault_n() {
  if (mutable_overrides().fault_n) return *mutable_overrides().fault_n;
  const std::int64_t v = strict_env_int("SAFELIGHT_FAULT_N").value_or(1);
  require(v >= 1, "SAFELIGHT_FAULT_N must be >= 1 (got " + std::to_string(v) +
                      "); the plug is pulled on the n-th matched hit");
  return static_cast<std::uint64_t>(v);
}

double fault_prob() {
  return strict_env_double("SAFELIGHT_FAULT_PROB").value_or(0.0);
}

std::uint64_t fault_seed() {
  const std::int64_t v = strict_env_int("SAFELIGHT_FAULT_SEED").value_or(1);
  require(v >= 0, "SAFELIGHT_FAULT_SEED must be >= 0");
  return static_cast<std::uint64_t>(v);
}

std::size_t workers() {
  if (mutable_overrides().workers) return *mutable_overrides().workers;
  const std::int64_t v = strict_env_int("SAFELIGHT_WORKERS").value_or(0);
  require(v >= 0, "SAFELIGHT_WORKERS must be >= 0 (got " + std::to_string(v) +
                      "); 0 runs in-process without a coordinator");
  return static_cast<std::size_t>(v);
}

double heartbeat_timeout_s() {
  if (mutable_overrides().heartbeat_timeout_s) {
    return *mutable_overrides().heartbeat_timeout_s;
  }
  const double parsed =
      strict_env_double("SAFELIGHT_HEARTBEAT_TIMEOUT").value_or(10.0);
  require(parsed > 0.0,
          "SAFELIGHT_HEARTBEAT_TIMEOUT must be a positive number of seconds "
          "(got " + std::to_string(parsed) + ")");
  return parsed;
}

std::size_t max_task_retries() {
  if (mutable_overrides().max_task_retries) {
    return *mutable_overrides().max_task_retries;
  }
  const std::int64_t v =
      strict_env_int("SAFELIGHT_MAX_TASK_RETRIES").value_or(3);
  require(v >= 1, "SAFELIGHT_MAX_TASK_RETRIES must be >= 1 (got " +
                      std::to_string(v) + ")");
  return static_cast<std::size_t>(v);
}

std::string trace_path() {
  if (mutable_overrides().trace_path) return *mutable_overrides().trace_path;
  return env_string("SAFELIGHT_TRACE", "");
}

std::string metrics_path() {
  if (mutable_overrides().metrics_path) {
    return *mutable_overrides().metrics_path;
  }
  return env_string("SAFELIGHT_METRICS", "");
}

bool trace_pipe() { return !env_string("SAFELIGHT_TRACE_PIPE", "").empty(); }

bool metrics_pipe() {
  return !env_string("SAFELIGHT_METRICS_PIPE", "").empty();
}

std::string backend() {
  if (mutable_overrides().backend) return *mutable_overrides().backend;
  return env_string("SAFELIGHT_BACKEND", "auto");
}

std::uint16_t serve_port() {
  if (mutable_overrides().serve_port) return *mutable_overrides().serve_port;
  const std::int64_t v = strict_env_int("SAFELIGHT_SERVE_PORT").value_or(8080);
  require(v >= 0 && v <= 65535,
          "SAFELIGHT_SERVE_PORT must be in [0, 65535] (got " +
              std::to_string(v) + "); 0 binds an ephemeral port");
  return static_cast<std::uint16_t>(v);
}

std::size_t serve_slots() {
  if (mutable_overrides().serve_slots) return *mutable_overrides().serve_slots;
  const std::int64_t v = strict_env_int("SAFELIGHT_SERVE_SLOTS").value_or(2);
  require(v >= 1, "SAFELIGHT_SERVE_SLOTS must be >= 1 (got " +
                      std::to_string(v) + "); the daemon needs a slot to run");
  return static_cast<std::size_t>(v);
}

std::size_t serve_queue_depth() {
  if (mutable_overrides().serve_queue_depth) {
    return *mutable_overrides().serve_queue_depth;
  }
  const std::int64_t v = strict_env_int("SAFELIGHT_SERVE_QUEUE").value_or(4);
  require(v >= 0, "SAFELIGHT_SERVE_QUEUE must be >= 0 (got " +
                      std::to_string(v) + "); 0 disables queuing");
  return static_cast<std::size_t>(v);
}

}  // namespace safelight::config
