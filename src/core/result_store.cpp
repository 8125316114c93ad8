#include "core/result_store.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common/fault.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"

namespace safelight::core {

namespace {

/// Full-precision round-trip format: a resumed run must report exactly the
/// accuracies the original run computed.
std::string format_value(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Deletes every `*.tmp` file in `directory` with a warning line. Writers
/// in the cache directory (nn::save_model and friends) stage durable files
/// as `<target>.tmp` + atomic rename; a crash between the two leaves the
/// orphan behind, and nothing would ever reclaim it. Cache directories have
/// a single live writer by contract (sharding will need liveness checks
/// here), so any `.tmp` present at open time is dead.
void sweep_orphaned_temp_files(const std::filesystem::path& directory) {
  std::error_code ec;
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) return;  // directory missing/unreadable: nothing to sweep
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || entry.path().extension() != ".tmp") {
      continue;
    }
    std::error_code remove_ec;
    std::filesystem::remove(entry.path(), remove_ec);
    if (!remove_ec) {
      log::warn("store",
                "removed orphaned temp file %s (left by an "
                "interrupted writer)",
                entry.path().c_str());
    }
  }
}

/// Splits one CSV line into (key, raw value bytes) when it is a complete,
/// well-formed store row; nullopt for headers, blanks and malformed rows.
/// The value must parse as a full double but is returned unparsed — the
/// multi-writer merge compares value *bytes*.
std::optional<RawStoreEntry> parse_store_line(std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty() || line == "key,accuracy") return std::nullopt;
  const std::size_t comma = line.rfind(',');
  if (comma == std::string::npos || comma == 0) return std::nullopt;
  const char* value_begin = line.c_str() + comma + 1;
  char* value_end = nullptr;
  const double value = std::strtod(value_begin, &value_end);
  (void)value;
  if (value_end == value_begin || *value_end != '\0') return std::nullopt;
  return RawStoreEntry{line.substr(0, comma), line.substr(comma + 1)};
}

}  // namespace

// ---------------------------------------------------------------------------
// StoreWriterLock
// ---------------------------------------------------------------------------

StoreWriterLock::StoreWriterLock(const std::string& store_path) {
  const std::string path = store_path + ".lock";
  // Two attempts: the second runs only after a stale lock was removed, so
  // a live competitor racing us between unlink and reopen still wins.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      const std::string body = std::to_string(::getpid()) + "\n";
      // A lock file with an unparsable body reads as stale, which is the
      // safe failure direction for a write that did not land.
      (void)!::write(fd, body.c_str(), body.size());
      ::close(fd);
      lock_path_ = path;
      return;
    }
    if (errno != EEXIST) {
      throw std::runtime_error("safelight: cannot create store lock '" +
                               path + "': " + std::strerror(errno));
    }
    // Somebody holds (or held) the lock: read the owner pid and probe it.
    long owner = 0;
    {
      std::ifstream in(path);
      in >> owner;
    }
    const bool alive = owner > 0 && (::kill(static_cast<pid_t>(owner), 0) == 0 ||
                                     errno != ESRCH);
    if (alive) {
      throw std::runtime_error(
          "safelight: result store '" + store_path +
          "' is locked by live process " + std::to_string(owner) +
          " (two concurrent writers on one cache directory? remove '" + path +
          "' only if that process is not a safelight writer)");
    }
    log::warn("store", "taking over stale lock %s (owner pid %ld is dead)",
              path.c_str(), owner);
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  throw std::runtime_error("safelight: could not acquire store lock '" + path +
                           "' (lock keeps reappearing)");
}

StoreWriterLock::~StoreWriterLock() {
  if (lock_path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove(lock_path_, ec);
}

StoreWriterLock::StoreWriterLock(StoreWriterLock&& other) noexcept
    : lock_path_(std::move(other.lock_path_)) {
  other.lock_path_.clear();
}

StoreWriterLock& StoreWriterLock::operator=(StoreWriterLock&& other) noexcept {
  if (this != &other) {
    if (!lock_path_.empty()) {
      std::error_code ec;
      std::filesystem::remove(lock_path_, ec);
    }
    lock_path_ = std::move(other.lock_path_);
    other.lock_path_.clear();
  }
  return *this;
}

std::vector<RawStoreEntry> read_store_entries(const std::string& csv_path) {
  std::vector<RawStoreEntry> entries;
  std::ifstream in(csv_path, std::ios::binary);
  if (!in) return entries;
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  std::unordered_map<std::string, std::size_t> index;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t newline = content.find('\n', pos);
    if (newline == std::string::npos) break;  // torn tail: skip, keep file
    auto entry = parse_store_line(content.substr(pos, newline - pos));
    pos = newline + 1;
    if (!entry) continue;
    if (const auto it = index.find(entry->key); it != index.end()) {
      entries[it->second].value = std::move(entry->value);  // later row wins
    } else {
      index.emplace(entry->key, entries.size());
      entries.push_back(std::move(*entry));
    }
  }
  return entries;
}

ResultStore::ResultStore(std::string csv_path)
    : csv_path_(std::move(csv_path)) {
  if (csv_path_.empty()) return;
  // Writer exclusivity first: everything below mutates the directory.
  lock_ = StoreWriterLock(csv_path_);
  const std::filesystem::path parent =
      std::filesystem::path(csv_path_).parent_path();
  sweep_orphaned_temp_files(parent.empty() ? "." : parent);
  // Hand-rolled tolerant parse: an interrupted run may leave a torn final
  // row, which must not prevent the resume it exists to enable. Every
  // complete row ends with '\n' (put() writes row + newline + flush), so an
  // unterminated tail is a tear: it is dropped, the file truncated back to
  // the last complete row (a later append must not merge into the tear),
  // and its scenario simply re-evaluates. Other malformed rows are skipped.
  std::ifstream in(csv_path_, std::ios::binary);
  if (!in) return;
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  in.close();
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t newline = content.find('\n', pos);
    if (newline == std::string::npos) {
      std::error_code ec;
      std::filesystem::resize_file(csv_path_, pos, ec);
      break;
    }
    auto entry = parse_store_line(content.substr(pos, newline - pos));
    pos = newline + 1;
    if (!entry) continue;
    entries_[entry->key] = std::strtod(entry->value.c_str(), nullptr);
  }
}

std::optional<double> ResultStore::lookup(const std::string& key) const {
  static metrics::Counter& hits = metrics::counter("store.lookup_hits");
  static metrics::Counter& misses = metrics::counter("store.lookup_misses");
  const std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = entries_.find(key); it != entries_.end()) {
    hits.add();
    return it->second;
  }
  misses.add();
  return std::nullopt;
}

bool ResultStore::contains(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(key) > 0;
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void ResultStore::put(const std::string& key, double value) {
  put({{key, value}});
}

void ResultStore::put(
    const std::vector<std::pair<std::string, double>>& entries) {
  static metrics::Counter& appends = metrics::counter("store.appends");
  appends.add(entries.size());
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, value] : entries) entries_[key] = value;

  // The fault::ptp points sit at the nastiest byte boundaries a crash can
  // hit; the mid-row flushes that make the torn state real are taken only
  // when injection is armed, so the normal path keeps its single flush.
  if (csv_path_.empty() || entries.empty()) return;
  const bool fresh = !std::filesystem::exists(csv_path_);
  std::ofstream out(csv_path_, std::ios::app);
  if (!out) return;
  if (fresh) {
    out << "key,accuracy\n";
    if (fault::armed()) out.flush();
    fault::ptp("store.csv.create");  // crash: header-only file
  }
  for (std::size_t r = 0; r < entries.size(); ++r) {
    out << entries[r].first << ',';
    if (r + 1 == entries.size()) {
      if (fault::armed()) out.flush();
      fault::ptp("store.csv.append");  // crash: torn row (key, no value)
    }
    out << format_value(entries[r].second) << '\n';
  }
  out.flush();
  fault::ptp("store.csv.flush");  // crash: every row fully durable
  static metrics::Counter& flushes = metrics::counter("store.flushes");
  flushes.add(entries.size());  // rows made durable
}

}  // namespace safelight::core
