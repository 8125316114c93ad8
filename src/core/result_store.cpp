#include "core/result_store.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
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

/// Splits one CSV line into (key, raw value bytes) when it is a complete,
/// well-formed store row; nullopt for headers, blanks and malformed rows.
/// The value must parse as a full double but is returned unparsed.
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

/// Cuts a result-store CSV back to its last complete ('\n'-terminated)
/// row. Every complete row ends with '\n', so an unterminated tail is a
/// tear left by a writer killed mid-append, and a later append must not
/// extend it into a corrupt row. A missing file is left alone.
void truncate_torn_tail(const std::string& csv_path) {
  std::ifstream in(csv_path, std::ios::binary);
  if (!in) return;
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  in.close();
  const std::size_t last_newline = content.rfind('\n');
  const std::size_t keep =
      last_newline == std::string::npos ? 0 : last_newline + 1;
  if (keep != content.size()) {
    std::error_code ec;
    std::filesystem::resize_file(csv_path, keep, ec);
  }
}

/// The live stores of this process by path. An entry is erased, under
/// `mutex`, by the deleter of its last shared_ptr after the store (and its
/// lock file) is gone, so an open never races a closing instance.
struct OpenStores {
  std::mutex mutex;
  std::condition_variable closed;
  std::map<std::string, std::weak_ptr<ResultStore>> live;
};

OpenStores& open_stores() {
  static OpenStores* stores = new OpenStores;  // outlives static teardown
  return *stores;
}

}  // namespace

// ---------------------------------------------------------------------------
// StoreWriterLock
// ---------------------------------------------------------------------------

StoreWriterLock::StoreWriterLock(const std::string& store_path) {
  if (store_path.empty()) return;
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

std::shared_ptr<ResultStore> ResultStore::open(const std::string& csv_path) {
  if (csv_path.empty()) return std::make_shared<ResultStore>("");
  OpenStores& stores = open_stores();
  std::unique_lock<std::mutex> lock(stores.mutex);
  while (true) {
    const auto it = stores.live.find(csv_path);
    if (it == stores.live.end()) break;
    if (auto store = it->second.lock()) return store;
    stores.closed.wait(lock);  // the last holder is closing it right now
  }
  std::shared_ptr<ResultStore> store(
      new ResultStore(csv_path), [&stores](ResultStore* closing) {
        const std::lock_guard<std::mutex> guard(stores.mutex);
        stores.live.erase(closing->csv_path());
        delete closing;
        stores.closed.notify_all();
      });
  stores.live.emplace(csv_path, store);
  return store;
}

ResultStore::ResultStore(std::string csv_path)
    : csv_path_(std::move(csv_path)), lock_(csv_path_) {
  if (csv_path_.empty()) return;
  // Registered up front, so a process that opened a persisted store
  // reports its writes as 0 rather than leaving the counters out.
  metrics::counter("store.appends");
  metrics::counter("store.flushes");
  // An interrupted run may leave a torn final row, which must not prevent
  // the resume it exists to enable: the tear is cut off and its cell simply
  // re-evaluates. Other malformed rows are skipped by the tolerant reader.
  truncate_torn_tail(csv_path_);
  for (const RawStoreEntry& entry : read_store_entries(csv_path_)) {
    entries_[entry.key] = std::strtod(entry.value.c_str(), nullptr);
  }
}

std::optional<double> ResultStore::lookup(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool ResultStore::contains(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(key) > 0;
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t ResultStore::put(
    const std::vector<std::pair<std::string, double>>& entries) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const std::pair<std::string, double>*> rows;  // to append
  for (const auto& entry : entries) {
    const auto [it, inserted] = entries_.emplace(entry);
    if (inserted) {
      rows.push_back(&entry);
      continue;
    }
    const std::string held = format_value(it->second);
    const std::string sent = format_value(entry.second);
    if (held == sent) continue;  // already stored: written once
    for (const auto* row : rows) entries_.erase(row->first);
    throw std::runtime_error(
        "safelight: store conflict on key '" + entry.first + "': '" +
        (csv_path_.empty() ? "<in-memory>" : csv_path_) + "' has value " +
        held + " but a put sent " + sent +
        " (evaluation must be deterministic; refusing to poison the store)");
  }

  // The fault::ptp points sit at the nastiest byte boundaries a crash can
  // hit; the mid-row flushes that make the torn state real are taken only
  // when injection is armed, so the normal path keeps its single flush.
  if (csv_path_.empty() || rows.empty()) return rows.size();
  static metrics::Counter& appends = metrics::counter("store.appends");
  appends.add(rows.size());
  const bool fresh = !std::filesystem::exists(csv_path_);
  std::ofstream out(csv_path_, std::ios::app);
  if (!out) return rows.size();
  if (fresh) {
    out << "key,accuracy\n";
    if (fault::armed()) out.flush();
    fault::ptp("store.csv.create");  // crash: header-only file
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    out << rows[r]->first << ',';
    if (r + 1 == rows.size()) {
      if (fault::armed()) out.flush();
      fault::ptp("store.csv.append");  // crash: torn row (key, no value)
    }
    out << format_value(rows[r]->second) << '\n';
  }
  out.flush();
  fault::ptp("store.csv.flush");  // crash: every row fully durable
  static metrics::Counter& flushes = metrics::counter("store.flushes");
  flushes.add(rows.size());  // rows made durable
  return rows.size();
}

}  // namespace safelight::core
