// Thread-safe, incrementally persisted key -> accuracy store.
//
// The cell-sweep engine records one entry per store key of a cell (for a
// scenario, AttackScenario::id() plus the evaluation subset size),
// mirroring the ModelZoo's on-disk cache discipline: entries are appended
// to a CSV file and flushed immediately, so an interrupted sweep resumes
// from whatever made it to disk instead of restarting. Every writer of a
// process (the sweeps, the dist coordinator, the serve slots) shares one
// instance per file through ResultStore::open, under one put() rule.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace safelight::core {

/// Advisory single-writer lock on one store file: `<path>.lock` holds the
/// owner's pid. Cache directories have one live writer per store file by
/// contract; before this lock existed, a second accidental writer silently
/// interleaved rows. Construction fails fast (std::runtime_error naming the
/// live pid) on contention; a lock file left behind by a dead process —
/// crashed writers never run destructors — is taken over with a warning.
/// Advisory and same-host only: liveness is probed with kill(pid, 0), so a
/// recycled pid can hold a takeover back until that process exits.
class StoreWriterLock {
 public:
  /// Acquires `<store_path>.lock`; throws std::runtime_error when another
  /// live process holds it. An empty path takes no lock.
  explicit StoreWriterLock(const std::string& store_path);
  ~StoreWriterLock();
  StoreWriterLock(const StoreWriterLock&) = delete;
  StoreWriterLock& operator=(const StoreWriterLock&) = delete;

 private:
  std::string lock_path_;  // empty = disengaged
};

/// One raw store row: the key and the value bytes exactly as written (the
/// value is not parsed here).
struct RawStoreEntry {
  std::string key;
  std::string value;
};

/// Tolerant read of a result-store CSV written by ResultStore (or a crashed
/// one): header, malformed and torn-tail rows are skipped, later duplicates
/// of a key win (files from before the write-once rule may hold them; a
/// ResultStore loads them the same way). Returns rows
/// in (deduplicated) file order; a missing file reads as empty. Read-only —
/// never truncates or locks, so coordinators can inspect a store another
/// process owns.
std::vector<RawStoreEntry> read_store_entries(const std::string& csv_path);

/// Append-only result cache shared by every writer of one store file.
///
/// All members are safe to call concurrently. Persistence is optional:
/// an empty `csv_path` keeps the store purely in memory (tests, ablations
/// whose corruption config changes per run, a dist worker staging one
/// cell's rows). The store.* metrics count persisted stores only, so a
/// fleet's counters match an in-process run's.
class ResultStore {
 public:
  /// The process's live store for `csv_path`: while anyone holds one,
  /// every open of the path returns that instance (one writer lock, one
  /// row map, one file); after the last release a later open reads the
  /// file afresh. An empty path gets a private in-memory store.
  static std::shared_ptr<ResultStore> open(const std::string& csv_path);

  /// Opens a private instance (writers share one through open()). When
  /// `csv_path` names an existing file written by a previous (possibly
  /// interrupted) run, its rows are loaded so lookups hit instead of
  /// re-evaluating; malformed rows (e.g. a torn final line from a
  /// mid-write kill) are skipped, not fatal. Every durable write carries
  /// fault::ptp crash points (see common/fault.hpp); the
  /// resume-after-any-crash contract is proven by
  /// tests/fault_injection_test.cpp.
  explicit ResultStore(std::string csv_path);

  /// Value stored under `key`, or nullopt when missing.
  std::optional<double> lookup(const std::string& key) const;

  /// True when `key` has a stored value.
  bool contains(const std::string& key) const;

  /// Stores `key` and appends the entry to the backing CSV file, flushing
  /// so the entry survives an interrupt. A key already held with the same
  /// value bytes is not appended again; one held with different bytes
  /// throws std::runtime_error naming the key, the store and both values.
  /// Disk write failures are swallowed: the store is an optimization and
  /// must never fail an experiment.
  void put(const std::string& key, double value) { put({{key, value}}); }

  /// Puts every entry, by the same rule, as one durable append: a crash
  /// leaves complete leading rows plus at most a torn last row. A cell
  /// filling many keys puts them this way, so crash-retry costs one write
  /// per cell, not key. A conflict on any entry stores none of them.
  /// Returns how many entries were new (rows appended; held keys are not).
  std::size_t put(const std::vector<std::pair<std::string, double>>& entries);

  /// Number of entries currently held (loaded + inserted).
  std::size_t size() const;

  const std::string& csv_path() const { return csv_path_; }

 private:
  mutable std::mutex mutex_;
  std::string csv_path_;  // empty = in-memory only
  StoreWriterLock lock_;  // held while csv_path_ is non-empty
  std::unordered_map<std::string, double> entries_;
};

}  // namespace safelight::core
