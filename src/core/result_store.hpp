// Thread-safe, incrementally persisted key -> accuracy store.
//
// The cell-sweep engine records one entry per store key of a cell (for a
// scenario, AttackScenario::id() plus the evaluation subset size),
// mirroring the ModelZoo's on-disk cache discipline: entries are appended
// to a CSV file and flushed immediately, so an interrupted sweep resumes
// from whatever made it to disk instead of restarting.
#pragma once

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
  /// Disengaged (no file, nothing released on destruction).
  StoreWriterLock() = default;
  /// Acquires `<store_path>.lock`; throws std::runtime_error when another
  /// live process holds it.
  explicit StoreWriterLock(const std::string& store_path);
  ~StoreWriterLock();

  StoreWriterLock(StoreWriterLock&& other) noexcept;
  StoreWriterLock& operator=(StoreWriterLock&& other) noexcept;
  StoreWriterLock(const StoreWriterLock&) = delete;
  StoreWriterLock& operator=(const StoreWriterLock&) = delete;

  bool engaged() const { return !lock_path_.empty(); }

 private:
  std::string lock_path_;  // empty = disengaged
};

/// One raw store row: the key and the value bytes exactly as written.
/// Multi-writer merging compares raw value bytes (a byte mismatch on the
/// same key is a conflict), so the value is not parsed here.
struct RawStoreEntry {
  std::string key;
  std::string value;
};

/// Tolerant read of a result-store CSV written by ResultStore (or a crashed
/// one): header, malformed and torn-tail rows are skipped, later duplicates
/// of a key win (matching ResultStore's overwrite semantics). Returns rows
/// in (deduplicated) file order; a missing file reads as empty. Read-only —
/// never truncates or locks, so coordinators can inspect a store another
/// process owns.
std::vector<RawStoreEntry> read_store_entries(const std::string& csv_path);

/// Cuts a result-store CSV back to its last complete ('\n'-terminated)
/// row. Every complete row ends with '\n', so an unterminated tail is a
/// tear left by a writer killed mid-append, and a later append must not
/// extend it into a corrupt row. Writers call this before appending
/// (ResultStore on open, dist's store merge); a missing file is left alone.
void truncate_torn_tail(const std::string& csv_path);

/// Append-only result cache shared by the pipeline's worker threads.
///
/// All members are safe to call concurrently. Persistence is optional:
/// an empty `csv_path` keeps the store purely in memory (tests, ablations
/// whose corruption config changes per run).
class ResultStore {
 public:
  /// Opens the store. When `csv_path` names an existing file written by a
  /// previous (possibly interrupted) run, its rows are loaded so lookups
  /// hit instead of re-evaluating; malformed rows (e.g. a torn final line
  /// from a mid-write kill) are skipped, not fatal. Opening also
  /// sweeps (deletes, with a warning) orphaned `*.tmp` staging files a
  /// crashed writer left in the store's directory — cache directories have
  /// one live writer by contract. Every durable write carries fault::ptp
  /// crash points (see common/fault.hpp); the resume-after-any-crash
  /// contract is proven by tests/fault_injection_test.cpp.
  explicit ResultStore(std::string csv_path);

  /// Value stored under `key`, or nullopt when missing.
  std::optional<double> lookup(const std::string& key) const;

  /// True when `key` has a stored value.
  bool contains(const std::string& key) const;

  /// Inserts (or overwrites) `key` and appends the entry to the backing
  /// CSV file, flushing so the entry survives an interrupt.
  /// Disk write failures are swallowed: the store is an optimization and
  /// must never fail an experiment.
  void put(const std::string& key, double value);

  /// Puts every entry as one durable append: a crash leaves complete
  /// leading rows plus at most a torn last row. A cell filling many keys
  /// puts them this way, so crash-retry costs one write per cell, not key.
  void put(const std::vector<std::pair<std::string, double>>& entries);

  /// Number of entries currently held (loaded + inserted).
  std::size_t size() const;

  const std::string& csv_path() const { return csv_path_; }

 private:
  mutable std::mutex mutex_;
  std::string csv_path_;  // empty = in-memory only
  StoreWriterLock lock_;  // engaged while csv_path_ is non-empty
  std::unordered_map<std::string, double> entries_;
};

}  // namespace safelight::core
