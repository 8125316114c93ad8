// Multi-writer result-store merge.
//
// Workers never touch the canonical result stores: each appends to its own
// per-slot store directory, and the coordinator folds those stores into the
// canonical one here after a round completes. Merging is the only moment
// two writers' outputs meet, so this is where the multi-writer invariants
// are enforced:
//   * duplicate keys with byte-identical values deduplicate silently
//     (evaluation is deterministic, so a retried task recomputing cells a
//     dead worker already wrote, or a slot store re-merged by a later round
//     or fleet, produces exactly the same bytes);
//   * duplicate keys with differing value bytes are a hard error — that can
//     only mean non-deterministic evaluation or store corruption, and
//     either must stop the run before the canonical cache is poisoned;
//   * torn tails in worker stores (a chaos kill mid-append) are skipped by
//     the tolerant reader, never merged;
//   * the canonical store is held under its StoreWriterLock for the whole
//     merge, and appended rows reuse ResultStore's exact row format, so the
//     merged file is indistinguishable from one a single process wrote.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace safelight::dist {

struct MergeStats {
  std::size_t sources = 0;     // source files that existed and were read
  std::size_t appended = 0;    // rows newly appended to the destination
  std::size_t duplicates = 0;  // byte-identical rows already present
};

/// Merges every store in `source_csvs` (missing files are skipped) into
/// `dest_csv`, which may or may not exist yet. Acquires the destination's
/// writer lock; throws std::runtime_error when another live process holds
/// it or when two values for one key differ in bytes (the error names the
/// key, the files and both values). The destination's own torn tail (a
/// coordinator crash mid-merge) is truncated away first — the merge is
/// crash-resumable like every other durable write in SafeLight, and carries
/// a fault::ptp("store.merge.append") point to prove it.
MergeStats merge_stores(const std::vector<std::string>& source_csvs,
                        const std::string& dest_csv);

}  // namespace safelight::dist
