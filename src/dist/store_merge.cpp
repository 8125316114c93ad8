#include "dist/store_merge.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "common/fault.hpp"
#include "core/result_store.hpp"

namespace safelight::dist {

MergeStats merge_stores(const std::vector<std::string>& source_csvs,
                        const std::string& dest_csv) {
  MergeStats stats;
  // Exclusive writer for the whole merge: a concurrent sweep appending to
  // the canonical store mid-merge would interleave rows unpredictably.
  core::StoreWriterLock lock(dest_csv);
  // A coordinator killed mid-merge leaves a torn row in the destination.
  core::truncate_torn_tail(dest_csv);

  // key -> value bytes already durable in the destination (or appended
  // earlier in this merge) — the conflict/dedup baseline.
  std::unordered_map<std::string, std::string> merged;
  for (auto& entry : core::read_store_entries(dest_csv)) {
    merged.emplace(std::move(entry.key), std::move(entry.value));
  }

  std::ofstream out;  // opened lazily: a no-op merge must not create files
  for (const std::string& source : source_csvs) {
    if (!std::filesystem::exists(source)) continue;
    ++stats.sources;
    for (auto& entry : core::read_store_entries(source)) {
      const auto it = merged.find(entry.key);
      if (it != merged.end()) {
        if (it->second != entry.value) {
          throw std::runtime_error(
              "safelight: store merge conflict on key '" + entry.key +
              "': '" + dest_csv + "' has value " + it->second + " but '" +
              source + "' has value " + entry.value +
              " (evaluation must be deterministic; refusing to poison the "
              "canonical store)");
        }
        ++stats.duplicates;
        continue;
      }
      if (!out.is_open()) {
        const bool fresh = !std::filesystem::exists(dest_csv) ||
                           std::filesystem::file_size(dest_csv) == 0;
        out.open(dest_csv, std::ios::app | std::ios::binary);
        if (fresh && out) out << "key,accuracy\n";
      }
      out << entry.key << ',' << entry.value << '\n';
      out.flush();
      fault::ptp("store.merge.append");  // crash: this row durable, rest not
      merged.emplace(std::move(entry.key), std::move(entry.value));
      ++stats.appended;
    }
  }
  return stats;
}

}  // namespace safelight::dist
