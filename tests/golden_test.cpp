// Golden-file regression tests: tiny-scale CSV/JSON content is checked in
// under tests/golden/ and must regenerate byte-identically. The whole stack
// under the published numbers — synthetic data, training, conditioning, the
// packed GEMM, the prefix-activation cache, the thread-pool fan-out,
// detector scoring — is deterministic by contract; these tests turn that
// contract into a tripwire, so a kernel, cache or threading change can
// never silently shift the figures again.
//
// All documents are produced through ExperimentResult::to_csv()/to_json()
// (core/experiment.hpp) — the exact code path of the `safelight` CLI — so
// these goldens also pin the CLI's output files.
//
// To regenerate after an *intentional* numbers change:
//   SAFELIGHT_UPDATE_GOLDEN=1 ctest -R Golden
// and commit the diff under tests/golden/ with the explanation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/config.hpp"
#include "common/fault.hpp"
#include "core/experiment.hpp"
#include "test_util.hpp"

#ifndef SAFELIGHT_GOLDEN_DIR
#error "SAFELIGHT_GOLDEN_DIR must point at tests/golden"
#endif

namespace safelight {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(SAFELIGHT_GOLDEN_DIR) + "/" + name;
}

/// Compares `content` against the checked-in golden file byte for byte.
/// With SAFELIGHT_UPDATE_GOLDEN=1 the file is (re)written instead — the
/// explicit opt-in for intentional numbers changes. A non-integer value
/// (e.g. "yes") throws, failing the test instead of silently comparing.
void expect_matches_golden(const std::string& content,
                           const std::string& name) {
  const std::string path = golden_path(name);
  if (config::strict_env_int("SAFELIGHT_UPDATE_GOLDEN").value_or(0) != 0) {
    std::filesystem::create_directories(SAFELIGHT_GOLDEN_DIR);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    fault::ptp("golden.update.write");  // crash: truncated golden file
    out << content;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (generate with SAFELIGHT_UPDATE_GOLDEN=1)";
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  // EXPECT_EQ on the full strings would dump both files on mismatch; find
  // the first differing line for a readable failure instead.
  if (content == golden) return;
  std::istringstream got(content);
  std::istringstream want(golden);
  std::string got_line, want_line;
  std::size_t line = 0;
  while (true) {
    ++line;
    const bool has_got = static_cast<bool>(std::getline(got, got_line));
    const bool has_want = static_cast<bool>(std::getline(want, want_line));
    if (!has_got && !has_want) break;
    if (!has_got) got_line = "<eof>";
    if (!has_want) want_line = "<eof>";
    ASSERT_EQ(got_line, want_line)
        << name << " diverges at line " << line
        << " — if the change is intentional, regenerate with "
           "SAFELIGHT_UPDATE_GOLDEN=1 and commit the diff";
  }
  FAIL() << name << " differs from the regenerated content";
}

/// Renders the documents of one result exactly as the `safelight` CLI
/// writes them: header row, then data rows; multiple documents of one
/// experiment concatenate in emission order.
std::string render_csv(const core::ExperimentResult& result) {
  std::string out;
  for (const core::CsvDocument& doc : result.to_csv()) {
    for (std::size_t c = 0; c < doc.header.size(); ++c) {
      if (c != 0) out += ',';
      out += doc.header[c];
    }
    out += '\n';
    for (const auto& row : doc.rows) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c != 0) out += ',';
        out += row[c];
      }
      out += '\n';
    }
  }
  return out;
}

core::ExperimentSpec tiny_spec(const std::string& experiment,
                               const std::string& cache_dir) {
  core::ExperimentSpec spec =
      core::ExperimentRegistry::global().default_spec(experiment);
  spec.model = nn::ModelId::kCnn1;
  spec.scale = Scale::kTiny;
  spec.cache_dir = cache_dir;
  return spec;
}

TEST(Golden, Fig7SusceptibilityCnn1Tiny) {
  TempDir dir("golden_fig7");
  core::ModelZoo zoo(dir.path());
  core::RunContext context(zoo);
  core::ExperimentSpec spec = tiny_spec("susceptibility", dir.path());
  spec.seed_count = 2;
  const core::ExperimentResult result =
      core::ExperimentRegistry::global().run(spec, context);

  // Exactly the fig7_susceptibility.csv content a
  // `safelight run susceptibility --model cnn1` writes at this spec.
  expect_matches_golden(render_csv(result), "fig7_cnn1_tiny.csv");

  // The JSON document of the same run (`--json`), pinning the full
  // serialization stack: writer layout, escaping, number formatting.
  expect_matches_golden(result.to_json(), "susceptibility_cnn1_tiny.json");
}

TEST(Golden, FigDetectionCnn1Tiny) {
  TempDir dir("golden_fig_detection");
  core::ModelZoo zoo(dir.path());
  core::RunContext context(zoo);
  core::ExperimentSpec spec = tiny_spec("detection", dir.path());
  spec.seed_count = 1;
  spec.clean_runs = 3;
  const core::ExperimentResult result =
      core::ExperimentRegistry::global().run(spec, context);

  // fig_detection.csv + fig_detection_roc.csv, concatenated in emission
  // order — the score rows and the ROC curves assembled from them.
  expect_matches_golden(render_csv(result), "fig_detection_cnn1_tiny.csv");
}

TEST(Golden, FigCampaignCnn1Tiny) {
  TempDir dir("golden_fig_campaign");
  core::ModelZoo zoo(dir.path());
  core::RunContext context(zoo);
  // Empty spec.campaigns selects attack::standard_campaigns() — the same
  // red-team set `safelight run campaign` sweeps.
  const core::ExperimentSpec spec = tiny_spec("campaign", dir.path());
  const core::ExperimentResult result =
      core::ExperimentRegistry::global().run(spec, context);

  // fig_campaign_phases.csv + fig_campaign.csv, concatenated in emission
  // order — per-phase accuracies and the raw per-check detector scores.
  expect_matches_golden(render_csv(result), "fig_campaign_cnn1_tiny.csv");
}

}  // namespace
}  // namespace safelight
