// Crash-consistency harness: pulls the plug at every named fault point of
// the `safelight` CLI's durable-write paths and proves the resume contract.
//
// For each point the harness spawns a child `safelight run` armed with
// --fault-mode run_length --fault-n 1 focused on that point, asserts the
// child died with fault::kPlugPulledExitCode (a simulated power cut via
// std::_Exit — no destructors, no flushing), reruns the identical command
// uninterrupted, and asserts the resumed run's CSV/JSON outputs are
// bitwise-identical to a never-crashed reference run. A counting run
// (independent mode, probability 0) first enumerates the live
// instrumentation surface, so a fault point that silently stops being
// reached fails the suite ("no dead instrumentation").
//
// These tests run child processes and whole (tiny) sweeps; they carry the
// `fault` ctest label and stay out of the unit shard. See docs/testing.md.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "test_util.hpp"

namespace safelight {
namespace {

/// Every fault point a tiny `safelight run susceptibility --json` must hit.
/// Keep in sync with the fault-point table in docs/testing.md; the counting
/// run asserts equality in BOTH directions, so adding a ptp() site to a
/// CLI-reachable durable write means adding it here (and a removal or a
/// dead point fails the suite).
const std::set<std::string> kCliReachablePoints = {
    "store.csv.create",      "store.csv.append",   "store.csv.flush",
    "zoo.entry.train_save",  "nn.serialize.tmp_write",
    "nn.serialize.rename",   "nn.serialize.committed",
    "out.csv.create",        "out.csv.row",        "cli.json.write",
};

struct CliResult {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A crashed or wedged child must never hang the whole suite; everything a
/// fault test spawns waits at most this long before a SIGKILL + diagnosis.
constexpr double kChildTimeoutSeconds = 120.0;

/// Runs the real CLI binary as a child process on the tiniest deterministic
/// experiment (susceptibility, cnn1, tiny scale, 1 seed, 1 thread), with
/// zoo and output directories under `dir`. `extra` appends whitespace-
/// separated flag text (e.g. fault flags); `env_prefix` holds whitespace-
/// separated KEY=value environment assignments. The wait is bounded
/// (kChildTimeoutSeconds): a hung child is SIGKILLed and reported with its
/// captured output instead of wedging ctest.
CliResult run_cli(const std::string& dir, const std::string& label,
                  const std::string& extra = "",
                  const std::string& env_prefix = "") {
  std::vector<std::string> argv = {
      SAFELIGHT_CLI_BIN, "run",   "susceptibility",
      "--model",         "cnn1",  "--scale",
      "tiny",            "--seeds", "1",
      "--threads",       "1",     "--zoo",
      dir + "/zoo",      "--out", dir + "/out",
      "--json"};
  std::istringstream extra_in(extra);
  for (std::string token; extra_in >> token;) argv.push_back(token);
  std::vector<std::string> env;
  std::istringstream env_in(env_prefix);
  for (std::string token; env_in >> token;) env.push_back(token);

  const ProcessResult proc =
      run_process(argv, env, dir, kChildTimeoutSeconds);
  CliResult result;
  result.exit_code = proc.timed_out ? -1 : proc.exit_code;
  result.stdout_text = proc.stdout_text;
  result.stderr_text = proc.stderr_text;
  if (proc.timed_out) {
    result.stderr_text +=
        "\n[test] child '" + label + "' exceeded " +
        std::to_string(kChildTimeoutSeconds) +
        "s and was SIGKILLed; captured output above";
  }
  return result;
}

/// Parses the per-point hit counters out of fault::report() lines on
/// stderr: "[fault]   <point> hits=<n>".
std::map<std::string, std::uint64_t> parse_hit_counters(
    const std::string& stderr_text) {
  std::map<std::string, std::uint64_t> hits;
  std::istringstream in(stderr_text);
  std::string line;
  const std::string prefix = "[fault]   ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t eq = line.rfind(" hits=");
    if (eq == std::string::npos) continue;
    const std::string point = line.substr(prefix.size(), eq - prefix.size());
    hits[point] = std::stoull(line.substr(eq + 6));
  }
  return hits;
}

/// The durable artifacts a run leaves in `<dir>/out`, keyed by file name.
std::map<std::string, std::string> output_bytes(const std::string& dir) {
  return {
      {"fig7_susceptibility.csv",
       read_file(dir + "/out/fig7_susceptibility.csv")},
      {"susceptibility_cnn1.json",
       read_file(dir + "/out/susceptibility_cnn1.json")},
  };
}

/// A counting run: armed (so every ptp() site reports) but with plug
/// probability zero, so nothing ever fires and the run completes.
CliResult counting_run(const std::string& dir, const std::string& label) {
  return run_cli(dir, label, "--fault-mode independent");
}

TEST(FaultInjection, CountingRunEnumeratesEveryLivePoint) {
  TempDir dir("fault_counting");
  const CliResult counting = counting_run(dir.path(), "counting");
  ASSERT_EQ(counting.exit_code, 0) << counting.stderr_text;
  const auto hits = parse_hit_counters(counting.stderr_text);

  std::set<std::string> seen;
  for (const auto& [point, count] : hits) {
    EXPECT_GE(count, 1u) << "reported point with zero hits: " << point;
    seen.insert(point);
  }
  // Exact equality both ways: a missing point is dead instrumentation, an
  // extra point is an undocumented durable write.
  EXPECT_EQ(seen, kCliReachablePoints) << counting.stderr_text;
}

TEST(FaultInjection, EveryPointCrashThenResumeIsBitwiseIdentical) {
  TempDir ref_dir("fault_reference");
  const CliResult reference = run_cli(ref_dir.path(), "reference");
  ASSERT_EQ(reference.exit_code, 0) << reference.stderr_text;
  const auto reference_outputs = output_bytes(ref_dir.path());
  for (const auto& [file, bytes] : reference_outputs) {
    ASSERT_FALSE(bytes.empty()) << "reference run produced no " << file;
  }

  for (const std::string& point : kCliReachablePoints) {
    SCOPED_TRACE("fault point: " + point);
    TempDir dir("fault_point");

    const CliResult crash = run_cli(
        dir.path(), "crash",
        "--fault-mode run_length --fault-point " + point + " --fault-n 1");
    EXPECT_EQ(crash.exit_code, fault::kPlugPulledExitCode)
        << crash.stderr_text;
    EXPECT_NE(crash.stderr_text.find("pulling the plug at '" + point + "'"),
              std::string::npos)
        << crash.stderr_text;

    const CliResult resume = run_cli(dir.path(), "resume");
    ASSERT_EQ(resume.exit_code, 0) << resume.stderr_text;
    EXPECT_EQ(output_bytes(dir.path()), reference_outputs);
  }
}

TEST(FaultInjection, MidSweepCrashResumesWithoutReevaluating) {
  // Count how often the store append point fires in a full run, then crash
  // halfway through the sweep rather than on the first row.
  TempDir count_dir("fault_midsweep_count");
  const CliResult counting = counting_run(count_dir.path(), "counting");
  ASSERT_EQ(counting.exit_code, 0) << counting.stderr_text;
  const auto hits = parse_hit_counters(counting.stderr_text);
  ASSERT_TRUE(hits.count("store.csv.append"));
  const std::uint64_t appends = hits.at("store.csv.append");
  ASSERT_GE(appends, 2u) << "sweep too small for a mid-run crash";
  const std::uint64_t crash_at = appends / 2 + 1;

  TempDir dir("fault_midsweep");
  const CliResult crash =
      run_cli(dir.path(), "crash",
              "--fault-mode run_length --fault-point store.csv.append "
              "--fault-n " +
                  std::to_string(crash_at));
  ASSERT_EQ(crash.exit_code, fault::kPlugPulledExitCode) << crash.stderr_text;

  // The crashed run left a torn final CSV row (key without value); the
  // resumed run must load the completed prefix, finish the sweep, and land
  // on the same bytes as the uninterrupted reference.
  const CliResult resume = run_cli(dir.path(), "resume");
  ASSERT_EQ(resume.exit_code, 0) << resume.stderr_text;
  EXPECT_EQ(output_bytes(dir.path()), output_bytes(count_dir.path()));
}

TEST(FaultInjection, UniformModeIsDeterministicUnderOneSeed) {
  // uniform draws the crash hit from [1, n] at init time; the same
  // SAFELIGHT_FAULT_SEED must reproduce the identical crash site.
  const std::string flags =
      "--fault-mode uniform --fault-point store.csv.append --fault-n 3";
  auto plug_line = [](const std::string& stderr_text) {
    const std::size_t begin = stderr_text.find("[fault] pulling the plug");
    if (begin == std::string::npos) return std::string();
    const std::size_t end = stderr_text.find('\n', begin);
    return stderr_text.substr(begin, end - begin);
  };

  TempDir dir_a("fault_uniform_a");
  TempDir dir_b("fault_uniform_b");
  const CliResult a =
      run_cli(dir_a.path(), "crash", flags, "SAFELIGHT_FAULT_SEED=7");
  const CliResult b =
      run_cli(dir_b.path(), "crash", flags, "SAFELIGHT_FAULT_SEED=7");
  ASSERT_EQ(a.exit_code, fault::kPlugPulledExitCode) << a.stderr_text;
  ASSERT_EQ(b.exit_code, fault::kPlugPulledExitCode) << b.stderr_text;
  ASSERT_FALSE(plug_line(a.stderr_text).empty()) << a.stderr_text;
  EXPECT_EQ(plug_line(a.stderr_text), plug_line(b.stderr_text));
}

}  // namespace
}  // namespace safelight
