// Compute-backend registry contract (nn/backend.hpp): registration order,
// name resolution through config precedence, the CLI error path for a bogus
// --backend, and the kernel fingerprint that conforming variants must share.
// The bitwise per-variant kernel matrix lives in gemm_equivalence_test.cpp;
// this file covers the dispatch machinery around it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "cli/cli.hpp"
#include "common/config.hpp"
#include "nn/backend.hpp"

namespace safelight::nn::backend {
namespace {

TEST(BackendRegistry, ScalarIsAlwaysRegisteredAndSupported) {
  const auto& backends = registered();
  ASSERT_FALSE(backends.empty());
  const ComputeBackend* scalar = nullptr;
  for (const ComputeBackend* backend : backends) {
    if (std::string(backend->name()) == "scalar") scalar = backend;
  }
  ASSERT_NE(scalar, nullptr) << "registered: " << registered_names();
  // The portable baseline must run anywhere — it is the SIGILL fix.
  EXPECT_TRUE(scalar->supported());
  EXPECT_EQ(scalar->priority(), 0);
}

TEST(BackendRegistry, RegisteredIsSortedByDescendingPriority) {
  const auto& backends = registered();
  for (std::size_t i = 1; i < backends.size(); ++i) {
    EXPECT_GT(backends[i - 1]->priority(), backends[i]->priority())
        << backends[i - 1]->name() << " vs " << backends[i]->name();
  }
  // "scalar" is the fallback, so it must sort last.
  EXPECT_STREQ(backends.back()->name(), "scalar");
}

TEST(BackendRegistry, AutoResolvesToBestSupportedVariant) {
  const ComputeBackend& picked = resolve("auto");
  EXPECT_TRUE(picked.supported());
  // Nothing supported may outrank the auto pick.
  for (const ComputeBackend* backend : registered()) {
    if (backend->supported()) {
      EXPECT_LE(backend->priority(), picked.priority()) << backend->name();
    }
  }
  // "" is the config default spelling of auto.
  EXPECT_EQ(&resolve(""), &picked);
}

TEST(BackendRegistry, UnknownNameThrowsListingTheVariants) {
  try {
    resolve("bogus");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    // Actionable: the message names every valid choice.
    EXPECT_NE(what.find("auto"), std::string::npos) << what;
    EXPECT_NE(what.find("scalar"), std::string::npos) << what;
  }
}

TEST(BackendRegistry, ScopedBackendForcesActiveAndRestores) {
  const ComputeBackend& scalar = resolve("scalar");
  const ComputeBackend& before = active();
  {
    ScopedBackend forced(scalar);
    EXPECT_EQ(&active(), &scalar);
  }
  EXPECT_EQ(&active(), &before);
}

TEST(BackendRegistry, ConfigPrecedenceSelectsActiveBackend) {
  {
    // CLI-style override beats whatever the environment says.
    config::Overrides cli;
    cli.backend = "scalar";
    config::ScopedOverrides guard(cli);
    invalidate_cache();
    EXPECT_STREQ(active().name(), "scalar");
  }
  invalidate_cache();  // drop the forced resolution now the override is gone
}

TEST(BackendRegistry, KernelFingerprintIdenticalAcrossSupportedVariants) {
  // The numerics contract, digested: every conforming variant computes the
  // probe problem bit for bit identically, so one fingerprint rules the
  // whole registry: "different fingerprint == genuinely different math".
  const std::string expected = kernel_fingerprint(resolve("scalar"));
  EXPECT_EQ(expected.size(), 16u);
  for (const ComputeBackend* backend : registered()) {
    if (!backend->supported()) continue;
    EXPECT_EQ(kernel_fingerprint(*backend), expected) << backend->name();
  }
  // The convenience overload digests the active backend.
  EXPECT_EQ(kernel_fingerprint(), expected);
}

TEST(BackendCli, BogusBackendFlagExitsTwoListingVariants) {
  config::ScopedOverrides guard(config::overrides());
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = cli::run({"run", "susceptibility", "--backend", "bogus"});
  testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
  EXPECT_NE(err.find("scalar"), std::string::npos) << err;
  invalidate_cache();  // cli::run may have cached its resolution
}

TEST(BackendCli, EnvOverrideRejectedLoudlyNotSilentlyIgnored) {
  ::setenv("SAFELIGHT_BACKEND", "quantum", 1);
  invalidate_cache();
  EXPECT_THROW(active(), std::invalid_argument);
  ::unsetenv("SAFELIGHT_BACKEND");
  invalidate_cache();
  EXPECT_NO_THROW(active());
}

}  // namespace
}  // namespace safelight::nn::backend
