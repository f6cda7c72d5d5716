// The self-scan acceptance test: `cosparse-lint code` run over this
// very repository must be clean — no errors, no warnings beyond the
// accepted set — with every legacy telemetry clock read surfaced as a
// waived info finding and the SampleProfiler SIGPROF handler proven
// against the async-signal-safe allowlist. This is the same gate CI
// runs via the cosparse-lint binary; keeping it in ctest means a local
// `ctest` catches a hazard before the push.
#include "analyze/code_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace cosparse::analyze {
namespace {

using verify::Finding;
using verify::LintReport;
using verify::Severity;

const LintReport& self_report() {
  static const LintReport report = [] {
    const std::string db =
        std::string(COSPARSE_BINARY_ROOT) + "/compile_commands.json";
    return lint_code({COSPARSE_SOURCE_ROOT,
                      std::filesystem::exists(db) ? db : std::string()});
  }();
  return report;
}

TEST(SelfScan, RepositoryIsCleanUnderStrictGate) {
  const LintReport& r = self_report();
  EXPECT_EQ(r.count(Severity::kError), 0u) << r.to_json().dump(2);
  // --strict promotes warnings; the only tolerated warning is the
  // missing-compile-db degradation when the build didn't export one.
  for (const Finding& f : r.findings()) {
    if (f.severity == Severity::kWarning)
      EXPECT_EQ(f.id, "code.compile-db-missing") << f.message;
  }
}

TEST(SelfScan, SigprofHandlerIsWalked) {
  const LintReport& r = self_report();
  const auto it = std::find_if(
      r.findings().begin(), r.findings().end(),
      [](const Finding& f) { return f.id == "signal.root"; });
  ASSERT_NE(it, r.findings().end());
  EXPECT_NE(it->message.find("cosparse_sigprof_handler"), std::string::npos);
  EXPECT_EQ(it->location.name.rfind("src/obs/sampler.cpp:", 0), 0u);
}

TEST(SelfScan, TelemetryClockReadsAreWaivedNotSilent) {
  // The 6 legacy wall-clock sites (runtime/engine.h,
  // graph/algorithms.cpp) are telemetry-only and bit-neutral; they must
  // appear as explicit allow(...) infos, not vanish.
  const LintReport& r = self_report();
  const auto waived = static_cast<std::size_t>(std::count_if(
      r.findings().begin(), r.findings().end(),
      [](const Finding& f) { return f.id == "determinism.allowed"; }));
  EXPECT_GE(waived, 6u);
}

TEST(SelfScan, KernelTusCarryContractOffWhenDbPresent) {
  const std::string db =
      std::string(COSPARSE_BINARY_ROOT) + "/compile_commands.json";
  if (!std::filesystem::exists(db)) {
    GTEST_SKIP() << "build did not export compile_commands.json";
  }
  const LintReport& r = self_report();
  for (const Finding& f : r.findings()) {
    EXPECT_NE(f.id, "fp.contract-missing") << f.location.name;
    EXPECT_NE(f.id, "fp.fast-math") << f.location.name;
  }
}

}  // namespace
}  // namespace cosparse::analyze
