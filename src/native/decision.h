// Per-iteration kernel-family selection for the native backend.
//
// The calibrated push/pull choice itself is made by the audited
// runtime::DecisionEngine — the same thresholds over the same frontier
// density features in both exec modes, so the decision_audit section of a
// native run is byte-identical to the sim run's and cosparse-lint's
// tree-coverage pass keeps working unchanged. This class maps the audited
// SW decision onto the native kernel family (IP -> row-parallel pull SpMV,
// OP -> column-merge push SpMSpV) and keeps the running tally that the run
// report's "native" section publishes.
#pragma once

#include <cstdint>

#include "common/json.h"

namespace cosparse::native {

enum class KernelKind : std::uint8_t {
  kPull,  ///< dense-frontier CSR-style pull SpMV (IP dataflow)
  kPush,  ///< sparse-frontier CSC-style push SpMSpV (OP dataflow)
};

[[nodiscard]] inline const char* to_string(KernelKind k) {
  return k == KernelKind::kPull ? "pull" : "push";
}

class DecisionEngine {
 public:
  /// `pull_decided` is the audited SW decision (sw == kIP).
  KernelKind select(bool pull_decided) {
    const KernelKind k = pull_decided ? KernelKind::kPull : KernelKind::kPush;
    if (k == KernelKind::kPull) {
      ++pulls_;
    } else {
      ++pushes_;
    }
    return k;
  }

  [[nodiscard]] std::uint64_t pulls() const { return pulls_; }
  [[nodiscard]] std::uint64_t pushes() const { return pushes_; }

  [[nodiscard]] Json to_json() const {
    Json o = Json::object();
    o["pull_iterations"] = pulls_;
    o["push_iterations"] = pushes_;
    return o;
  }

 private:
  std::uint64_t pulls_ = 0;
  std::uint64_t pushes_ = 0;
};

}  // namespace cosparse::native
