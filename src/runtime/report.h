// Run-report assembly for Engine-based runs.
//
// make_run_report() snapshots everything an Engine knows — system config,
// per-iteration records, decision audit, global and per-tile simulator
// stats, derived rates, totals and any attached telemetry — into one
// cosparse.run_report/v1 document (schema in DESIGN.md §8). Callers add
// tool-specific sections ("dataset", "tables", ...) on top and write().
#pragma once

#include <string>

#include "obs/report.h"
#include "runtime/engine.h"

namespace cosparse::runtime {

/// Builds a report from the engine's current state. `tool` names the
/// producing binary (e.g. "quickstart"). Per-tile stats are included such
/// that their element-wise sum equals the "stats" section exactly.
[[nodiscard]] obs::Report make_run_report(const Engine& eng, std::string tool);

}  // namespace cosparse::runtime
