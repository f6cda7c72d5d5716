#include "runtime/report.h"

#include <utility>

#include "native/exec_mode.h"
#include "native/simd.h"
#include "obs/telemetry.h"
#include "sim/profile.h"

namespace cosparse::runtime {

obs::Report make_run_report(const Engine& eng, std::string tool) {
  obs::Report rep(std::move(tool));
  const sim::Machine& m = eng.machine();

  const bool is_native = eng.exec_mode() == native::ExecMode::kNative;

  Json config = eng.system().to_json();
  Json opts = Json::object();
  opts["exec_mode"] = std::string(native::to_string(eng.exec_mode()));
  opts["sw_reconfig"] = eng.options().sw_reconfig;
  opts["hw_reconfig"] = eng.options().hw_reconfig;
  opts["fixed_sw"] = to_string(eng.options().fixed_sw);
  if (eng.options().fixed_hw.has_value()) {
    opts["fixed_hw"] = sim::to_string(*eng.options().fixed_hw);
  }
  opts["nnz_balanced"] = eng.options().nnz_balanced;
  opts["vblocked"] = eng.options().vblocked;
  config["engine"] = std::move(opts);
  rep.set("config", std::move(config));

  Json iters = Json::array();
  for (const IterationRecord& rec : eng.iterations()) {
    iters.push_back(to_json(rec));
  }
  rep.set("iterations", std::move(iters));

  rep.set("decision_audit", eng.audit().to_json());

  if (is_native) {
    // No cycle model: the stats/tile_stats/derived/totals/memory_profile
    // sections would all be zeros, so they are omitted entirely —
    // cosparse-prof annotates their absence as "(native mode: no cycle
    // model)" instead of erroring. The "native" section records what ran.
    Json nat = eng.native_decisions().to_json();
    nat["simd"] = std::string(native::to_string(native::simd_level()));
    rep.set("native", std::move(nat));
  } else {
    rep.set("stats", m.stats().to_json());
    Json tiles = Json::array();
    for (const sim::Stats& ts : m.tile_stats()) tiles.push_back(ts.to_json());
    rep.set("tile_stats", std::move(tiles));

    Json derived = m.stats().derived_json();
    derived["load_imbalance"] = m.load_imbalance();
    rep.set("derived", std::move(derived));

    Json totals = Json::object();
    totals["cycles"] = m.cycles();
    totals["energy_pj"] = m.energy_pj();
    totals["watts"] = m.watts();
    totals["iterations"] = eng.iterations().size();
    rep.set("totals", std::move(totals));

    if (m.profiler() != nullptr) {
      rep.set("memory_profile", m.profiler()->to_json());
    }
  }

  // Telemetry is wall-clock-bearing, so it lives in its own section that
  // obs::results_subset() strips for the bit-neutrality comparison.
  if (eng.telemetry() != nullptr) {
    rep.set("telemetry", eng.telemetry()->report_json());
  }
  return rep;
}

}  // namespace cosparse::runtime
