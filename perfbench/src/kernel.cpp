// kernel_native and sim_ramp: one Engine built during set-up, then
// repeated graph algorithms from fixed sources and the density ramp
// through Engine::spmv. Outputs are checked against reference digests
// (and, for sim_ramp, cycle counts) derived once from the cycle-accurate
// simulator and recorded in perfbench/expected.json.
#include <map>
#include <memory>
#include <numeric>

#include "bench.h"
#include "common/digest.h"
#include "graph/algorithms.h"
#include "runtime/report.h"
#include "sparse/datasets.h"
#include "sparse/generate.h"

namespace perfbench {

using namespace cosparse;

namespace {

/// Crosses the pull/push boundary both ways, so both kernels, frontier
/// conversions and hardware reconfiguration run.
constexpr double kRamp[] = {0.0008, 0.003, 0.03, 0.3, 0.9, 0.02, 0.001};
/// Ramp inputs come from this many recorded variants; the seed picks one.
constexpr std::uint32_t kVariants = 16;
constexpr Index kSource = 0;

struct KernelSpec {
  std::string name;
  std::string dataset;
  unsigned scale = 64;
  sim::SystemConfig system;
  native::ExecMode mode = native::ExecMode::kNative;
  bool sssp = true;  ///< sim_ramp skips SSSP to keep a rep short
};

KernelSpec kernel_native_spec() {
  return {"kernel_native", "livejournal", 64,
          sim::SystemConfig::transmuter(8, 8), native::ExecMode::kNative, true};
}

KernelSpec sim_ramp_spec() {
  return {"sim_ramp", "twitter", 64, sim::SystemConfig::transmuter(16, 4),
          native::ExecMode::kSim, false};
}

runtime::EngineOptions engine_options(const KernelSpec& k,
                                      std::uint32_t threads) {
  runtime::EngineOptions o;
  o.exec_mode = k.mode;
  o.sim_threads = threads;
  return o;
}

std::vector<runtime::Engine::Frontier> ramp_frontiers(Index n,
                                                      std::uint32_t variant) {
  std::vector<runtime::Engine::Frontier> out;
  std::uint64_t i = 0;
  for (const double density : kRamp) {
    out.push_back(runtime::Engine::Frontier::from_sparse(
        sparse::random_sparse_vector(n, density, 1000 * (variant + 1) + i++)));
  }
  return out;
}

/// One sweep of the density ramp through Engine::spmv; returns the digest
/// of every output. Each call gets a span named by the kernel that ran
/// (native.pull/push or sim.spmv.ip/op). When given, `call_ms` receives
/// each call's wall ms and `cycles_ms` (simulated cycles, wall ms) pairs.
std::string run_ramp(const KernelSpec& k, runtime::Engine& eng,
                     const std::vector<runtime::Engine::Frontier>& ramp,
                     Spans* spans, std::vector<double>* call_ms,
                     std::vector<double>* cycles_ms) {
  Digest d;
  const bool native = k.mode == native::ExecMode::kNative;
  for (const auto& f : ramp) {
    const Cycles c0 = eng.total_cycles();
    const auto t0 = Clock::now();
    runtime::Engine::Output out;
    {
      Spans::Scope s(spans, "ramp.spmv", 4);
      out = eng.spmv(f, kernels::PlainSpmv{});
      s.rename(native ? (out.dense ? "native.pull" : "native.push")
                      : (out.dense ? "sim.spmv.ip" : "sim.spmv.op"));
    }
    const double ms = ms_since(t0);
    if (call_ms != nullptr) call_ms->push_back(ms);
    if (cycles_ms != nullptr) {
      cycles_ms->push_back(static_cast<double>(eng.total_cycles() - c0));
      cycles_ms->push_back(ms);
    }
    d.update_u64(out.num_touched());
    out.for_each_touched([&d](Index r, Value v) {
      d.update_index(r);
      d.update_value(v);
    });
  }
  return d.hex();
}

/// Per-request wall times and output digests of one rep.
struct Rep {
  std::vector<double> query_ms;
  std::string algorithms_digest;
  std::string ramp_digest;
  std::uint64_t spmv_calls = 0;
  std::map<std::string, double> iterations;  ///< per algorithm
};

/// One rep: BFS and SSSP from kSource, PageRank, then one ramp sweep.
/// Requests are the three algorithm calls and each ramp Engine::spmv.
Rep run_rep(const KernelSpec& k, runtime::Engine& eng, const sparse::Graph& g,
            const std::vector<runtime::Engine::Frontier>& ramp, Spans* spans,
            std::vector<double>* ramp_cycles) {
  Rep rep;
  Digest alg;
  const std::size_t log0 = eng.iterations().size();
  {
    const auto t0 = Clock::now();
    graph::BfsResult r;
    {
      const Spans::Scope s(spans, "graph.bfs", 1);
      r = graph::bfs(eng, kSource);
    }
    rep.query_ms.push_back(ms_since(t0));
    rep.iterations["bfs"] = r.stats.iterations;
    for (const std::int64_t level : r.level)
      alg.update_u64(static_cast<std::uint64_t>(level));
  }
  if (k.sssp) {
    const auto t0 = Clock::now();
    graph::SsspResult r;
    {
      const Spans::Scope s(spans, "graph.sssp", 2);
      r = graph::sssp(eng, kSource);
    }
    rep.query_ms.push_back(ms_since(t0));
    rep.iterations["sssp"] = r.stats.iterations;
    for (const Value d : r.dist) alg.update_value(d);
  }
  {
    const auto t0 = Clock::now();
    graph::PageRankResult r;
    {
      const Spans::Scope s(spans, "graph.pagerank", 3);
      r = graph::pagerank(eng, g.out_degrees());
    }
    rep.query_ms.push_back(ms_since(t0));
    rep.iterations["pagerank"] = r.stats.iterations;
    for (const Value v : r.rank) alg.update_value(v);
    alg.update_value(r.residual);
  }
  // Each ramp call is its own request: a direct SpMV on a given frontier.
  rep.ramp_digest = run_ramp(k, eng, ramp, spans, &rep.query_ms, ramp_cycles);
  rep.algorithms_digest = alg.hex();
  rep.spmv_calls = eng.iterations().size() - log0;
  return rep;
}

struct Expected {
  std::string algorithms_digest;
  std::string ramp_digest;
  std::int64_t sim_cycles = -1;
};

Expected expected_for(const Options& opt, const KernelSpec& k,
                      std::uint32_t variant) {
  const Json doc = load_expected(opt.expected_path);
  const Json* w = doc.find(k.name);
  if (w == nullptr) throw Error("perfbench: expected.json lacks " + k.name);
  Expected e;
  e.algorithms_digest = w->find("algorithms_digest")->as_string();
  e.ramp_digest = w->find("ramp_digests")->at(variant).as_string();
  if (const Json* c = w->find("sim_cycles")) e.sim_cycles = c->at(variant).as_int();
  return e;
}

void run_kernel(const KernelSpec& k, const Options& opt, Result& res) {
  const std::uint32_t variant = static_cast<std::uint32_t>(opt.seed % kVariants);
  const Expected expected = expected_for(opt, k, variant);
  const bool native = k.mode == native::ExecMode::kNative;
  res.info["exec_mode"] = native::to_string(k.mode);
  res.info["system"] = k.system.name();
  res.info["dataset"] = k.dataset;
  res.info["scale"] = k.scale;
  res.info["threads"] = kThreads;
  res.info["ramp_variant"] = variant;

  // ---- set-up: dataset synthesis + Engine construction ----
  Spans spans(opt.trace);
  const sparse::DatasetRegistry registry;
  sparse::Graph g;
  std::unique_ptr<runtime::Engine> eng;
  std::vector<double> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    eng.reset();
    const auto t0 = Clock::now();
    {
      const Spans::Scope s(&spans, "sparse.dataset_load", 0);
      g = registry.load(k.dataset, k.scale, 0);
    }
    {
      const Spans::Scope s(&spans, "runtime.engine_build", 0);
      eng = std::make_unique<runtime::Engine>(g.adjacency(), k.system,
                                              engine_options(k, kThreads));
    }
    setup_ms.push_back(ms_since(t0));
  }
  res.info["edges"] = g.num_edges();
  res.info["vertices"] = g.num_vertices();
  const auto ramp = ramp_frontiers(g.num_vertices(), variant);

  // ---- timed phase (traced runs alternate untraced and traced reps) ----
  std::vector<double> query_ms;
  std::vector<double> overhead_pct;
  std::vector<double> ramp_cycles;  // (cycles, ms) pairs of traced reps
  std::map<std::string, std::vector<double>> kernel_ms = {
      {"native.pull", {}}, {"native.push", {}}, {"sim.spmv.ip", {}},
      {"sim.spmv.op", {}}};
  std::map<std::string, double> first_iterations;
  // Per-rep rates; the run reports their medians.
  std::vector<double> rep_queries_per_s;
  std::vector<double> rep_spmv_per_s;
  std::string first_report;
  std::int64_t first_cycles = 0;
  sim::Stats first_stats;
  std::uint64_t first_sw = 0, first_hw = 0, first_conv = 0;
  std::uint64_t first_pulls = 0, first_pushes = 0;
  bool traced_done = false;
  std::size_t reps = 0;
  std::size_t digest_mismatches = 0;
  const auto start = Clock::now();
  for (int pair = 0;; ++pair) {
    double wall[2] = {0.0, 0.0};
    for (int half = 0; half < (opt.trace ? 2 : 1); ++half) {
      const bool tracing = opt.trace && (pair + half) % 2 == 1;
      Spans later(tracing);
      Spans* rec = tracing && !traced_done ? &spans : &later;
      const std::uint64_t pulls0 = eng->native_decisions().pulls();
      const std::uint64_t pushes0 = eng->native_decisions().pushes();
      const auto t0 = Clock::now();
      const Rep rep = run_rep(k, *eng, g, ramp, rec,
                              tracing ? &ramp_cycles : nullptr);
      const double ms = ms_since(t0);
      wall[tracing ? 1 : 0] = ms;
      rep_queries_per_s.push_back(static_cast<double>(rep.query_ms.size()) /
                                  (ms / 1000.0));
      rep_spmv_per_s.push_back(static_cast<double>(rep.spmv_calls) / (ms / 1000.0));
      ++reps;
      res.attempted += rep.query_ms.size();
      query_ms.insert(query_ms.end(), rep.query_ms.begin(), rep.query_ms.end());
      if (rep.algorithms_digest != expected.algorithms_digest ||
          rep.ramp_digest != expected.ramp_digest)
        ++digest_mismatches;
      if (reps == 1) {
        // First rep on a fresh engine: the deterministic reference point.
        first_report = runtime::make_run_report(*eng, "perfbench").to_string();
        first_cycles = static_cast<std::int64_t>(eng->total_cycles());
        first_stats = eng->machine().stats();
      }
      if (rec == &spans) {
        for (const auto& r : eng->iterations()) {
          first_sw += r.sw_switched ? 1 : 0;
          first_hw += r.hw_switched ? 1 : 0;
          first_conv += r.converted_frontier ? 1 : 0;
        }
        first_iterations = rep.iterations;
        first_pulls = eng->native_decisions().pulls() - pulls0;
        first_pushes = eng->native_decisions().pushes() - pushes0;
        traced_done = true;
      }
      if (tracing) {
        for (auto& [name, samples] : kernel_ms) {
          const std::vector<double> d = rec->durations_ms(name);
          samples.insert(samples.end(), d.begin(), d.end());
        }
      }
      eng->clear_iteration_log();
    }
    if (opt.trace) overhead_pct.push_back((wall[1] / wall[0] - 1.0) * 100.0);
    if (ms_since(start) >= opt.seconds * 1000.0) break;
  }
  const double rss = peak_rss_mib();
  res.check("output_digests", digest_mismatches == 0,
            std::to_string(digest_mismatches) + " of " + std::to_string(reps) +
                " reps differ from the sim-derived digests of variant " +
                std::to_string(variant));
  if (!native) {
    res.check("sim_cycles_recorded", first_cycles == expected.sim_cycles,
              "first rep simulated " + std::to_string(first_cycles) +
                  " cycles, recorded " + std::to_string(expected.sim_cycles));
    // The same rep on a serial engine must give a byte-identical report.
    runtime::Engine serial(g.adjacency(), k.system, engine_options(k, 0));
    Spans off(false);
    (void)run_rep(k, serial, g, ramp, &off, nullptr);
    const std::string serial_report =
        runtime::make_run_report(serial, "perfbench").to_string();
    res.check("report_identical_to_serial", serial_report == first_report,
              std::to_string(kThreads) +
                  "-thread run report vs the serial engine's");
  }

  if (!opt.trace) {
    res.metric("setup_s", median(setup_ms) / 1000.0, "s");
    res.metric("requests_per_s", median(rep_queries_per_s), "req/s");
    res.metric("request_p50_ms", percentile(query_ms, 50.0), "ms");
    res.metric("request_p99_ms", percentile(query_ms, 99.0), "ms");
    res.metric("spmv_per_s", median(rep_spmv_per_s), "1/s");
    res.metric("peak_rss_mb", rss, "MiB");
    res.info["latency_samples"] = query_ms.size();
    res.info["reps"] = reps;
    return;
  }

  // ---- traced run: component pass, bandwidth probe, per-layer metrics ----
  const ComponentTimes comp = measure_components(
      k.dataset, k.scale, 0, k.system, engine_options(k, kThreads));
  const std::map<std::string, double> self = spans.self_ms();
  const auto self_of = [&](const std::string& n) {
    const auto it = self.find(n);
    return it == self.end() ? 0.0 : it->second;
  };
  const double builds = static_cast<double>(kSetupReps);
  Layers layers;
  layers.set("sparse.dataset_load_ms", self_of("sparse.dataset_load"));
  layers.set("sparse.dataset_loads", builds);
  layers.set("sparse.transpose_ms", comp.transpose_ms * builds);
  layers.set("kernels.ip_build_ms", comp.ip_build_ms * builds);
  layers.set("kernels.op_build_ms", comp.op_build_ms * builds);
  layers.set("kernels.layout_bytes", comp.layout_bytes);
  layers.set("runtime.engine_build_ms", self_of("runtime.engine_build"));
  layers.set("runtime.engine_builds", builds);
  layers.set("runtime.engine_build_unattributed_pct",
             (comp.engine_build_ms - comp.transpose_ms - comp.ip_build_ms -
              comp.op_build_ms - comp.machine_build_ms) /
                 comp.engine_build_ms * 100.0);
  layers.set("runtime.sw_switches", static_cast<double>(first_sw));
  layers.set("runtime.hw_switches", static_cast<double>(first_hw));
  layers.set("runtime.frontier_conversions", static_cast<double>(first_conv));
  const double stream_gbps = stream_triad_gbps(res);
  layers.set("native.host_stream_gbps", stream_gbps);
  layers.set("sim.machine_build_ms", comp.machine_build_ms * builds);
  if (native) {
    const std::vector<double>& pull = kernel_ms["native.pull"];
    const std::vector<double>& push = kernel_ms["native.push"];
    layers.set("native.pull_ms.p50", percentile(pull, 50.0));
    layers.set("native.pull_ms.tail", percentile(pull, 99.0));
    layers.set("native.push_ms.p50", percentile(push, 50.0));
    layers.set("native.push_ms.tail", percentile(push, 99.0));
    layers.set("native.pull_calls", static_cast<double>(first_pulls));
    layers.set("native.push_calls", static_cast<double>(first_pushes));
    // Bytes are computed from the layout sizes, not counted by hardware.
    const double pull_gbps =
        pull.empty() ? 0.0
                     : comp.pull_bytes * static_cast<double>(pull.size()) /
                           (std::accumulate(pull.begin(), pull.end(), 0.0) / 1000.0) / 1e9;
    layers.set("native.pull_gbps", pull_gbps);
    layers.set("native.pull_roofline_pct", pull_gbps / stream_gbps * 100.0);
    res.info["pull_samples"] = pull.size();
    res.info["push_samples"] = push.size();
  } else {
    layers.set("sim.spmv_ms.ip", median(kernel_ms["sim.spmv.ip"]));
    layers.set("sim.spmv_ms.op", median(kernel_ms["sim.spmv.op"]));
    double cycles = 0.0;
    double ms = 0.0;
    for (std::size_t i = 0; i + 1 < ramp_cycles.size(); i += 2) {
      cycles += ramp_cycles[i];
      ms += ramp_cycles[i + 1];
    }
    layers.set("sim.host_ns_per_cycle", cycles > 0.0 ? ms * 1e6 / cycles : 0.0);
    layers.set("sim.cycles", static_cast<double>(first_cycles));
    layers.set("sim.l1_hit_ratio", first_stats.l1_hit_rate());
    layers.set("sim.l2_hit_ratio", first_stats.l2_hit_rate());
    layers.set("sim.dram_bytes", static_cast<double>(first_stats.dram_bytes()));
    layers.set("sim.reconfigs",
               static_cast<double>(first_stats.reconfigurations));
  }
  for (const char* a : {"bfs", "sssp", "pagerank", "cf"}) {
    layers.set(std::string("graph.") + a + "_ms",
               self_of(std::string("graph.") + a));
    layers.set(std::string("graph.iterations.") + a, first_iterations[a]);
  }
  layers.set("obs.trace_overhead_pct", median(overhead_pct));
  layers.emit(res);
  res.info["trace_overhead_pairs"] = overhead_pct.size();
  write_spans(opt, spans);
}

}  // namespace

Json derive_expected() {
  Json doc = Json::object();
  for (const KernelSpec& k : {kernel_native_spec(), sim_ramp_spec()}) {
    KernelSpec sim = k;
    sim.mode = native::ExecMode::kSim;
    const sparse::Graph g =
        sparse::DatasetRegistry().load(k.dataset, k.scale, 0);
    const Index n = g.num_vertices();
    Json w = Json::object();
    Json ramps = Json::array();
    Json cycles = Json::array();
    if (k.mode == native::ExecMode::kNative) {
      // Outputs are pure functions of the inputs, so one serial sim engine
      // yields the algorithm digest once and every variant's ramp digest.
      runtime::Engine eng(g.adjacency(), k.system, engine_options(sim, 0));
      w["algorithms_digest"] =
          run_rep(sim, eng, g, ramp_frontiers(n, 0), nullptr, nullptr)
              .algorithms_digest;
      for (std::uint32_t v = 0; v < kVariants; ++v)
        ramps.push_back(
            run_ramp(sim, eng, ramp_frontiers(n, v), nullptr, nullptr, nullptr));
    } else {
      for (std::uint32_t v = 0; v < kVariants; ++v) {
        runtime::Engine eng(g.adjacency(), k.system, engine_options(sim, 0));
        const Rep rep = run_rep(sim, eng, g, ramp_frontiers(n, v), nullptr, nullptr);
        w["algorithms_digest"] = rep.algorithms_digest;
        ramps.push_back(rep.ramp_digest);
        cycles.push_back(static_cast<std::uint64_t>(eng.total_cycles()));
      }
      w["sim_cycles"] = std::move(cycles);
    }
    w["ramp_digests"] = std::move(ramps);
    doc[k.name] = std::move(w);
  }
  return doc;
}

void run_kernel_native(const Options& opt, Result& res) {
  run_kernel(kernel_native_spec(), opt, res);
}

void run_sim_ramp(const Options& opt, Result& res) {
  run_kernel(sim_ramp_spec(), opt, res);
}

}  // namespace perfbench
