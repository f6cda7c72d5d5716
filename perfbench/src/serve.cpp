// serve_unbatched and serve_batched_evict: Server::serve over generated
// request traces, plus the benchmark-side re-execution of the server's own
// batch plan that checks every digest and, in the traced run, attributes
// batch time to cache, engine build, algorithm and digest spans.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "bench.h"
#include "common/digest.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "serve/cache.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "sim/parallel.h"

namespace perfbench {

using namespace cosparse;
using serve::Algo;
using serve::QueryRequest;
using serve::Schedule;

namespace {

struct ServeSpec {
  std::string scheduler;
  std::uint32_t max_batch_size = 1;
  std::string arrival;
  std::vector<std::string> datasets;
  std::vector<std::string> algos;
  unsigned scale = 64;
  /// Cache budget as a share of the datasets' combined resident bytes.
  double budget_share = 1.0;
  std::uint64_t interval_us = 1000;
  /// Requests per Server::serve call; a multiple of datasets x algos.
  std::uint32_t chunk_requests = 0;
};

constexpr std::uint32_t kChunkPool = 16;  ///< distinct traces per run
constexpr std::uint32_t kTracedChunks = 2;
/// Layer-sum tolerance: child spans must cover their batch spans, and
/// batch spans plus worker idle must cover wall x threads, to within this.
constexpr double kCoverageTolerancePct = 5.0;

const sim::SystemConfig kSystem = sim::SystemConfig::transmuter(8, 8);

serve::ServeConfig make_config(const ServeSpec& s) {
  serve::ServeConfig cfg;
  cfg.scheduler_type = s.scheduler;
  cfg.max_batch_size = s.max_batch_size;
  // Admission can never reject: at most one chunk is in flight.
  cfg.max_active_reqs = s.chunk_requests;
  cfg.virtual_workers = kThreads;
  cfg.exec_mode = "native";
  cfg.system = "8x8";
  cfg.scale = s.scale;
  cfg.dataset_seed = 0;
  const serve::CostModel cost{s.scale};
  std::uint64_t working_set = 0;
  for (const std::string& d : s.datasets) working_set += cost.bytes(d);
  cfg.cache_budget_bytes =
      static_cast<std::uint64_t>(s.budget_share * static_cast<double>(working_set));
  cfg.traffic.arrival = s.arrival;
  cfg.traffic.request_interval_us = s.interval_us;
  cfg.traffic.request_total_cnt = s.chunk_requests;
  cfg.traffic.datasets = s.datasets;
  cfg.traffic.algos = s.algos;
  return cfg;
}

/// One chunk's trace. Arrivals, tenants and sources come from
/// generate_trace; the (dataset, algo) pairs are then dealt from a seeded
/// shuffle in which every pair appears equally often, so run-to-run
/// spread reflects the system rather than the luck of the mix draw.
std::vector<QueryRequest> make_chunk(const ServeSpec& s,
                                     const serve::ServeConfig& cfg,
                                     std::uint64_t seed, std::uint32_t chunk) {
  serve::TrafficConfig t = cfg.traffic;
  t.seed = seed * 1000003ULL + chunk;
  std::vector<QueryRequest> trace = serve::generate_trace(t);
  const std::size_t pairs = s.datasets.size() * s.algos.size();
  std::vector<std::size_t> order(trace.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i % pairs;
  Rng rng(t.seed, "perfbench.mix");
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].dataset = s.datasets[order[i] / s.algos.size()];
    trace[i].algo = serve::algo_from_string(s.algos[order[i] % s.algos.size()]);
  }
  return trace;
}

/// Runs one request the way the server does and returns its result digest
/// (the same fold as the server's wire digest).
std::string run_query(runtime::Engine& eng, const sparse::Graph& g,
                      const QueryRequest& req, Spans* spans) {
  const Index dim = eng.dimension();
  const Index source = dim == 0 ? 0 : req.source % dim;
  Digest d;
  switch (req.algo) {
    case Algo::kBfs: {
      graph::BfsResult res;
      {
        const Spans::Scope s(spans, "graph.bfs", req.id);
        res = graph::bfs(eng, source);
      }
      const Spans::Scope s(spans, "serve.digest", req.id);
      for (const std::int64_t level : res.level)
        d.update_u64(static_cast<std::uint64_t>(level));
      break;
    }
    case Algo::kSssp: {
      graph::SsspResult res;
      {
        const Spans::Scope s(spans, "graph.sssp", req.id);
        res = graph::sssp(eng, source, req.iterations);
      }
      const Spans::Scope s(spans, "serve.digest", req.id);
      for (const Value dist : res.dist) d.update_value(dist);
      break;
    }
    case Algo::kPagerank: {
      graph::PageRankOptions opts;
      if (req.iterations != 0) opts.max_iterations = req.iterations;
      graph::PageRankResult res;
      {
        const Spans::Scope s(spans, "graph.pagerank", req.id);
        res = graph::pagerank(eng, g.out_degrees(), opts);
      }
      const Spans::Scope s(spans, "serve.digest", req.id);
      for (const Value rank : res.rank) d.update_value(rank);
      d.update_value(res.residual);
      break;
    }
    case Algo::kCf: {
      graph::CfOptions opts;
      if (req.iterations != 0) opts.iterations = req.iterations;
      opts.seed = req.seed;
      graph::CfResult res;
      {
        const Spans::Scope s(spans, "graph.cf", req.id);
        res = graph::cf(eng, g.adjacency(), opts);
      }
      const Spans::Scope s(spans, "serve.digest", req.id);
      for (const Value v : res.latent) d.update_value(v);
      for (const double loss : res.loss_per_iteration) d.update_value(loss);
      break;
    }
  }
  return d.hex();
}

/// What one re-executed batch saw.
struct BatchTally {
  bool miss = false;
  std::uint32_t sw_switches = 0;
  std::uint32_t hw_switches = 0;
  std::uint32_t conversions = 0;
  std::uint64_t pulls = 0;
  std::uint64_t pushes = 0;
};

struct Execution {
  double wall_ms = 0.0;
  Clock::time_point begin;
  Clock::time_point end;
  std::vector<std::string> digests;  ///< by trace index
  std::vector<std::uint32_t> iterations;
  std::vector<BatchTally> batches;
  serve::CacheStats cache;
};

/// Re-executes a batch plan exactly as Server::execute does (one lease and
/// one fresh native Engine per batch, kThreads workers), with spans around
/// each public call when `spans` is enabled.
Execution execute_plan(const serve::ServeConfig& cfg, const Schedule& plan,
                       const std::vector<QueryRequest>& trace,
                       const sparse::DatasetRegistry& registry, Spans* spans) {
  Execution ex;
  ex.digests.assign(trace.size(), "");
  ex.iterations.assign(trace.size(), 0);
  ex.batches.assign(plan.batches.size(), BatchTally{});
  serve::MatrixCache cache(&registry, cfg.cache_budget_bytes, cfg.scale,
                           cfg.dataset_seed);
  const auto run_batch = [&](std::uint32_t b) {
    const serve::BatchPlan& batch = plan.batches[b];
    const Spans::Scope bs(spans, "serve.batch", batch.id);
    BatchTally& tally = ex.batches[b];
    serve::MatrixCache::Lease lease;
    {
      // Classified by residency just before the call; a concurrent load of
      // the same dataset on the other worker counts as a miss here.
      tally.miss = !cache.resident(batch.dataset);
      const Spans::Scope as(spans,
                            tally.miss ? "serve.cache_acquire.miss"
                                       : "serve.cache_acquire.hit",
                            batch.id);
      lease = cache.acquire(batch.dataset);
    }
    const sparse::Graph& g = lease.graph();
    runtime::EngineOptions eopts;
    eopts.exec_mode = native::ExecMode::kNative;
    eopts.sim_threads = 0;
    std::unique_ptr<runtime::Engine> eng;
    {
      const Spans::Scope es(spans, "runtime.engine_build", batch.id);
      eng = std::make_unique<runtime::Engine>(g.adjacency(), kSystem, eopts);
    }
    for (const std::size_t idx : batch.request_indices) {
      const std::size_t before = eng->iterations().size();
      ex.digests[idx] = run_query(*eng, g, trace[idx], spans);
      ex.iterations[idx] =
          static_cast<std::uint32_t>(eng->iterations().size() - before);
    }
    for (const runtime::IterationRecord& r : eng->iterations()) {
      tally.sw_switches += r.sw_switched ? 1 : 0;
      tally.hw_switches += r.hw_switched ? 1 : 0;
      tally.conversions += r.converted_frontier ? 1 : 0;
    }
    tally.pulls = eng->native_decisions().pulls();
    tally.pushes = eng->native_decisions().pushes();
  };
  sim::ParallelExecutor pool(kThreads);
  ex.begin = Clock::now();
  pool.run(static_cast<std::uint32_t>(plan.batches.size()), run_batch);
  ex.end = Clock::now();
  ex.wall_ms = ms_between(ex.begin, ex.end);
  ex.cache = cache.stats();
  return ex;
}

/// The server's results_digest fold (serve/server.cpp make_report) over a
/// schedule whose digests come from `digests`.
std::string results_digest(const Schedule& sch,
                           const std::vector<std::string>& digests) {
  std::vector<std::size_t> order(sch.responses.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sch.responses[a].id < sch.responses[b].id;
  });
  Digest d;
  for (const std::size_t i : order) {
    const serve::QueryResponse& r = sch.responses[i];
    d.update_u64(r.id);
    d.update_u64(static_cast<std::uint64_t>(r.status));
    d.update_u64(r.finish_us);
    if (!digests[i].empty()) d.update_u64(std::stoull(digests[i], nullptr, 16));
  }
  return d.hex();
}

/// Compares a re-execution with the server's run of the same chunk.
void check_execution(Result& res, const std::string& tag, const Schedule& sch,
                     const std::string& server_digest, const Execution& ex) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < sch.responses.size(); ++i) {
    const serve::QueryResponse& r = sch.responses[i];
    if (r.digest != ex.digests[i] || r.algo_iterations != ex.iterations[i])
      ++mismatches;
  }
  res.check(tag + "_request_digests", mismatches == 0,
            std::to_string(mismatches) + " of " +
                std::to_string(sch.responses.size()) +
                " responses differ from the re-execution");
  const std::string fold = results_digest(sch, ex.digests);
  res.check(tag + "_results_digest", fold == server_digest,
            "server " + server_digest + ", re-execution " + fold);
}

struct ServedChunk {
  std::uint32_t index = 0;
  Schedule schedule;
  std::string digest;
};

void run_serve(const ServeSpec& spec, const Options& opt, Result& res) {
  const serve::ServeConfig cfg = make_config(spec);
  res.info["exec_mode"] = "native";
  res.info["system"] = kSystem.name();
  res.info["scale"] = spec.scale;
  res.info["chunk_requests"] = spec.chunk_requests;
  res.info["cache_budget_bytes"] = cfg.cache_budget_bytes;
  res.info["serve_threads"] = kThreads;

  // ---- set-up: trace generation, Server construction and the cold start
  // (one request per dataset, so each is loaded, prepared and queried once)
  std::vector<QueryRequest> warmup;
  for (const std::string& d : spec.datasets) {
    QueryRequest r;
    r.id = warmup.size() + 1;
    r.arrival_us = warmup.size();
    r.tenant = "warmup";
    r.dataset = d;
    warmup.push_back(r);
  }
  std::vector<std::vector<QueryRequest>> chunks;
  std::unique_ptr<serve::Server> server;
  std::vector<double> setup_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    chunks.clear();
    for (std::uint32_t c = 0; c < kChunkPool; ++c)
      chunks.push_back(make_chunk(spec, cfg, opt.seed, c));
    serve::ServerOptions sopts;
    sopts.serve_threads = kThreads;
    server = std::make_unique<serve::Server>(cfg, sopts);
    (void)server->serve(warmup);
    setup_ms.push_back(ms_since(t0));
  }
  std::size_t warmup_ok = 0;
  for (const serve::QueryResponse& r : server->schedule().responses)
    warmup_ok += r.status == serve::Status::kOk ? 1 : 0;
  res.check("cold_start_ok", warmup_ok == warmup.size(),
            std::to_string(warmup_ok) + " of " +
                std::to_string(warmup.size()) + " cold-start requests OK");

  // ---- timed phase: Server::serve over successive chunks ----
  std::vector<double> service_ms;
  std::vector<ServedChunk> kept;
  std::vector<std::string> chunk_digests(kChunkPool);
  double serve_s = 0.0;
  std::uint64_t ok_total = 0;
  std::uint64_t spmv_total = 0;
  std::uint32_t served = 0;
  std::uint64_t batches_served = 0;
  std::uint64_t host_misses = 0;
  bool repeat_identical = true;
  const auto start = Clock::now();
  // Traced runs serve only the chunks they re-execute; their time goes to
  // the traced/untraced re-execution pairs below.
  while (true) {
    const std::uint32_t c = served % kChunkPool;
    const auto t0 = Clock::now();
    const Json report = server->serve(chunks[c]);
    const double chunk_s = ms_since(t0) / 1000.0;
    ++served;
    batches_served += server->schedule().batches.size();
    host_misses += server->cache_stats().misses;
    std::uint64_t ok = 0;
    std::uint64_t spmv_calls = 0;
    for (const serve::QueryResponse& r : server->schedule().responses) {
      ++res.attempted;
      if (r.status != serve::Status::kOk) {
        ++res.failed;
        continue;
      }
      ++ok;
      service_ms.push_back(r.wall_service_ms);
      spmv_calls += r.algo_iterations;
    }
    serve_s += chunk_s;
    ok_total += ok;
    spmv_total += spmv_calls;
    const std::string digest =
        report.find("results")->find("results_digest")->as_string();
    if (chunk_digests[c].empty()) {
      chunk_digests[c] = digest;
    } else {
      repeat_identical = repeat_identical && chunk_digests[c] == digest;
    }
    if (kept.size() < kTracedChunks)
      kept.push_back({c, server->schedule(), digest});
    if (opt.trace ? served >= kTracedChunks
                  : ms_since(start) >= opt.seconds * 1000.0)
      break;
  }
  const double rss = peak_rss_mib();
  res.check("no_rejected_or_failed_requests", res.failed == 0,
            std::to_string(res.failed) + " of " +
                std::to_string(res.attempted) + " requests not OK");
  res.check("repeated_chunk_digests_identical", repeat_identical,
            "a chunk served twice must fold to the same results_digest");

  if (!opt.trace) {
    res.metric("setup_s", median(setup_ms) / 1000.0, "s");
    res.metric("requests_per_s", static_cast<double>(ok_total) / serve_s,
               "req/s");
    res.metric("request_p50_ms", percentile(service_ms, 50.0), "ms");
    res.metric("request_p99_ms", percentile(service_ms, 99.0), "ms");
    res.metric("spmv_per_s", static_cast<double>(spmv_total) / serve_s, "1/s");
    res.metric("peak_rss_mb", rss, "MiB");
    res.info["latency_samples"] = service_ms.size();
    res.info["chunks_served"] = served;
    res.info["batches"] = batches_served;
    res.info["cache_misses"] = host_misses;
    // Untraced re-execution of the first chunk checks every digest.
    const sparse::DatasetRegistry registry;
    Spans off(false);
    const Execution ex = execute_plan(cfg, kept.front().schedule,
                                      chunks[kept.front().index], registry, &off);
    check_execution(res, "reexecution", kept.front().schedule,
                    kept.front().digest, ex);
    return;
  }

  // ---- traced run: alternate untraced / traced re-executions ----
  const sparse::DatasetRegistry registry;
  Spans traced(true);  // spans of the first traced pass
  std::vector<Execution> first_traced;
  std::vector<double> schedule_ms;
  std::vector<double> overhead_pct;
  const auto trace_start = Clock::now();
  for (int pass = 0;; ++pass) {
    double wall[2] = {0.0, 0.0};  // [untraced, traced]
    for (int k = 0; k < 2; ++k) {
      const bool tracing = (pass + k) % 2 == 1;
      Spans later(tracing);
      Spans* spans = tracing && first_traced.empty() ? &traced : &later;
      std::vector<Execution> runs;
      for (const ServedChunk& sc : kept) {
        const std::vector<QueryRequest>& trace = chunks[sc.index];
        Schedule plan;
        {
          const auto t0 = Clock::now();
          plan = serve::build_schedule(cfg, trace);
          if (spans == &traced) schedule_ms.push_back(ms_since(t0));
        }
        bool same_plan = plan.batches.size() == sc.schedule.batches.size();
        for (std::size_t b = 0; same_plan && b < plan.batches.size(); ++b) {
          same_plan = plan.batches[b].dataset == sc.schedule.batches[b].dataset &&
                      plan.batches[b].request_indices ==
                          sc.schedule.batches[b].request_indices;
        }
        res.check("schedule_pure", same_plan,
                  "build_schedule must reproduce the server's batch plan");
        runs.push_back(execute_plan(cfg, plan, trace, registry, spans));
        wall[tracing ? 1 : 0] += runs.back().wall_ms;
        check_execution(res, tracing ? "traced" : "untraced", sc.schedule,
                        sc.digest, runs.back());
      }
      if (spans == &traced) first_traced = std::move(runs);
    }
    overhead_pct.push_back((wall[1] / wall[0] - 1.0) * 100.0);
    if (ms_since(trace_start) >= opt.seconds * 1000.0) break;
  }

  // ---- component pass: the Engine constructor's split per dataset ----
  runtime::EngineOptions eopts;
  eopts.exec_mode = native::ExecMode::kNative;
  eopts.sim_threads = 0;
  std::map<std::string, ComponentTimes> comp;
  std::map<std::string, double> load_ms;
  double layout_bytes = 0.0;  // one prepared copy of every dataset
  for (const std::string& d : spec.datasets) {
    comp[d] = measure_components(d, spec.scale, cfg.dataset_seed, kSystem, eopts);
    layout_bytes += comp[d].layout_bytes;
    const auto t0 = Clock::now();
    const sparse::Graph g = registry.load(d, spec.scale, cfg.dataset_seed);
    load_ms[d] = ms_since(t0);
  }

  // ---- per-layer metrics of the first traced pass ----
  Layers layers;
  const std::map<std::string, double> self = traced.self_ms();
  const auto self_of = [&](const std::string& n) {
    const auto it = self.find(n);
    return it == self.end() ? 0.0 : it->second;
  };
  ComponentTimes sum;
  double loads = 0.0;
  double load_total_ms = 0.0;
  std::uint64_t builds = 0;
  std::uint64_t requests = 0;
  BatchTally tot;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t peak_bytes = 0;
  std::vector<double> queue_wait_us;
  std::map<std::string, double> iterations;
  for (std::size_t k = 0; k < first_traced.size(); ++k) {
    const Execution& ex = first_traced[k];
    const Schedule& sch = kept[k].schedule;
    for (std::size_t b = 0; b < sch.batches.size(); ++b) {
      const std::string& d = sch.batches[b].dataset;
      const BatchTally& t = ex.batches[b];
      ++builds;
      sum.transpose_ms += comp[d].transpose_ms;
      sum.ip_build_ms += comp[d].ip_build_ms;
      sum.op_build_ms += comp[d].op_build_ms;
      sum.machine_build_ms += comp[d].machine_build_ms;
      sum.engine_build_ms += comp[d].engine_build_ms;
      if (t.miss) {
        loads += 1.0;
        load_total_ms += load_ms[d];
      }
      tot.sw_switches += t.sw_switches;
      tot.hw_switches += t.hw_switches;
      tot.conversions += t.conversions;
      tot.pulls += t.pulls;
      tot.pushes += t.pushes;
      requests += sch.batches[b].request_indices.size();
    }
    for (std::size_t i = 0; i < sch.responses.size(); ++i) {
      const serve::QueryResponse& r = sch.responses[i];
      queue_wait_us.push_back(static_cast<double>(r.dispatch_us - r.arrival_us));
      iterations[r.algo] += ex.iterations[i];
    }
    hits += ex.cache.hits;
    misses += ex.cache.misses;
    evictions += ex.cache.evictions;
    peak_bytes = std::max(peak_bytes, ex.cache.peak_bytes_resident);
  }

  // Layer-sum checks over the traced pass.
  double batch_total = 0.0;
  double child_total = 0.0;
  double idle_ms = 0.0;
  double wall_threads_ms = 0.0;
  {
    const std::vector<Spans::Record> recs = traced.records();
    std::map<std::uint64_t, double> child_ms;
    for (const Spans::Record& r : recs)
      if (r.parent != 0) child_ms[r.parent] += ms_between(r.start, r.end);
    for (const Execution& ex : first_traced) {
      // Per worker thread: time inside the executor not inside a batch.
      std::map<std::thread::id, double> busy;
      for (const Spans::Record& r : recs) {
        if (r.name != "serve.batch" || r.start < ex.begin || r.end > ex.end)
          continue;
        const double ms = ms_between(r.start, r.end);
        batch_total += ms;
        child_total += child_ms[r.id];
        busy[r.thread] += ms;
      }
      wall_threads_ms += ex.wall_ms * kThreads;
      for (const auto& [thread, ms] : busy) idle_ms += ex.wall_ms - ms;
      idle_ms += ex.wall_ms * static_cast<double>(kThreads - busy.size());
    }
  }
  const double unattributed_batch_pct =
      batch_total > 0.0 ? (batch_total - child_total) / batch_total * 100.0 : 0.0;
  const double unattributed_wall_pct =
      wall_threads_ms > 0.0
          ? (wall_threads_ms - batch_total - idle_ms) / wall_threads_ms * 100.0
          : 0.0;
  res.check("layer_sum_batch", unattributed_batch_pct <= kCoverageTolerancePct,
            "acquire + engine build + algorithms + digest leave " +
                std::to_string(unattributed_batch_pct) +
                "% of batch time unattributed (tolerance " +
                std::to_string(kCoverageTolerancePct) + "%)");
  res.check("layer_sum_wall",
            std::abs(unattributed_wall_pct) <= kCoverageTolerancePct,
            "batch spans + worker idle leave " +
                std::to_string(unattributed_wall_pct) +
                "% of wall x threads unattributed (tolerance " +
                std::to_string(kCoverageTolerancePct) + "%)");

  const double engine_ms = self_of("runtime.engine_build");
  layers.set("sparse.dataset_load_ms", load_total_ms);
  layers.set("sparse.dataset_loads", loads);
  layers.set("sparse.transpose_ms", sum.transpose_ms);
  layers.set("kernels.ip_build_ms", sum.ip_build_ms);
  layers.set("kernels.op_build_ms", sum.op_build_ms);
  layers.set("kernels.layout_bytes", layout_bytes);
  layers.set("runtime.engine_build_ms", engine_ms);
  layers.set("runtime.engine_builds", static_cast<double>(builds));
  layers.set("runtime.engine_build_unattributed_pct",
             sum.engine_build_ms > 0.0
                 ? (sum.engine_build_ms - sum.transpose_ms - sum.ip_build_ms -
                    sum.op_build_ms - sum.machine_build_ms) /
                       sum.engine_build_ms * 100.0
                 : 0.0);
  layers.set("runtime.sw_switches", tot.sw_switches);
  layers.set("runtime.hw_switches", tot.hw_switches);
  layers.set("runtime.frontier_conversions", tot.conversions);
  layers.set("native.pull_calls", static_cast<double>(tot.pulls));
  layers.set("native.push_calls", static_cast<double>(tot.pushes));
  layers.set("native.host_stream_gbps", stream_triad_gbps(res));
  layers.set("sim.machine_build_ms", sum.machine_build_ms);
  for (const char* a : {"bfs", "sssp", "pagerank", "cf"}) {
    layers.set(std::string("graph.") + a + "_ms", self_of(std::string("graph.") + a));
    layers.set(std::string("graph.iterations.") + a, iterations[a]);
  }
  std::size_t batches = 0;
  std::uint64_t virtual_misses = 0;
  std::uint64_t virtual_evictions = 0;
  for (const ServedChunk& sc : kept) {
    batches += sc.schedule.batches.size();
    virtual_misses += sc.schedule.stats.cache_misses;
    virtual_evictions += sc.schedule.stats.cache_evictions;
  }
  layers.set("serve.batches", static_cast<double>(batches));
  layers.set("serve.requests_per_batch",
             static_cast<double>(requests) / static_cast<double>(batches));
  layers.set("serve.schedule_ms",
             std::accumulate(schedule_ms.begin(), schedule_ms.end(), 0.0));
  layers.set("serve.cache_acquire_ms.hit", self_of("serve.cache_acquire.hit"));
  layers.set("serve.cache_acquire_ms.miss", self_of("serve.cache_acquire.miss"));
  layers.set("serve.cache_hits", static_cast<double>(hits));
  layers.set("serve.cache_misses", static_cast<double>(misses));
  layers.set("serve.cache_hit_ratio",
             static_cast<double>(hits) / static_cast<double>(hits + misses));
  layers.set("serve.cache_evictions", static_cast<double>(evictions));
  layers.set("serve.virtual_cache_misses", static_cast<double>(virtual_misses));
  layers.set("serve.virtual_cache_evictions",
             static_cast<double>(virtual_evictions));
  layers.set("serve.cache_peak_bytes", static_cast<double>(peak_bytes));
  layers.set("serve.batch_ms", batch_total);
  layers.set("serve.digest_ms", self_of("serve.digest"));
  layers.set("serve.worker_idle_ms", idle_ms);
  layers.set("serve.unattributed_batch_pct", unattributed_batch_pct);
  layers.set("serve.unattributed_wall_pct", unattributed_wall_pct);
  layers.set("serve.queue_wait_virtual_us.p50", percentile(queue_wait_us, 50.0));
  layers.set("serve.queue_wait_virtual_us.tail", percentile(queue_wait_us, 99.0));
  layers.set("obs.trace_overhead_pct", median(overhead_pct));
  layers.emit(res);
  res.info["traced_requests"] = requests;
  res.info["trace_overhead_pairs"] = overhead_pct.size();
  write_spans(opt, traced);
}

}  // namespace

void run_serve_unbatched(const Options& opt, Result& res) {
  ServeSpec s;
  s.scheduler = "fcfs";
  s.max_batch_size = 1;
  s.arrival = "poisson";
  s.datasets = {"twitter", "vsp", "youtube"};
  s.algos = {"bfs", "sssp", "pagerank"};
  s.scale = 64;
  s.budget_share = 2.0;  // every dataset stays resident
  s.interval_us = 1000;
  s.chunk_requests = 180;  // 9 pairs x 20
  run_serve(s, opt, res);
}

void run_serve_batched_evict(const Options& opt, Result& res) {
  ServeSpec s;
  s.scheduler = "same-dataset-batch";
  s.max_batch_size = 8;
  s.arrival = "bursty";
  s.datasets = {"twitter", "vsp", "youtube", "pokec", "livejournal"};
  s.algos = {"bfs", "sssp", "pagerank", "cf"};
  // At scale 192 a livejournal or pokec reload costs about one batch of
  // eight requests' algorithm work.
  s.scale = 192;
  // Holds livejournal plus the small graphs, but not livejournal and pokec
  // together: the two largest datasets evict each other.
  s.budget_share = 0.75;
  s.interval_us = 250;
  s.chunk_requests = 200;  // 20 pairs x 10
  run_serve(s, opt, res);
}

}  // namespace perfbench
