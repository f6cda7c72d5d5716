#include "serve/server.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "common/digest.h"
#include "common/error.h"
#include "graph/algorithms.h"
#include "native/exec_mode.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/telemetry.h"
#include "runtime/engine.h"
#include "serve/trace.h"
#include "sim/parallel.h"

namespace cosparse::serve {

namespace {

/// Parses the config's "AxB" system spec (same grammar as the bench
/// suite's --system option).
sim::SystemConfig parse_system(const std::string& spec) {
  const auto x = spec.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= spec.size())
    throw Error("serve: system spec must look like 8x8: " + spec);
  const auto tiles =
      static_cast<std::uint32_t>(std::stoul(spec.substr(0, x)));
  const auto pes =
      static_cast<std::uint32_t>(std::stoul(spec.substr(x + 1)));
  return sim::SystemConfig::transmuter(tiles, pes);
}

/// Executes one request on an engine already holding its dataset;
/// returns the digest over every result bit.
void run_request(runtime::Engine& eng, const sparse::Graph& g,
                 const QueryRequest& req, QueryResponse& resp) {
  const Index dim = eng.dimension();
  const Index source = dim == 0 ? 0 : req.source % dim;
  Digest d;
  switch (req.algo) {
    case Algo::kBfs: {
      const graph::BfsResult res = graph::bfs(eng, source);
      for (const std::int64_t level : res.level)
        d.update_u64(static_cast<std::uint64_t>(level));
      resp.result_elems = res.level.size();
      resp.algo_iterations = res.stats.iterations;
      break;
    }
    case Algo::kSssp: {
      const graph::SsspResult res = graph::sssp(eng, source, req.iterations);
      for (const Value dist : res.dist) d.update_value(dist);
      resp.result_elems = res.dist.size();
      resp.algo_iterations = res.stats.iterations;
      break;
    }
    case Algo::kPagerank: {
      graph::PageRankOptions opts;
      if (req.iterations != 0) opts.max_iterations = req.iterations;
      const graph::PageRankResult res =
          graph::pagerank(eng, g.out_degrees(), opts);
      for (const Value rank : res.rank) d.update_value(rank);
      d.update_value(res.residual);
      resp.result_elems = res.rank.size();
      resp.algo_iterations = res.stats.iterations;
      break;
    }
    case Algo::kCf: {
      graph::CfOptions opts;
      if (req.iterations != 0) opts.iterations = req.iterations;
      opts.seed = req.seed;
      const graph::CfResult res = graph::cf(eng, g.adjacency(), opts);
      for (const Value v : res.latent) d.update_value(v);
      for (const double loss : res.loss_per_iteration) d.update_value(loss);
      resp.result_elems = res.latent.size();
      resp.algo_iterations = res.stats.iterations;
      break;
    }
  }
  resp.digest = d.hex();
}

double percentile_ms(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  auto idx = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  if (idx > 0) --idx;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

}  // namespace

Server::Server(ServeConfig cfg, ServerOptions opts)
    : cfg_(std::move(cfg)), opts_(std::move(opts)),
      registry_(opts_.data_dir) {
  if (opts_.serve_threads == 0) opts_.serve_threads = 1;
}

Json Server::replay() { return serve(generate_trace(cfg_.traffic)); }

Json Server::serve(const std::vector<QueryRequest>& trace,
                   std::vector<QueryResponse> pre_errors) {
  schedule_ = build_schedule(cfg_, trace);
  execute(trace);
  return make_report(std::move(pre_errors));
}

void Server::execute(const std::vector<QueryRequest>& trace) {
  const obs::PhaseScope phase("serve.execute");
  const native::ExecMode mode = cfg_.exec_mode == "native"
                                    ? native::ExecMode::kNative
                                    : native::ExecMode::kSim;
  const sim::SystemConfig system = parse_system(cfg_.system);

  auto cache = std::make_unique<MatrixCache>(
      &registry_, cfg_.cache_budget_bytes, cfg_.scale, cfg_.dataset_seed);
  batch_wall_ms_.assign(schedule_.batches.size(), 0.0);

  const auto run_batch = [&](std::uint32_t b) {
    const obs::PhaseScope batch_phase("serve.batch");
    const auto b0 = std::chrono::steady_clock::now();  // cosparse-lint: allow(determinism)
    const BatchPlan& batch = schedule_.batches[b];
    try {
      const MatrixCache::Lease lease = cache->acquire(batch.dataset);
      const sparse::Graph& g = lease.graph();
      // One fresh engine per batch over the residency's shared prepared
      // layouts: the transpose and layout builds run once per dataset
      // residency, the engine itself only sets up its machine, staging
      // frontiers and decider. Engine decisions are pure functions of
      // each request's own frontier sequence, so results are independent
      // of what ran before on this engine (the batched-vs-alone property
      // test pins this). Simulation stays serial inside a batch —
      // parallelism is batch-level, across serve threads.
      runtime::EngineOptions eopts;
      eopts.exec_mode = mode;
      eopts.sim_threads = 0;
      runtime::Engine eng(lease.prepared(system, eopts), system, eopts);
      for (const std::size_t idx : batch.request_indices) {
        const auto r0 = std::chrono::steady_clock::now();  // cosparse-lint: allow(determinism)
        run_request(eng, g, trace[idx], schedule_.responses[idx]);
        schedule_.responses[idx].wall_service_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - r0)  // cosparse-lint: allow(determinism)
                .count();
      }
    } catch (const std::exception& e) {
      // Execution failure: every request of the batch reports the same
      // deterministic error string; the daemon never crashes.
      for (const std::size_t idx : batch.request_indices) {
        QueryResponse& resp = schedule_.responses[idx];
        resp.status = Status::kError;
        resp.error = std::string("execution failed: ") + e.what();
        resp.digest.clear();
      }
    }
    batch_wall_ms_[b] =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - b0)  // cosparse-lint: allow(determinism)
            .count();
  };

  const auto t0 = std::chrono::steady_clock::now();  // cosparse-lint: allow(determinism)
  if (!schedule_.batches.empty()) {
    sim::ParallelExecutor pool(opts_.serve_threads);
    pool.run(static_cast<std::uint32_t>(schedule_.batches.size()),
             run_batch);
  }
  total_wall_ms_ = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)  // cosparse-lint: allow(determinism)
                       .count();
  cache_stats_ = cache->stats();
  cache.reset();
#ifdef __GLIBC__
  // Hand the freed graphs and prepared layouts back to the OS. glibc
  // otherwise keeps those pages in the serve threads' arenas: on the
  // serve_unbatched benchmark (4-vCPU AVX2 Xeon) peak RSS read
  // 28.2-30.5 MiB without this trim and 25.1-27.3 MiB with it, against
  // 25.9-26.2 MiB when every batch built a private engine.
  malloc_trim(0);
#endif

  // Post-join telemetry: histograms are observed on this (the producing)
  // thread only, per the obs/telemetry.h threading contract. Workers
  // recorded wall times into their disjoint response/batch slots above.
  if (opts_.telemetry != nullptr) {
    obs::Telemetry& t = *opts_.telemetry;
    std::uint64_t done = 0;
    for (const QueryResponse& resp : schedule_.responses) {
      if (resp.status != Status::kOk) continue;
      t.histogram("serve.request_ms").observe(resp.wall_service_ms);
      t.histogram("serve.queue_wait_us")
          .observe(static_cast<double>(resp.dispatch_us - resp.arrival_us));
      t.tick(++done);
    }
    for (const double ms : batch_wall_ms_)
      t.histogram("serve.batch_ms").observe(ms);
    for (const QueueSample& s : schedule_.queue_depth)
      t.histogram("serve.queue_depth").observe(
          static_cast<double>(s.waiting));
  }
}

Json Server::make_report(std::vector<QueryResponse> pre_errors) {
  // Merge executed responses with upstream parse-error responses, id
  // ascending, so the report covers every submitted line exactly once.
  std::vector<const QueryResponse*> ordered;
  ordered.reserve(schedule_.responses.size() + pre_errors.size());
  for (const QueryResponse& r : schedule_.responses) ordered.push_back(&r);
  for (const QueryResponse& r : pre_errors) ordered.push_back(&r);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const QueryResponse* a, const QueryResponse* b) {
                     return a->id < b->id;
                   });

  Json responses = Json::array();
  Digest results_digest;
  for (const QueryResponse* r : ordered) {
    responses.push_back(results_json(*r));
    results_digest.update_u64(r->id);
    results_digest.update_u64(static_cast<std::uint64_t>(r->status));
    results_digest.update_u64(r->finish_us);
    if (!r->digest.empty())
      results_digest.update_u64(std::stoull(r->digest, nullptr, 16));
  }

  obs::Report report("cosparsed");
  report.set("seed", Json(cfg_.traffic.seed));
  Json datasets = Json::array();
  for (const std::string& d : cfg_.traffic.datasets) datasets.push_back(d);
  report.set("dataset", std::move(datasets));
  report.set("config", cfg_.to_json());

  // Everything in "results" is deterministic: response subsets (virtual
  // clock only), the schedule summary and the fold-of-everything digest.
  // This is the section the 1-vs-N serve-threads byte-compare gates diff.
  Json results = Json::object();
  results["responses"] = std::move(responses);
  results["results_digest"] = results_digest.hex();
  results["schedule"] = schedule_json(schedule_);
  report.set("results", std::move(results));

  // Host wall-clock truth lives here (and in telemetry), excluded from
  // the functional byte-compare by construction.
  Json timing = Json::object();
  timing["serve_threads"] = opts_.serve_threads;
  timing["total_wall_ms"] = total_wall_ms_;
  std::vector<double> request_ms;
  for (const QueryResponse& r : schedule_.responses)
    if (r.status == Status::kOk) request_ms.push_back(r.wall_service_ms);
  timing["requests_executed"] =
      static_cast<std::uint64_t>(request_ms.size());
  timing["request_ms_p50"] = percentile_ms(request_ms, 50.0);
  timing["request_ms_p99"] = percentile_ms(request_ms, 99.0);
  timing["throughput_rps"] =
      total_wall_ms_ > 0.0
          ? static_cast<double>(request_ms.size()) * 1000.0 / total_wall_ms_
          : 0.0;
  timing["host_cache"] = cache_stats_.to_json();
  report.set("timing", std::move(timing));

  if (opts_.telemetry != nullptr)
    report.set("telemetry", opts_.telemetry->report_json());
  return report.root();
}

}  // namespace cosparse::serve
