// Traced-run passes that measure layers in isolation: the Engine
// constructor's component split and the host streaming-bandwidth probe.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "bench.h"
#include "kernels/partition.h"
#include "kernels/region_plan.h"
#include "runtime/engine.h"
#include "sim/machine.h"
#include "sparse/datasets.h"

namespace perfbench {

using namespace cosparse;

namespace {

constexpr int kComponentReps = 3;

template <class Fn>
double median_ms(Fn&& fn) {
  std::vector<double> ms;
  for (int rep = 0; rep < kComponentReps; ++rep) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

}  // namespace

ComponentTimes measure_components(const std::string& dataset, unsigned scale,
                                  std::uint64_t dataset_seed,
                                  const sim::SystemConfig& system,
                                  const runtime::EngineOptions& eopts) {
  const sparse::Graph g =
      sparse::DatasetRegistry().load(dataset, scale, dataset_seed);
  ComponentTimes ct;
  sparse::Coo mt;
  ct.transpose_ms = median_ms([&] { mt = sparse::transpose(g.adjacency()); });
  kernels::IpPartitionedMatrix ip_sc;
  kernels::IpPartitionedMatrix ip_scs;
  kernels::OpStripedMatrix op;
  const Index vb = kernels::default_vblock_cols(system);
  ct.ip_build_ms =
      median_ms([&] {
        ip_sc = kernels::IpPartitionedMatrix::build(mt, system.num_pes(), 0);
      }) +
      median_ms([&] {
        ip_scs = kernels::IpPartitionedMatrix::build(mt, system.num_pes(), vb);
      });
  ct.op_build_ms = median_ms(
      [&] { op = kernels::OpStripedMatrix::build(mt, system.num_tiles); });
  ct.machine_build_ms = median_ms([&] {
    const auto m = std::make_unique<sim::Machine>(system, sim::HwConfig::kSC);
  });
  ct.engine_build_ms = median_ms([&] {
    const auto e = std::make_unique<runtime::Engine>(g.adjacency(), system,
                                                     eopts);
  });

  const double ip_bytes = static_cast<double>(
      (ip_sc.nnz() + ip_scs.nnz()) * sizeof(sparse::Triplet));
  double op_bytes = 0.0;
  for (const auto& s : op.stripes()) {
    op_bytes += static_cast<double>(s.col_ptr.size() * sizeof(Offset) +
                                    s.elems.size() * sizeof(s.elems[0]));
  }
  ct.layout_bytes = ip_bytes + op_bytes;
  // One pull call streams its layout's elements once, reads the dense
  // frontier (value + active flag) and writes y (value + touched flag).
  const double dim = static_cast<double>(ip_sc.rows());
  ct.pull_bytes =
      static_cast<double>(ip_sc.nnz() * sizeof(sparse::Triplet)) +
      2.0 * dim * static_cast<double>(sizeof(Value) + sizeof(std::uint8_t));
  return ct;
}

double stream_triad_gbps(Result& res) {
  // Arrays together span 4x the last-level cache, so the triad streams
  // from DRAM; capped at 1 GiB to stay friendly to shared hosts.
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  const std::size_t total_bytes =
      std::clamp<std::size_t>(4 * static_cast<std::size_t>(llc), 64UL << 20,
                              1UL << 30);
  const std::size_t n = total_bytes / 3 / sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);

  const auto parallel = [&](auto&& body) {
    std::vector<std::thread> workers;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t lo = n * t / kThreads;
        const std::size_t hi = n * (t + 1) / kThreads;
        body(lo, hi);
      });
    }
    for (auto& w : workers) w.join();
  };
  // First touch on the worker threads that stream the same halves later.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  constexpr int kPasses = 5;
  const double scalar = 3.0;
  std::vector<double> gbps;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto t0 = Clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + scalar * c[i];
    });
    const double s = ms_since(t0) / 1000.0;
    gbps.push_back(3.0 * static_cast<double>(n * sizeof(double)) / s / 1e9);
  }
  const double expect = 1.0 + scalar * 2.0;
  bool ok = true;
  for (std::size_t i = 0; i < n; i += 4096) ok = ok && a[i] == expect;
  res.check("stream_triad_result", ok, "a[i] == b[i] + 3 c[i]");
  res.info["stream_llc_bytes"] = static_cast<std::int64_t>(llc);
  res.info["stream_array_bytes"] = static_cast<std::uint64_t>(n * sizeof(double));
  res.info["stream_total_bytes"] =
      static_cast<std::uint64_t>(3 * n * sizeof(double));
  return median(gbps);
}

}  // namespace perfbench
