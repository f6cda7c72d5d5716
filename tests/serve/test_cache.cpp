// MatrixCache: LRU under a byte budget, pinned entries never evicted,
// concurrent acquires stay coherent.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "graph/algorithms.h"
#include "native/exec_mode.h"
#include "runtime/engine.h"
#include "serve/cache.h"
#include "sparse/datasets.h"

namespace cosparse::serve {
namespace {

// Scale 128 keeps every Table III stand-in tiny while preserving their
// relative sizes (the dense `vsp` spec overflows its clamped dimensions
// at larger divisors).
constexpr unsigned kScale = 128;

sparse::DatasetRegistry registry() { return sparse::DatasetRegistry(); }

std::uint64_t bytes_of(const sparse::DatasetRegistry& reg,
                       const std::string& name) {
  return MatrixCache::graph_bytes(reg.load(name, kScale, 0));
}

TEST(MatrixCache, MissThenHit) {
  auto reg = registry();
  MatrixCache cache(&reg, 1ULL << 30, kScale, 0);
  {
    const auto lease = cache.acquire("twitter");
    ASSERT_TRUE(lease.valid());
    EXPECT_GT(lease.graph().num_vertices(), 0u);
  }
  EXPECT_TRUE(cache.resident("twitter"));
  { const auto again = cache.acquire("twitter"); }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.bytes_resident, bytes_of(reg, "twitter"));
}

TEST(MatrixCache, UnknownDatasetThrows) {
  auto reg = registry();
  MatrixCache cache(&reg, 1ULL << 30, kScale, 0);
  EXPECT_THROW((void)cache.acquire("friendster"), Error);
}

TEST(MatrixCache, LruEvictionOrder) {
  auto reg = registry();
  // Budget fits exactly two of the three smallest datasets.
  const std::uint64_t budget =
      bytes_of(reg, "twitter") + bytes_of(reg, "vsp") +
      bytes_of(reg, "youtube") - 1;
  MatrixCache cache(&reg, budget, kScale, 0);
  { const auto l = cache.acquire("twitter"); }
  { const auto l = cache.acquire("vsp"); }
  // twitter is now least-recently-used; loading youtube must evict it
  // (and only it, if vsp + youtube fit).
  { const auto l = cache.acquire("youtube"); }
  EXPECT_FALSE(cache.resident("twitter"));
  EXPECT_TRUE(cache.resident("vsp"));
  EXPECT_TRUE(cache.resident("youtube"));
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes_resident, budget);
}

TEST(MatrixCache, AcquireRefreshesRecency) {
  auto reg = registry();
  const std::uint64_t budget =
      bytes_of(reg, "twitter") + bytes_of(reg, "vsp") +
      bytes_of(reg, "youtube") - 1;
  MatrixCache cache(&reg, budget, kScale, 0);
  { const auto l = cache.acquire("twitter"); }
  { const auto l = cache.acquire("vsp"); }
  { const auto l = cache.acquire("twitter"); }  // refresh: vsp is LRU now
  { const auto l = cache.acquire("youtube"); }
  EXPECT_TRUE(cache.resident("twitter"));
  EXPECT_FALSE(cache.resident("vsp"));
}

TEST(MatrixCache, PinnedEntriesAreNeverEvicted) {
  auto reg = registry();
  // Budget fits only one dataset: with twitter pinned, loading vsp must
  // run over budget instead of evicting the pinned entry.
  const std::uint64_t budget = bytes_of(reg, "twitter");
  MatrixCache cache(&reg, budget, kScale, 0);
  const auto pinned = cache.acquire("twitter");
  ASSERT_TRUE(pinned.valid());
  {
    const auto l = cache.acquire("vsp");
    EXPECT_TRUE(cache.resident("twitter"));  // still pinned, still here
    EXPECT_TRUE(cache.resident("vsp"));
    EXPECT_GE(cache.stats().over_budget_loads, 1u);
    EXPECT_GT(cache.stats().bytes_resident, budget);
  }
  // The pinned lease keeps its graph reference valid throughout.
  EXPECT_GT(pinned.graph().num_edges(), 0u);
}

TEST(MatrixCache, PeakBytesTracksHighWater) {
  auto reg = registry();
  MatrixCache cache(&reg, 1ULL << 30, kScale, 0);
  { const auto a = cache.acquire("twitter"); }
  { const auto b = cache.acquire("vsp"); }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.peak_bytes_resident,
            bytes_of(reg, "twitter") + bytes_of(reg, "vsp"));
}

TEST(MatrixCache, ConcurrentAcquiresLoadOnce) {
  auto reg = registry();
  MatrixCache cache(&reg, 1ULL << 30, kScale, 0);
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&cache, &failures] {
      for (int rep = 0; rep < 20; ++rep) {
        const auto lease = cache.acquire(rep % 2 == 0 ? "twitter" : "vsp");
        if (!lease.valid() || lease.graph().num_vertices() == 0)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  const CacheStats s = cache.stats();
  // The per-entry load latch serializes duplicate loads: exactly one miss
  // per dataset no matter how the 8 threads interleave.
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 8u * 20u - 2u);
}

runtime::EngineOptions native_options() {
  runtime::EngineOptions opts;
  opts.exec_mode = native::ExecMode::kNative;
  opts.sim_threads = 0;
  return opts;
}

const sim::SystemConfig kSystem = sim::SystemConfig::transmuter(2, 2);

TEST(MatrixCache, ConcurrentPreparesBuildOnce) {
  auto reg = registry();
  MatrixCache cache(&reg, 1ULL << 30, kScale, 0);
  const runtime::EngineOptions opts = native_options();
  constexpr int kThreads = 4;
  std::vector<const runtime::PreparedMatrix*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      const auto lease = cache.acquire("twitter");
      seen[static_cast<std::size_t>(i)] = lease.prepared(kSystem, opts).get();
    });
  }
  for (auto& w : workers) w.join();
  for (const runtime::PreparedMatrix* p : seen) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p, seen.front());
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.prepares, 1u);
  EXPECT_EQ(s.prepared_bytes_resident, seen.front()->bytes());
  EXPECT_EQ(s.peak_prepared_bytes, s.prepared_bytes_resident);
  // Prepared bytes are reported, never charged against the budget.
  EXPECT_EQ(s.bytes_resident, bytes_of(reg, "twitter"));
}

TEST(MatrixCache, PreparedFormOutlivesEviction) {
  auto reg = registry();
  // Budget fits one dataset: loading vsp evicts the unpinned twitter.
  MatrixCache cache(&reg, bytes_of(reg, "twitter"), kScale, 0);
  const runtime::EngineOptions opts = native_options();
  std::unique_ptr<runtime::Engine> eng;
  {
    const auto lease = cache.acquire("twitter");
    eng = std::make_unique<runtime::Engine>(lease.prepared(kSystem, opts),
                                            kSystem, opts);
  }
  const std::uint64_t prepared_bytes = eng->prepared()->bytes();
  EXPECT_EQ(cache.stats().prepared_bytes_resident, prepared_bytes);
  { const auto l = cache.acquire("vsp"); }
  ASSERT_FALSE(cache.resident("twitter"));
  EXPECT_EQ(cache.stats().prepared_bytes_resident, 0u);
  EXPECT_EQ(cache.stats().peak_prepared_bytes, prepared_bytes);
  // The engine's own reference keeps the layouts alive (ASan would flag a
  // read of freed layouts here).
  EXPECT_EQ(eng->prepared().use_count(), 1);
  const graph::BfsResult res = graph::bfs(*eng, 0);
  EXPECT_EQ(res.level.size(), eng->dimension());
  EXPECT_EQ(res.level[0], 0);
  // A new residency prepares again.
  const auto again = cache.acquire("twitter");
  EXPECT_NE(again.prepared(kSystem, opts), eng->prepared());
  EXPECT_EQ(cache.stats().prepares, 2u);
}

TEST(MatrixCache, PreparedKeyMismatchThrows) {
  auto reg = registry();
  MatrixCache cache(&reg, 1ULL << 30, kScale, 0);
  const runtime::EngineOptions opts = native_options();
  const auto lease = cache.acquire("twitter");
  (void)lease.prepared(kSystem, opts);
  EXPECT_THROW((void)lease.prepared(sim::SystemConfig::transmuter(4, 2), opts),
               Error);
  EXPECT_EQ(cache.stats().prepares, 1u);
}

TEST(MatrixCache, GraphBytesFormula) {
  auto reg = registry();
  const auto g = reg.load("twitter", kScale, 0);
  EXPECT_EQ(MatrixCache::graph_bytes(g),
            g.num_edges() * sizeof(sparse::Triplet) +
                g.num_vertices() * sizeof(Index));
}

}  // namespace
}  // namespace cosparse::serve
