// Per-dataset matrix cache for the serving daemon.
//
// Loading (or synthesizing) a Table III graph is the dominant cold-start
// cost of a request, so cosparsed keeps loaded graphs resident under a
// byte budget with LRU eviction. Two invariants the property harness
// enforces:
//   1. an entry with outstanding Leases (in-flight queries) is NEVER
//      evicted — eviction only considers unpinned entries, and when every
//      resident entry is pinned the cache runs over budget (counted in
//      stats.over_budget_loads) rather than fail or evict pinned data;
//   2. eviction order among unpinned entries is strict LRU by last
//      acquire.
// Thread-safe: batches on different serve threads acquire concurrently;
// the map is mutex-protected and loads happen outside the lock only for
// distinct datasets (a per-entry load latch serializes duplicate loads).
//
// Each entry also carries its dataset's runtime::PreparedMatrix (the
// resident SpMV layouts of G^T), built on the first Lease::prepared() call
// of the residency under a per-entry once-latch and shared by every
// Engine built from it. The byte budget stays in graph bytes (the unit the
// scheduler's virtual cache twin mirrors); prepared bytes are reported in
// CacheStats but not charged. Evicting an entry drops only the cache's
// reference: engines in flight keep the prepared form alive.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/json.h"
#include "sparse/datasets.h"
#include "sparse/graph.h"

namespace cosparse::sim {
struct SystemConfig;
}  // namespace cosparse::sim

namespace cosparse::runtime {
class PreparedMatrix;
struct EngineOptions;
}  // namespace cosparse::runtime

namespace cosparse::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Loads that had to overrun the byte budget because every resident
  /// entry was pinned by in-flight queries.
  std::uint64_t over_budget_loads = 0;
  std::uint64_t bytes_resident = 0;
  std::uint64_t peak_bytes_resident = 0;
  /// PreparedMatrix builds (at most one per residency) and the layout
  /// bytes the resident entries hold; not charged against the budget.
  std::uint64_t prepares = 0;
  std::uint64_t prepared_bytes_resident = 0;
  std::uint64_t peak_prepared_bytes = 0;

  [[nodiscard]] Json to_json() const;
};

class MatrixCache {
 public:
  /// `registry` must outlive the cache. `scale`/`dataset_seed` pin the
  /// stand-in generation parameters for every load.
  MatrixCache(const sparse::DatasetRegistry* registry,
              std::uint64_t budget_bytes, unsigned scale,
              std::uint64_t dataset_seed);
  ~MatrixCache();  // out of line: CacheEntry is complete only in cache.cpp

  MatrixCache(const MatrixCache&) = delete;
  MatrixCache& operator=(const MatrixCache&) = delete;

  /// RAII pin on one resident dataset. The graph reference stays valid —
  /// and the entry unevictable — for the lease's lifetime.
  class Lease {
   public:
    Lease() = default;
    Lease(MatrixCache* cache, struct CacheEntry* entry)
        : cache_(cache), entry_(entry) {}
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] bool valid() const { return entry_ != nullptr; }
    [[nodiscard]] const sparse::Graph& graph() const;
    /// The entry's prepared layouts, built on the first call of this
    /// residency (concurrent callers wait for that one build). Every call
    /// must pass a config/options pair with the same PreparedMatrix::Key;
    /// a mismatch throws cosparse::Error.
    [[nodiscard]] std::shared_ptr<const runtime::PreparedMatrix> prepared(
        const sim::SystemConfig& cfg,
        const runtime::EngineOptions& opts) const;

    void release();

   private:
    MatrixCache* cache_ = nullptr;
    struct CacheEntry* entry_ = nullptr;
  };

  /// Loads on miss (evicting LRU unpinned entries to fit the budget) and
  /// pins the entry. Throws cosparse::Error for unknown dataset names —
  /// callers validate against the registry before scheduling, so this
  /// only fires on programming errors.
  [[nodiscard]] Lease acquire(const std::string& dataset);

  /// Whether the dataset is currently resident (test/introspection).
  [[nodiscard]] bool resident(const std::string& dataset) const;
  [[nodiscard]] std::uint64_t budget_bytes() const { return budget_; }
  [[nodiscard]] CacheStats stats() const;

  /// Approximate resident footprint of one loaded graph (adjacency
  /// triplets + degree vector); the unit the byte budget is charged in.
  [[nodiscard]] static std::uint64_t graph_bytes(const sparse::Graph& g);

 private:
  void release_entry(CacheEntry* entry);
  std::shared_ptr<const runtime::PreparedMatrix> prepare_entry(
      CacheEntry* entry, const sim::SystemConfig& cfg,
      const runtime::EngineOptions& opts);
  /// Evicts LRU unpinned entries until `need` more bytes fit the budget;
  /// stops (over budget) when only pinned entries remain. Caller holds
  /// mu_.
  void make_room(std::uint64_t need);

  const sparse::DatasetRegistry* registry_;
  std::uint64_t budget_;
  unsigned scale_;
  std::uint64_t dataset_seed_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<CacheEntry>> entries_;
  std::uint64_t lru_clock_ = 0;
  CacheStats stats_;

  friend class Lease;
};

}  // namespace cosparse::serve
