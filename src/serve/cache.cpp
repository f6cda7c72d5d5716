#include "serve/cache.h"

#include <condition_variable>

#include "common/error.h"
#include "runtime/engine.h"
#include "sparse/formats.h"

namespace cosparse::serve {

/// One resident dataset. pins > 0 means in-flight queries hold Leases on
/// it; loading means the graph is still being produced by the first
/// acquirer (later acquirers wait on `loaded_cv`).
struct CacheEntry {
  std::string name;
  sparse::Graph graph;
  std::uint64_t bytes = 0;
  std::uint32_t pins = 0;
  std::uint64_t lru_seq = 0;
  bool loading = true;
  bool failed = false;  ///< load threw; waiters rethrow instead of leasing
  std::condition_variable loaded_cv;
  /// Once-latch for `prepared`: held for the whole first build, so
  /// concurrent batches of this dataset build it once while other
  /// datasets prepare in parallel. `prepared` and `prepared_bytes` are
  /// written under both this and the cache mutex.
  std::mutex prepare_mu;
  std::shared_ptr<const runtime::PreparedMatrix> prepared;
  std::uint64_t prepared_bytes = 0;
};

Json CacheStats::to_json() const {
  Json j = Json::object();
  j["hits"] = hits;
  j["misses"] = misses;
  j["evictions"] = evictions;
  j["over_budget_loads"] = over_budget_loads;
  j["bytes_resident"] = bytes_resident;
  j["peak_bytes_resident"] = peak_bytes_resident;
  j["prepares"] = prepares;
  j["prepared_bytes_resident"] = prepared_bytes_resident;
  j["peak_prepared_bytes"] = peak_prepared_bytes;
  return j;
}

MatrixCache::Lease& MatrixCache::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    release();
    cache_ = other.cache_;
    entry_ = other.entry_;
    other.cache_ = nullptr;
    other.entry_ = nullptr;
  }
  return *this;
}

const sparse::Graph& MatrixCache::Lease::graph() const {
  COSPARSE_CHECK(entry_ != nullptr);
  return entry_->graph;
}

std::shared_ptr<const runtime::PreparedMatrix> MatrixCache::Lease::prepared(
    const sim::SystemConfig& cfg, const runtime::EngineOptions& opts) const {
  COSPARSE_CHECK(entry_ != nullptr);
  return cache_->prepare_entry(entry_, cfg, opts);
}

void MatrixCache::Lease::release() {
  if (cache_ != nullptr && entry_ != nullptr) cache_->release_entry(entry_);
  cache_ = nullptr;
  entry_ = nullptr;
}

MatrixCache::~MatrixCache() = default;

MatrixCache::MatrixCache(const sparse::DatasetRegistry* registry,
                         std::uint64_t budget_bytes, unsigned scale,
                         std::uint64_t dataset_seed)
    : registry_(registry),
      budget_(budget_bytes),
      scale_(scale),
      dataset_seed_(dataset_seed) {
  COSPARSE_CHECK(registry_ != nullptr);
}

std::uint64_t MatrixCache::graph_bytes(const sparse::Graph& g) {
  return g.num_edges() * sizeof(sparse::Triplet) +
         static_cast<std::uint64_t>(g.num_vertices()) * sizeof(Index);
}

MatrixCache::Lease MatrixCache::acquire(const std::string& dataset) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(dataset);
  if (it != entries_.end()) {
    CacheEntry* entry = it->second.get();
    ++entry->pins;  // pin before any wait so eviction can never race in
    entry->lru_seq = ++lru_clock_;
    while (entry->loading) entry->loaded_cv.wait(lock);
    if (entry->failed) {
      const std::string name = entry->name;
      if (--entry->pins == 0) entries_.erase(name);
      throw Error("matrix cache: load of dataset '" + name +
                  "' failed in a concurrent acquire");
    }
    ++stats_.hits;
    return Lease(this, entry);
  }

  // Miss: insert a pinned loading placeholder, load outside the lock
  // (other datasets keep flowing), then charge bytes and evict to fit.
  ++stats_.misses;
  auto owned = std::make_unique<CacheEntry>();
  CacheEntry* entry = owned.get();
  entry->name = dataset;
  entry->pins = 1;
  entry->lru_seq = ++lru_clock_;
  entries_.emplace(dataset, std::move(owned));

  lock.unlock();
  sparse::Graph graph;
  try {
    graph = registry_->load(dataset, scale_, dataset_seed_);
  } catch (...) {
    // Unknown dataset / IO failure: withdraw the placeholder so a later
    // acquire can retry, wake any waiters, and rethrow.
    lock.lock();
    entry->loading = false;
    entry->failed = true;
    entry->loaded_cv.notify_all();
    if (--entry->pins == 0) entries_.erase(dataset);
    throw;
  }

  lock.lock();
  entry->bytes = graph_bytes(graph);
  entry->graph = std::move(graph);
  entry->loading = false;
  entry->loaded_cv.notify_all();

  make_room(entry->bytes);
  stats_.bytes_resident += entry->bytes;
  if (stats_.bytes_resident > budget_) ++stats_.over_budget_loads;
  if (stats_.bytes_resident > stats_.peak_bytes_resident)
    stats_.peak_bytes_resident = stats_.bytes_resident;
  return Lease(this, entry);
}

std::shared_ptr<const runtime::PreparedMatrix> MatrixCache::prepare_entry(
    CacheEntry* entry, const sim::SystemConfig& cfg,
    const runtime::EngineOptions& opts) {
  // The caller's lease pins the entry, so it cannot be evicted (and its
  // latch destroyed) while we hold the latch.
  const std::lock_guard<std::mutex> once(entry->prepare_mu);
  if (entry->prepared != nullptr) {
    COSPARSE_REQUIRE(entry->prepared->key() ==
                         runtime::PreparedMatrix::key_for(cfg, opts),
                     "matrix cache: dataset '" + entry->name +
                         "' was prepared for a different system config");
    return entry->prepared;
  }
  // A throwing build leaves the latch open; the next caller retries.
  auto built = runtime::PreparedMatrix::build(entry->graph.adjacency(), cfg,
                                              opts);
  const std::lock_guard<std::mutex> lock(mu_);
  entry->prepared = built;
  entry->prepared_bytes = built->bytes();
  ++stats_.prepares;
  stats_.prepared_bytes_resident += entry->prepared_bytes;
  if (stats_.prepared_bytes_resident > stats_.peak_prepared_bytes)
    stats_.peak_prepared_bytes = stats_.prepared_bytes_resident;
  return built;
}

void MatrixCache::make_room(std::uint64_t need) {
  // Evict strict-LRU among unpinned, fully-loaded entries until `need`
  // fits; never touch pinned entries (in-flight queries read them).
  while (stats_.bytes_resident + need > budget_) {
    CacheEntry* victim = nullptr;
    for (const auto& [name, entry] : entries_) {
      if (entry->pins > 0 || entry->loading) continue;
      if (victim == nullptr || entry->lru_seq < victim->lru_seq)
        victim = entry.get();
    }
    if (victim == nullptr) return;  // everything pinned: run over budget
    stats_.bytes_resident -= victim->bytes;
    stats_.prepared_bytes_resident -= victim->prepared_bytes;
    ++stats_.evictions;
    const std::string victim_name = victim->name;
    entries_.erase(victim_name);
  }
}

void MatrixCache::release_entry(CacheEntry* entry) {
  const std::lock_guard<std::mutex> lock(mu_);
  COSPARSE_CHECK(entry->pins > 0);
  --entry->pins;
  if (entry->pins == 0 && entry->failed) entries_.erase(entry->name);
}

bool MatrixCache::resident(const std::string& dataset) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.find(dataset) != entries_.end();
}

CacheStats MatrixCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cosparse::serve
