#include "sparse/datasets.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "sparse/generate.h"
#include "sparse/io.h"
#include "sparse/key_set.h"
#include "sparse/serialize.h"

namespace cosparse::sparse {
namespace {

// Seeds are fixed per dataset so that every bench/test sees the identical
// stand-in graph.
std::uint64_t seed_for(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (char ch : name) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

DatasetRegistry::DatasetRegistry(std::string data_dir)
    : data_dir_(std::move(data_dir)) {
  if (data_dir_.empty()) {
    if (const char* env = std::getenv("COSPARSE_DATA_DIR")) data_dir_ = env;
  }
}

const std::vector<DatasetSpec>& DatasetRegistry::specs() {
  // Paper Table III, verbatim.
  static const std::vector<DatasetSpec> kSpecs = {
      {"livejournal", 4847571, 68992772, /*directed=*/true, /*power_law=*/true,
       2.9e-6},
      {"pokec", 1632803, 30622564, true, true, 1.2e-5},
      {"youtube", 1134890, 2987624, /*directed=*/false, true, 2.3e-6},
      {"twitter", 81306, 1768149, true, true, 2.7e-4},
      {"vsp", 21996, 2442056, /*directed=*/false, /*power_law=*/false, 5.0e-3},
  };
  return kSpecs;
}

const DatasetSpec& DatasetRegistry::spec(const std::string& name) {
  for (const auto& s : specs()) {
    if (s.name == name) return s;
  }
  throw Error("unknown dataset: '" + name +
              "' (expected one of livejournal/pokec/youtube/twitter/vsp)");
}

Graph DatasetRegistry::load(const std::string& name, unsigned scale,
                            std::uint64_t seed_offset) const {
  COSPARSE_REQUIRE(scale >= 1, "dataset scale divisor must be >= 1");
  const DatasetSpec& s = spec(name);

  // Generated stand-ins are deterministic, so they can be cached on disk
  // (COSPARSE_CACHE_DIR) and reloaded instead of regenerated. A nonzero
  // seed offset names a distinct cache entry.
  std::string cache_path;
  if (const char* cache_dir = std::getenv("COSPARSE_CACHE_DIR")) {
    std::filesystem::create_directories(cache_dir);
    const std::string seed_tag =
        seed_offset == 0 ? "" : "_seed" + std::to_string(seed_offset);
    cache_path = (std::filesystem::path(cache_dir) /
                  (name + "_scale" + std::to_string(scale) + seed_tag +
                   ".bin"))
                     .string();
    if (std::filesystem::exists(cache_path)) {
      try {
        return Graph(name, read_binary(cache_path), s.directed);
      } catch (const Error& e) {
        log::warn("ignoring bad dataset cache ", cache_path, ": ", e.what());
      }
    }
  }

  if (!data_dir_.empty()) {
    const auto path = std::filesystem::path(data_dir_) / (name + ".txt");
    if (std::filesystem::exists(path)) {
      log::info("loading real dataset ", name, " from ", path.string());
      return Graph(name, read_edge_list(path.string(), !s.directed),
                   s.directed);
    }
    log::warn("dataset file ", path.string(),
              " not found; falling back to synthetic stand-in");
  }

  const Index vertices = std::max<Index>(16, s.vertices / scale);
  const std::uint64_t edges = std::max<std::uint64_t>(
      vertices, s.edges / scale);
  // Mix the caller's seed offset into the per-name seed; splitmix-style
  // scrambling keeps seed 1 and seed 2 uncorrelated.
  const std::uint64_t seed =
      seed_for(name) ^ (seed_offset * 0x9E3779B97F4A7C15ULL);

  Coo adj;
  if (s.power_law) {
    // R-MAT with standard Graph500-like skew reproduces the heavy-tailed
    // degree distribution of the SNAP social networks. The matrix is
    // generated at the next power-of-two dimension and cropped.
    const auto rmat_scale = static_cast<std::uint32_t>(
        std::ceil(std::log2(static_cast<double>(vertices))));
    Coo square = rmat(rmat_scale, edges, 0.57, 0.19, 0.19, seed,
                      ValueDist::kUniformInt);
    std::vector<Triplet> cropped;
    cropped.reserve(square.nnz());
    for (const auto& t : square.triplets()) {
      // Fold out-of-range coordinates back instead of dropping them so the
      // edge count stays (nearly) exact.
      Triplet folded{t.row % vertices, t.col % vertices, t.value};
      cropped.push_back(folded);
    }
    adj = Coo(vertices, vertices, std::move(cropped));
    // Folding can collide a few edges (Coo combines duplicates); top the
    // count back up with uniform extras so |E| matches the spec exactly.
    if (adj.nnz() < edges) {
      FlatKeySet seen(static_cast<std::size_t>(edges));
      std::vector<Triplet> topped = adj.triplets();
      for (const auto& t : topped) {
        seen.insert((static_cast<std::uint64_t>(t.row) << 32) | t.col);
      }
      Rng rng(seed ^ 0xA5A5A5A5ULL);
      while (topped.size() < edges) {
        const auto r = static_cast<Index>(rng.next_below(vertices));
        const auto c = static_cast<Index>(rng.next_below(vertices));
        if (seen.insert((static_cast<std::uint64_t>(r) << 32) | c)) {
          topped.push_back(
              {r, c, static_cast<Value>(1 + rng.next_below(16))});
        }
      }
      adj = Coo(vertices, vertices, std::move(topped));
    }
  } else {
    adj = uniform_random(vertices, vertices, edges, seed,
                         ValueDist::kUniformInt);
  }

  if (!s.directed) {
    // Mirror edges for undirected graphs (youtube, vsp).
    std::vector<Triplet> sym = adj.triplets();
    sym.reserve(adj.nnz() * 2);
    for (const auto& t : adj.triplets()) {
      if (t.row != t.col) sym.push_back({t.col, t.row, t.value});
    }
    adj = Coo(vertices, vertices, std::move(sym));
  }

  if (!cache_path.empty()) {
    try {
      write_binary(cache_path, adj);
    } catch (const Error& e) {
      log::warn("could not write dataset cache ", cache_path, ": ", e.what());
    }
  }
  return Graph(name, std::move(adj), s.directed);
}

}  // namespace cosparse::sparse
