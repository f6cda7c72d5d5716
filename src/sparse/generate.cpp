#include "sparse/generate.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sparse/key_set.h"

namespace cosparse::sparse {
namespace {

Value draw_value(Rng& rng, ValueDist dist) {
  switch (dist) {
    case ValueDist::kOnes:
      return 1.0;
    case ValueDist::kUniform01:
      return 1.0 - rng.next_double();  // (0, 1]: avoid explicit zeros
    case ValueDist::kUniformInt:
      return static_cast<Value>(1 + rng.next_below(16));
  }
  return 1.0;
}

std::uint64_t pack(Index row, Index col) {
  return (static_cast<std::uint64_t>(row) << 32) | col;
}

/// Draws until `nnz` distinct coordinates are collected. `sample` yields a
/// (row, col) pair per call. Rejection is cheap as long as the target
/// density is well below 1, which holds for every workload in the paper
/// (densities <= 5e-3).
template <class Sampler>
Coo fill_distinct(Index rows, Index cols, std::uint64_t nnz, Rng& rng,
                  ValueDist dist, Sampler&& sample) {
  const double cells = static_cast<double>(rows) * static_cast<double>(cols);
  COSPARSE_REQUIRE(static_cast<double>(nnz) <= cells,
                   "requested nnz exceeds matrix capacity");
  FlatKeySet seen(static_cast<std::size_t>(nnz));
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(nnz));
  // For near-full matrices rejection would stall; guard with a generous cap
  // and fall back to dense enumeration (only reachable in tests).
  const std::uint64_t max_draws = nnz * 64 + 1024;
  std::uint64_t draws = 0;
  while (triplets.size() < nnz && draws < max_draws) {
    ++draws;
    auto [r, c] = sample();
    if (seen.insert(pack(r, c))) {
      triplets.push_back({r, c, draw_value(rng, dist)});
    }
  }
  if (triplets.size() < nnz) {
    // Deterministic fallback: enumerate remaining empty cells in order.
    for (Index r = 0; r < rows && triplets.size() < nnz; ++r) {
      for (Index c = 0; c < cols && triplets.size() < nnz; ++c) {
        if (seen.insert(pack(r, c))) {
          triplets.push_back({r, c, draw_value(rng, dist)});
        }
      }
    }
  }
  return Coo(rows, cols, std::move(triplets));
}

/// Cumulative-weight sampler over a power-law weight profile.
class PowerLawSampler {
 public:
  PowerLawSampler(Index n, double exponent) : cum_(n) {
    double acc = 0.0;
    for (Index i = 0; i < n; ++i) {
      acc += std::pow(static_cast<double>(i) + 1.0, -exponent);
      cum_[i] = acc;
    }
    total_ = acc;
  }

  Index draw(Rng& rng) const {
    const double u = rng.next_double() * total_;
    const auto it = std::lower_bound(cum_.begin(), cum_.end(), u);
    return static_cast<Index>(std::min<std::size_t>(
        static_cast<std::size_t>(it - cum_.begin()), cum_.size() - 1));
  }

 private:
  std::vector<double> cum_;
  double total_ = 0.0;
};

}  // namespace

Coo uniform_random(Index rows, Index cols, std::uint64_t nnz,
                   std::uint64_t seed, ValueDist dist) {
  Rng rng(seed, "uniform_random");
  return fill_distinct(rows, cols, nnz, rng, dist, [&] {
    const Index r = static_cast<Index>(rng.next_below(rows));
    const Index c = static_cast<Index>(rng.next_below(cols));
    return std::pair<Index, Index>{r, c};
  });
}

Coo power_law(Index rows, Index cols, std::uint64_t nnz, double beta,
              std::uint64_t seed, ValueDist dist) {
  COSPARSE_REQUIRE(beta > 1.0, "power-law exponent beta must exceed 1");
  Rng rng(seed, "power_law");
  // Chung-Lu: weight exponent is 1/(beta-1) for a degree exponent of beta.
  const double exponent = 1.0 / (beta - 1.0);
  PowerLawSampler row_sampler(rows, exponent);
  PowerLawSampler col_sampler(cols, exponent);
  // Sampled indices are permuted so that the heavy vertices are not all at
  // the front of the index space (matches how NetworkX relabels nodes).
  std::vector<Index> row_perm(rows), col_perm(cols);
  for (Index i = 0; i < rows; ++i) row_perm[i] = i;
  for (Index i = 0; i < cols; ++i) col_perm[i] = i;
  for (Index i = rows; i > 1; --i) {
    std::swap(row_perm[i - 1],
              row_perm[static_cast<Index>(rng.next_below(i))]);
  }
  for (Index i = cols; i > 1; --i) {
    std::swap(col_perm[i - 1],
              col_perm[static_cast<Index>(rng.next_below(i))]);
  }
  return fill_distinct(rows, cols, nnz, rng, dist, [&] {
    const Index r = row_perm[row_sampler.draw(rng)];
    const Index c = col_perm[col_sampler.draw(rng)];
    return std::pair<Index, Index>{r, c};
  });
}

Coo rmat(std::uint32_t scale, std::uint64_t nnz, double a, double b, double c,
         std::uint64_t seed, ValueDist dist) {
  COSPARSE_REQUIRE(scale > 0 && scale < 31, "R-MAT scale out of range");
  const double d = 1.0 - a - b - c;
  COSPARSE_REQUIRE(a >= 0 && b >= 0 && c >= 0 && d >= -1e-9,
                   "R-MAT probabilities must sum to <= 1");
  const Index n = Index{1} << scale;
  Rng rng(seed, "rmat");
  return fill_distinct(n, n, nnz, rng, dist, [&] {
    Index r = 0, col = 0;
    for (std::uint32_t level = 0; level < scale; ++level) {
      const double u = rng.next_double();
      r <<= 1;
      col <<= 1;
      if (u < a) {
        // top-left quadrant: nothing to add
      } else if (u < a + b) {
        col |= 1;
      } else if (u < a + b + c) {
        r |= 1;
      } else {
        r |= 1;
        col |= 1;
      }
    }
    return std::pair<Index, Index>{r, col};
  });
}

Coo banded(Index rows, Index cols, Index bandwidth, std::uint64_t nnz,
           std::uint64_t seed, ValueDist dist) {
  // In-band capacity: for each row, columns [max(0, r - bw), min(cols - 1,
  // r + bw)]. fill_distinct is not usable here — its dense-enumeration
  // fallback would place elements outside the band — so the generator does
  // its own rejection sampling with an in-band-only fallback.
  std::uint64_t capacity = 0;
  for (Index r = 0; r < rows; ++r) {
    const Index lo = r > bandwidth ? r - bandwidth : 0;
    const Index hi = std::min<Index>(cols > 0 ? cols - 1 : 0, r + bandwidth);
    if (cols > 0 && hi >= lo) capacity += hi - lo + 1;
  }
  COSPARSE_REQUIRE(nnz <= capacity, "requested nnz exceeds band capacity");
  Rng rng(seed, "banded");
  FlatKeySet seen(static_cast<std::size_t>(nnz));
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(nnz));
  const std::uint64_t max_draws = nnz * 64 + 1024;
  std::uint64_t draws = 0;
  while (triplets.size() < nnz && draws < max_draws) {
    ++draws;
    const Index r = static_cast<Index>(rng.next_below(rows));
    const Index lo = r > bandwidth ? r - bandwidth : 0;
    const Index hi = std::min<Index>(cols - 1, r + bandwidth);
    if (hi < lo) continue;  // row has no in-band columns (cols << rows)
    const Index c =
        lo + static_cast<Index>(rng.next_below(hi - lo + std::uint64_t{1}));
    if (seen.insert(pack(r, c))) {
      triplets.push_back({r, c, draw_value(rng, dist)});
    }
  }
  // Near-full bands stall rejection; finish by enumerating the remaining
  // in-band cells in order (deterministic).
  for (Index r = 0; r < rows && triplets.size() < nnz; ++r) {
    const Index lo = r > bandwidth ? r - bandwidth : 0;
    const Index hi = std::min<Index>(cols - 1, r + bandwidth);
    for (Index c = lo; c <= hi && triplets.size() < nnz; ++c) {
      if (seen.insert(pack(r, c))) {
        triplets.push_back({r, c, draw_value(rng, dist)});
      }
    }
  }
  return Coo(rows, cols, std::move(triplets));
}

Coo single_entry(Index rows, Index cols, std::uint64_t seed, ValueDist dist) {
  COSPARSE_REQUIRE(rows > 0 && cols > 0,
                   "single_entry needs a non-empty shape");
  Rng rng(seed, "single_entry");
  const Index r = static_cast<Index>(rng.next_below(rows));
  const Index c = static_cast<Index>(rng.next_below(cols));
  std::vector<Triplet> triplets{{r, c, draw_value(rng, dist)}};
  return Coo(rows, cols, std::move(triplets));
}

Coo with_empty_slices(const Coo& m, double row_fraction, double col_fraction,
                      std::uint64_t seed) {
  COSPARSE_REQUIRE(row_fraction >= 0.0 && row_fraction <= 1.0 &&
                       col_fraction >= 0.0 && col_fraction <= 1.0,
                   "empty-slice fractions must be in [0, 1]");
  Rng rng(seed, "with_empty_slices");
  std::vector<std::uint8_t> kill_row(m.rows(), 0);
  std::vector<std::uint8_t> kill_col(m.cols(), 0);
  for (auto& k : kill_row) k = rng.next_bool(row_fraction) ? 1 : 0;
  for (auto& k : kill_col) k = rng.next_bool(col_fraction) ? 1 : 0;
  std::vector<Triplet> triplets;
  triplets.reserve(m.triplets().size());
  for (const Triplet& t : m.triplets()) {
    if (kill_row[t.row] || kill_col[t.col]) continue;
    triplets.push_back(t);
  }
  return Coo(m.rows(), m.cols(), std::move(triplets));
}

SparseVector random_sparse_vector(Index dimension, double density,
                                  std::uint64_t seed, ValueDist dist) {
  COSPARSE_REQUIRE(density >= 0.0 && density <= 1.0,
                   "vector density must be in [0, 1]");
  const auto target = static_cast<std::uint64_t>(
      std::ceil(density * static_cast<double>(dimension)));
  Rng rng(seed, "random_sparse_vector");
  std::unordered_set<Index> chosen;
  chosen.reserve(static_cast<std::size_t>(target) * 2);
  while (chosen.size() < target) {
    chosen.insert(static_cast<Index>(rng.next_below(dimension)));
  }
  std::vector<Index> idx(chosen.begin(), chosen.end());
  std::sort(idx.begin(), idx.end());
  SparseVector out(dimension);
  for (Index i : idx) out.push_back(i, draw_value(rng, dist));
  return out;
}

DenseVector random_dense_vector(Index dimension, std::uint64_t seed,
                                ValueDist dist) {
  Rng rng(seed, "random_dense_vector");
  DenseVector out(dimension);
  for (Index i = 0; i < dimension; ++i) out[i] = draw_value(rng, dist);
  return out;
}

}  // namespace cosparse::sparse
