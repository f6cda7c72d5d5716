#include "sparse/io.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace cosparse::sparse {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

Coo read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open Matrix Market file: " + path);

  std::string line;
  if (!std::getline(in, line)) throw Error(path + ": empty file");
  std::istringstream banner(line);
  std::string mm, object, format, field, symmetry;
  banner >> mm >> object >> format >> field >> symmetry;
  if (lower(mm) != "%%matrixmarket" || lower(object) != "matrix")
    throw Error(path + ": not a Matrix Market matrix file");
  if (lower(format) != "coordinate")
    throw Error(path + ": only coordinate format is supported");
  field = lower(field);
  symmetry = lower(symmetry);
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer")
    throw Error(path + ": unsupported field type '" + field + "'");
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general")
    throw Error(path + ": unsupported symmetry '" + symmetry + "'");

  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream sizes(line);
  long long rows = 0, cols = 0, declared_nnz = 0;
  if (!(sizes >> rows >> cols >> declared_nnz) || rows <= 0 || cols <= 0 ||
      declared_nnz < 0)
    throw Error(path + ": malformed size line");

  // The header's nnz is untrusted: reserve no more entries than the rest
  // of the file can hold. An entry line is at least "r c" plus a newline,
  // so n entries need at least 4n - 1 bytes; a header that overstates its
  // nnz then fails the count check below instead of over-allocating.
  std::uint64_t fits = 0;
  const std::streamoff here = in.tellg();
  std::error_code size_error;
  const std::uintmax_t file_bytes =
      std::filesystem::file_size(path, size_error);
  if (here >= 0 && !size_error &&
      file_bytes > static_cast<std::uintmax_t>(here)) {
    fits = (file_bytes - static_cast<std::uintmax_t>(here) + 1) / 4;
  }
  const std::uint64_t reserve_entries =
      std::min(static_cast<std::uint64_t>(declared_nnz), fits);
  std::vector<Triplet> triplets;
  triplets.reserve(
      static_cast<std::size_t>(reserve_entries * (symmetric ? 2 : 1)));
  long long count = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    long long r = 0, c = 0;
    double v = 1.0;
    if (!(ls >> r >> c)) throw Error(path + ": malformed entry line: " + line);
    if (!pattern && !(ls >> v))
      throw Error(path + ": entry missing value: " + line);
    if (r < 1 || r > rows || c < 1 || c > cols)
      throw Error(path + ": entry index out of declared bounds: " + line);
    const auto ri = static_cast<Index>(r - 1);
    const auto ci = static_cast<Index>(c - 1);
    triplets.push_back({ri, ci, v});
    if (symmetric && ri != ci) triplets.push_back({ci, ri, v});
    ++count;
  }
  if (count != declared_nnz)
    throw Error(path + ": entry count " + std::to_string(count) +
                " does not match declared nnz " + std::to_string(declared_nnz));
  return Coo(static_cast<Index>(rows), static_cast<Index>(cols),
             std::move(triplets));
}

void write_matrix_market(const std::string& path, const Coo& coo) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open output file: " + path);
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << coo.rows() << ' ' << coo.cols() << ' ' << coo.nnz() << '\n';
  for (const auto& t : coo.triplets()) {
    out << (t.row + 1) << ' ' << (t.col + 1) << ' ' << t.value << '\n';
  }
  if (!out) throw Error("error writing: " + path);
}

Coo read_edge_list(const std::string& path, bool undirected) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open edge list file: " + path);
  std::vector<Triplet> triplets;
  Index max_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    long long u = 0, v = 0;
    double w = 1.0;
    if (!(ls >> u >> v)) throw Error(path + ": malformed edge line: " + line);
    ls >> w;  // optional weight
    if (u < 0 || v < 0) throw Error(path + ": negative vertex id: " + line);
    const auto ui = static_cast<Index>(u);
    const auto vi = static_cast<Index>(v);
    max_id = std::max({max_id, ui, vi});
    triplets.push_back({ui, vi, w});
    if (undirected && ui != vi) triplets.push_back({vi, ui, w});
  }
  const Index n = triplets.empty() ? 0 : max_id + 1;
  return Coo(n, n, std::move(triplets));
}

}  // namespace cosparse::sparse
