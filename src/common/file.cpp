#include "common/file.h"

#include <array>
#include <fstream>

#include "common/error.h"

namespace cosparse {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw Error("cannot open " + path);
  std::string out;
  std::array<char, 1 << 16> chunk{};
  // Stops at the cap rather than at a size asked for up front: devices and
  // pipes report no size.
  while (in.read(chunk.data(), chunk.size()) || in.gcount() > 0) {
    const auto n = static_cast<std::size_t>(in.gcount());
    if (out.size() + n > kMaxReadFileBytes) {
      throw Error(path + ": file exceeds the " +
                  std::to_string(kMaxReadFileBytes >> 20) + " MiB read limit");
    }
    out.append(chunk.data(), n);
  }
  if (in.bad()) throw Error("cannot read " + path);
  return out;
}

}  // namespace cosparse
