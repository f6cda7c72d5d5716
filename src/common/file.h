// Bounded whole-file reads for the JSON documents, source files and
// profiles the tools load.
#pragma once

#include <cstddef>
#include <string>

namespace cosparse {

/// Largest file read_file() accepts. The biggest committed input (the
/// golden run report) is under 64 KB, so this only stops a hostile or
/// unbounded input such as /dev/zero before it exhausts memory.
inline constexpr std::size_t kMaxReadFileBytes = std::size_t{64} << 20;

/// Reads the whole file at `path` in fixed-size chunks. Throws
/// cosparse::Error naming the path when it cannot be opened or read, or
/// when it holds more than kMaxReadFileBytes.
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace cosparse
