#include "common/file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.h"

namespace cosparse {
namespace {

TEST(ReadFile, ReturnsEveryByteAcrossChunks) {
  const std::string path = ::testing::TempDir() + "read_file_multi_chunk.bin";
  std::string text(200'000, '\0');
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<char>(i * 31 % 251);
  }
  std::ofstream(path, std::ios::binary) << text;
  EXPECT_EQ(read_file(path), text);
}

TEST(ReadFile, MissingPathThrowsNamingIt) {
  const std::string path = "/nonexistent/read_file_missing.json";
  try {
    (void)read_file(path);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(ReadFile, UnboundedDeviceStopsAtTheCap) {
  if (!std::filesystem::exists("/dev/zero")) GTEST_SKIP() << "no /dev/zero";
  try {
    (void)read_file("/dev/zero");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("/dev/zero"), std::string::npos);
    EXPECT_NE(what.find("64 MiB"), std::string::npos);
  }
}

}  // namespace
}  // namespace cosparse
