#include "sparse/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "sparse/generate.h"

namespace cosparse::sparse {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string write_file(const std::string& content) {
    const std::string path =
        "/tmp/cosparse_io_test_" + std::to_string(counter_++) + ".tmp";
    std::ofstream out(path);
    out << content;
    out.close();
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  int counter_ = 0;
  std::vector<std::string> paths_;
};

TEST_F(IoTest, MatrixMarketRoundTrip) {
  const Coo m = uniform_random(20, 30, 100, 17, ValueDist::kUniform01);
  const std::string path = write_file("");
  write_matrix_market(path, m);
  const Coo back = read_matrix_market(path);
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.cols(), m.cols());
  ASSERT_EQ(back.nnz(), m.nnz());
  for (std::size_t i = 0; i < m.nnz(); ++i) {
    EXPECT_EQ(back.triplets()[i].row, m.triplets()[i].row);
    EXPECT_EQ(back.triplets()[i].col, m.triplets()[i].col);
    EXPECT_NEAR(back.triplets()[i].value, m.triplets()[i].value, 1e-5);
  }
}

TEST_F(IoTest, MatrixMarketPattern) {
  const auto path = write_file(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% comment\n"
      "3 3 2\n"
      "1 2\n"
      "3 1\n");
  const Coo m = read_matrix_market(path);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.triplets()[0].value, 1.0);
}

TEST_F(IoTest, MatrixMarketSymmetricExpands) {
  const auto path = write_file(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n");
  const Coo m = read_matrix_market(path);
  EXPECT_EQ(m.nnz(), 3u);  // (1,0), (0,1), (2,2)
}

TEST_F(IoTest, MatrixMarketMalformedBanner) {
  const auto path = write_file("%%NotMM matrix coordinate real general\n");
  EXPECT_THROW(read_matrix_market(path), Error);
}

TEST_F(IoTest, MatrixMarketArrayFormatRejected) {
  const auto path = write_file(
      "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  EXPECT_THROW(read_matrix_market(path), Error);
}

TEST_F(IoTest, MatrixMarketOutOfBoundsEntry) {
  const auto path = write_file(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(path), Error);
}

TEST_F(IoTest, MatrixMarketNnzMismatch) {
  const auto path = write_file(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(path), Error);
}

TEST_F(IoTest, MatrixMarketLyingNnzFailsWithoutOverAllocating) {
  // The header claims 10^12 entries but the file holds one: reserving
  // what the header says would throw bad_alloc/length_error instead of
  // the count-mismatch error.
  for (const char* symmetry : {"general", "symmetric"}) {
    const auto path =
        write_file(std::string("%%MatrixMarket matrix coordinate real ") +
                   symmetry + "\n2 2 1000000000000\n1 1 1.0\n");
    try {
      (void)read_matrix_market(path);
      FAIL() << symmetry << ": expected cosparse::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("does not match declared nnz"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market("/nonexistent/file.mtx"), Error);
  EXPECT_THROW(read_edge_list("/nonexistent/file.txt"), Error);
}

TEST_F(IoTest, EdgeListBasic) {
  const auto path = write_file(
      "# SNAP-style comment\n"
      "0 1\n"
      "1 2 2.5\n"
      "2 0\n");
  const Coo g = read_edge_list(path);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.nnz(), 3u);
}

TEST_F(IoTest, EdgeListUndirectedMirrors) {
  const auto path = write_file("0 1\n1 2\n");
  const Coo g = read_edge_list(path, /*undirected=*/true);
  EXPECT_EQ(g.nnz(), 4u);
}

TEST_F(IoTest, EdgeListMalformedLine) {
  const auto path = write_file("0 1\nbroken-line\n");
  EXPECT_THROW(read_edge_list(path), Error);
}

TEST_F(IoTest, EdgeListNegativeVertex) {
  const auto path = write_file("-1 2\n");
  EXPECT_THROW(read_edge_list(path), Error);
}

TEST_F(IoTest, EmptyEdgeListYieldsEmptyMatrix) {
  const auto path = write_file("# nothing\n");
  const Coo g = read_edge_list(path);
  EXPECT_EQ(g.rows(), 0u);
  EXPECT_EQ(g.nnz(), 0u);
}

}  // namespace
}  // namespace cosparse::sparse
