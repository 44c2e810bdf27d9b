#include "data/csv_stream.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sgm {
namespace {

/// Writes `content` to a unique temp file and returns its path. The name
/// carries the pid and the running test's name: ctest runs each discovered
/// test in its own process, in parallel, so a per-process counter alone
/// would hand every process the same first name.
class TempCsv {
 public:
  explicit TempCsv(const std::string& content) {
    static int counter = 0;
    const testing::TestInfo* test =
        testing::UnitTest::GetInstance()->current_test_info();
    path_ = testing::TempDir() + "/sgm_csv_test_" +
            std::to_string(getpid()) + "_" + test->test_suite_name() + "_" +
            test->name() + "_" + std::to_string(counter++) + ".csv";
    std::ofstream file(path_);
    file << content;
  }
  ~TempCsv() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(CsvVectorStreamTest, LoadsWellFormedFile) {
  TempCsv csv(
      "# cycle,site,x0,x1\n"
      "0,0,1.0,2.0\n"
      "0,1,3.0,4.0\n"
      "1,0,1.5,2.5\n"
      "1,1,3.5,4.5\n");
  auto result = CsvVectorStream::Load(csv.path());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  CsvVectorStream stream = std::move(result).ValueOrDie();
  EXPECT_EQ(stream.num_sites(), 2);
  EXPECT_EQ(stream.dim(), 2u);
  EXPECT_EQ(stream.num_cycles(), 2);

  std::vector<Vector> locals;
  stream.Advance(&locals);
  EXPECT_EQ(locals[0], (Vector{1.0, 2.0}));
  EXPECT_EQ(locals[1], (Vector{3.0, 4.0}));
  stream.Advance(&locals);
  EXPECT_EQ(locals[0], (Vector{1.5, 2.5}));
}

TEST(CsvVectorStreamTest, RepeatsLastFrameAfterEnd) {
  TempCsv csv("0,0,1.0\n1,0,9.0\n");
  CsvVectorStream stream =
      std::move(CsvVectorStream::Load(csv.path())).ValueOrDie();
  std::vector<Vector> locals;
  stream.Advance(&locals);
  stream.Advance(&locals);
  stream.Advance(&locals);  // past the end
  EXPECT_EQ(locals[0], (Vector{9.0}));
}

TEST(CsvVectorStreamTest, ComputesMaxStep) {
  TempCsv csv("0,0,0.0\n1,0,3.0\n2,0,4.0\n");
  CsvVectorStream stream =
      std::move(CsvVectorStream::Load(csv.path())).ValueOrDie();
  EXPECT_DOUBLE_EQ(stream.max_step_norm(), 3.0);
}

TEST(CsvVectorStreamTest, MissingFileIsNotFound) {
  auto result = CsvVectorStream::Load("/nonexistent/definitely_missing.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CsvVectorStreamTest, RejectsInconsistentDimensions) {
  TempCsv csv("0,0,1.0,2.0\n0,1,3.0\n");
  auto result = CsvVectorStream::Load(csv.path());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvVectorStreamTest, RejectsMissingSiteCoverage) {
  TempCsv csv("0,0,1.0\n0,1,2.0\n1,0,3.0\n");  // cycle 1 misses site 1
  auto result = CsvVectorStream::Load(csv.path());
  EXPECT_FALSE(result.ok());
}

TEST(CsvVectorStreamTest, RejectsDuplicateCell) {
  TempCsv csv("0,0,1.0\n0,0,2.0\n");
  auto result = CsvVectorStream::Load(csv.path());
  EXPECT_FALSE(result.ok());
}

TEST(CsvVectorStreamTest, RejectsGarbageNumbers) {
  TempCsv csv("0,0,banana\n");
  auto result = CsvVectorStream::Load(csv.path());
  EXPECT_FALSE(result.ok());
}

/// Two sites over three cycles of 2-d vectors, with `cell` as the second
/// coordinate of the row for cycle 1, site 1 (row 4 of the file).
std::string GridWith(const std::string& cell) {
  return "0,0,1,2\n0,1,1,2\n1,0,1,2\n1,1,1," + cell +
         "\n2,0,1,2\n2,1,1,2\n";
}

TEST(CsvVectorStreamTest, RejectsNanCoordinate) {
  TempCsv csv(GridWith("nan"));
  auto result = CsvVectorStream::Load(csv.path());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("row 4"), std::string::npos)
      << result.status().message();
}

TEST(CsvVectorStreamTest, RejectsCoordinatePastTheDoubleRange) {
  TempCsv csv(GridWith("1e999"));
  auto result = CsvVectorStream::Load(csv.path());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("row 4"), std::string::npos)
      << result.status().message();
  // The same grid with a finite cell loads.
  TempCsv finite(GridWith("1e300"));
  EXPECT_TRUE(CsvVectorStream::Load(finite.path()).ok());
}

TEST(CsvVectorStreamTest, RejectsCycleIndexPastTheIntegerRange) {
  TempCsv csv("0,0,1\n99999999999999999999,0,1\n");
  auto result = CsvVectorStream::Load(csv.path());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("row 2"), std::string::npos)
      << result.status().message();
}

TEST(CsvVectorStreamTest, RejectsIndicesNeedingMoreCellsThanRows) {
  // In range for a long, but no file of 2 rows covers cycle 1000000000000;
  // the loader must refuse it rather than size a frame table by it.
  TempCsv far_cycle("0,0,1\n1000000000000,0,1\n");
  auto result = CsvVectorStream::Load(far_cycle.path());
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("row 2"), std::string::npos)
      << result.status().message();
  TempCsv far_site("0,0,1\n0,9223372036854775807,1\n");
  EXPECT_FALSE(CsvVectorStream::Load(far_site.path()).ok());
  // 2 cycles × 2 sites need 4 rows; a 3-row file naming (1, 1) is refused.
  TempCsv short_grid("0,0,1\n1,0,1\n1,1,1\n");
  EXPECT_FALSE(CsvVectorStream::Load(short_grid.path()).ok());
}

}  // namespace
}  // namespace sgm
