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

}  // namespace
}  // namespace sgm
