#include "data/csv_stream.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

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

TEST(CsvEventStreamTest, BuildsWindowedCounts) {
  TempCsv csv(
      "# site,category\n"
      "0,0\n0,1\n0,1\n"
      "1,2\n1,2\n");
  auto result = CsvEventStream::Load(csv.path(), /*num_sites=*/2,
                                     /*window=*/2, /*dim=*/3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  CsvEventStream stream = std::move(result).ValueOrDie();

  std::vector<Vector> locals;
  stream.Advance(&locals);  // site0: [0], site1: [2]
  EXPECT_EQ(locals[0], (Vector{1.0, 0.0, 0.0}));
  EXPECT_EQ(locals[1], (Vector{0.0, 0.0, 1.0}));
  stream.Advance(&locals);  // site0: [0,1], site1: [2,2]
  EXPECT_EQ(locals[0], (Vector{1.0, 1.0, 0.0}));
  EXPECT_EQ(locals[1], (Vector{0.0, 0.0, 2.0}));
  stream.Advance(&locals);  // site0 window slides to [1,1]; site1 replays
  EXPECT_EQ(locals[0], (Vector{0.0, 2.0, 0.0}));
  EXPECT_EQ(locals[1], (Vector{0.0, 0.0, 2.0}));
}

TEST(CsvEventStreamTest, UncountedPlaceholderAllowed) {
  TempCsv csv("0,3\n");  // category == dim: occupies a slot, counts nowhere
  auto result = CsvEventStream::Load(csv.path(), 1, 2, 3);
  ASSERT_TRUE(result.ok());
  CsvEventStream stream = std::move(result).ValueOrDie();
  std::vector<Vector> locals;
  stream.Advance(&locals);
  EXPECT_EQ(locals[0], (Vector{0.0, 0.0, 0.0}));
}

TEST(CsvEventStreamTest, RejectsOutOfRange) {
  TempCsv bad_site("5,0\n");
  EXPECT_FALSE(CsvEventStream::Load(bad_site.path(), 2, 2, 3).ok());
  TempCsv bad_category("0,7\n");
  EXPECT_FALSE(CsvEventStream::Load(bad_category.path(), 2, 2, 3).ok());
}

TEST(CsvEventStreamTest, DriftCapMatchesWindow) {
  TempCsv csv("0,0\n");
  CsvEventStream stream =
      std::move(CsvEventStream::Load(csv.path(), 1, 50, 3)).ValueOrDie();
  EXPECT_NEAR(stream.max_drift_norm(), std::sqrt(2.0) * 50.0, 1e-12);
}

}  // namespace
}  // namespace sgm
