// The exit contract every BENCH gate in CI relies on (bench/bench_harness.h):
// BenchReport::Finish returns 1 exactly when a gate is false and names it, a
// smoke run writes no file, a full run writes the one BENCH shape, and an
// unknown flag exits 2.

#include "bench_harness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "util/json.h"

namespace foresight {
namespace {

/// Runs each test in an empty directory of its own: Finish writes
/// BENCH_<bench>.json into the working directory.
class BenchHarnessTest : public testing::Test {
 protected:
  BenchHarnessTest()
      : previous_(std::filesystem::current_path()),
        dir_(testing::TempDir() + "/foresight_bench_harness_" +
             testing::UnitTest::GetInstance()->current_test_info()->name()) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    std::filesystem::current_path(dir_);
  }

  ~BenchHarnessTest() override {
    std::filesystem::current_path(previous_);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Finish's exit code, with its stdout in `out`.
  static int Finish(const BenchReport& report, bool smoke, std::string* out) {
    testing::internal::CaptureStdout();
    const int code = report.Finish(smoke);
    *out = testing::internal::GetCapturedStdout();
    return code;
  }

  std::vector<std::filesystem::path> Files() const {
    return {std::filesystem::directory_iterator(dir_),
            std::filesystem::directory_iterator()};
  }

 private:
  std::filesystem::path previous_;
  std::filesystem::path dir_;
};

BenchWorkload Workload(const std::string& label, bool holds) {
  BenchWorkload workload{label};
  workload.end_to_end.Set("ms", 1.5);
  workload.gates.Set("holds", holds);
  return workload;
}

std::set<std::string> Keys(const JsonValue& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.items()) keys.insert(key);
  return keys;
}

TEST_F(BenchHarnessTest, FinishFailsAndNamesAFalseGate) {
  for (bool smoke : {true, false}) {
    BenchReport report("harness_test", 1);
    report.Add(Workload("passing", true));
    report.Add(Workload("failing", false));
    std::string out;
    EXPECT_EQ(Finish(report, smoke, &out), 1) << "smoke " << smoke;
    EXPECT_NE(out.find("GATE FAILED: failing: holds"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("GATE FAILED: passing"), std::string::npos) << out;
  }
}

TEST_F(BenchHarnessTest, FinishPassesWhenEveryGateHolds) {
  BenchReport report("harness_test", 1);
  report.Add(Workload("first", true));
  report.Add(Workload("second", true));
  std::string out;
  EXPECT_EQ(Finish(report, /*smoke=*/true, &out), 0);
  EXPECT_EQ(out.find("GATE FAILED"), std::string::npos) << out;
}

TEST_F(BenchHarnessTest, SmokeWritesNoFile) {
  BenchReport report("harness_test", 1);
  report.Add(Workload("only", true));
  std::string out;
  ASSERT_EQ(Finish(report, /*smoke=*/true, &out), 0);
  EXPECT_TRUE(Files().empty());
}

TEST_F(BenchHarnessTest, FullRunWritesTheBenchShape) {
  BenchReport report("harness_test", 1);
  report.Add(Workload("only", true));
  std::string out;
  ASSERT_EQ(Finish(report, /*smoke=*/false, &out), 0);
  ASSERT_EQ(Files().size(), 1u);
  std::ifstream file("BENCH_harness_test.json");
  ASSERT_TRUE(file.good());
  const std::string text{std::istreambuf_iterator<char>(file),
                         std::istreambuf_iterator<char>()};
  auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(Keys(*doc),
            (std::set<std::string>{"bench", "environment", "workloads"}));
  EXPECT_EQ(doc->Get("bench")->as_string(), "harness_test");
  const JsonValue& workloads = *doc->Get("workloads");
  ASSERT_EQ(workloads.size(), 1u);
  const JsonValue& workload = workloads.at(0);
  ASSERT_EQ(Keys(workload),
            (std::set<std::string>{"label", "end_to_end", "gates"}));
  EXPECT_TRUE(workload.Get("gates")->Get("holds")->as_bool());
}

TEST(BenchHarnessDeathTest, UnknownFlagExitsTwo) {
  char program[] = "bench_test";
  char flag[] = "--bogus";
  char* argv[] = {program, flag};
  EXPECT_EXIT(ParseBenchFlags(2, argv, {"--smoke"}),
              testing::ExitedWithCode(2), "unknown flag: --bogus");
}

}  // namespace
}  // namespace foresight
