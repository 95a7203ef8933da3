#include "src/base/json.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace ice {
namespace {

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nnext"), "line\\nnext");
  EXPECT_EQ(JsonEscape("col\tcol"), "col\\tcol");
  EXPECT_EQ(JsonEscape(std::string("bell\x07") + '\0' + "\r"), "bell\\u0007\\u0000\\u000d");
  // Printable ASCII and UTF-8 bytes pass through unchanged.
  EXPECT_EQ(JsonEscape("lru_cfs caf\xc3\xa9"), "lru_cfs caf\xc3\xa9");
}

TEST(JsonNumTest, RoundTripsExactlyThroughStrtod) {
  for (double v : {0.1, 1e-300, 1.0 / 3.0, 42.5, -7.25, 1.7976931348623157e308}) {
    const std::string text = JsonNum(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
  EXPECT_EQ(JsonNum(0.1), "0.10000000000000001");
  // Integral values print without a fraction (the reports rely on it).
  EXPECT_EQ(JsonNum(30.0), "30");
}

MergeHistogram::Options SmallShape() {
  MergeHistogram::Options o;
  o.lo = 1.0;
  o.hi = 100.0;
  o.buckets = 2;  // [1, 10) and [10, 100), plus underflow and overflow.
  return o;
}

std::string HistogramJson(const MergeHistogram& h) {
  std::ostringstream out;
  AppendJsonHistogram(out, "h", h);
  return out.str();
}

TEST(JsonHistogramTest, EmptyHistogramIsCountOnly) {
  EXPECT_EQ(HistogramJson(MergeHistogram(SmallShape())), "\"h\": {\"count\": 0}");
}

TEST(JsonHistogramTest, FilledHistogramCarriesStatsAndSparseBuckets) {
  MergeHistogram h(SmallShape());
  h.Add(2.0);
  h.Add(3.0);
  h.Add(50.0);
  // Bucket 0 (underflow) and 3 (overflow) are empty, so they are omitted.
  EXPECT_EQ(HistogramJson(h), "\"h\": {\"count\": 3, \"sum\": 55, \"min\": 2, \"max\": 50, "
                              "\"p50\": " + JsonNum(h.Percentile(0.5)) +
                                  ", \"p90\": " + JsonNum(h.Percentile(0.9)) +
                                  ", \"p99\": " + JsonNum(h.Percentile(0.99)) +
                                  ", \"buckets\": [[1, 2], [2, 1]]}");
}

TEST(WriteJsonFileTest, CreatesParentDirectoriesAndWritesText) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "json_test_write";
  std::filesystem::remove_all(root);
  const std::string path = (root / "a" / "b" / "out.json").string();
  EXPECT_EQ(WriteJsonFile(path, "{\"k\": 1}\n"), path);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "{\"k\": 1}\n");
  std::filesystem::remove_all(root);
}

TEST(WriteJsonFileTest, ReportsFailureWithEmptyPath) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "json_test_fail";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  // A regular file where a parent directory should go.
  std::ofstream(root / "file") << "x";
  EXPECT_EQ(WriteJsonFile((root / "file" / "out.json").string(), "{}"), "");
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace ice
