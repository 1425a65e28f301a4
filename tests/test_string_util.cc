#include "util/string_util.h"

#include <gtest/gtest.h>

namespace foresight {
namespace {

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" a b "), "a b");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("  7 "), 7.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("+4.25"), 4.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
}

TEST(ParseDoubleTest, RejectsInvalidInput) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("3.5x").has_value());
  EXPECT_FALSE(ParseDouble("1 2").has_value());
  EXPECT_FALSE(ParseDouble("--3").has_value());
}

TEST(ParseInt64Test, ParsesAndRejects) {
  EXPECT_EQ(*ParseInt64("42"), 42);
  EXPECT_EQ(*ParseInt64("-17"), -17);
  EXPECT_EQ(*ParseInt64("+8"), 8);
  EXPECT_FALSE(ParseInt64("3.5").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("12a").has_value());
}

TEST(ParseSizeFlagTest, MatchesItsPrefixAndRejectsBadValues) {
  size_t out = 7;
  bool bad = false;
  EXPECT_TRUE(ParseSizeFlag("--rows=42", "--rows=", &out, &bad));
  EXPECT_EQ(out, 42u);
  EXPECT_FALSE(bad);

  // Another flag's prefix is not a match: nothing is touched.
  out = 7;
  EXPECT_FALSE(ParseSizeFlag("--workers=3", "--rows=", &out, &bad));
  EXPECT_FALSE(ParseSizeFlag("--rows", "--rows=", &out, &bad));
  EXPECT_EQ(out, 7u);
  EXPECT_FALSE(bad);

  // A match with a bad value flags it and leaves *out alone.
  for (const char* arg : {"--rows=-1", "--rows=", "--rows=12x",
                          "--rows=99999999999999999999"}) {
    SCOPED_TRACE(arg);
    out = 7;
    bad = false;
    EXPECT_TRUE(ParseSizeFlag(arg, "--rows=", &out, &bad));
    EXPECT_TRUE(bad);
    EXPECT_EQ(out, 7u);
  }
}

TEST(IsMissingTokenTest, RecognizesConventionalMarkers) {
  EXPECT_TRUE(IsMissingToken(""));
  EXPECT_TRUE(IsMissingToken("   "));
  EXPECT_TRUE(IsMissingToken("NA"));
  EXPECT_TRUE(IsMissingToken("n/a"));
  EXPECT_TRUE(IsMissingToken("NaN"));
  EXPECT_TRUE(IsMissingToken("NULL"));
  EXPECT_TRUE(IsMissingToken("None"));
  EXPECT_TRUE(IsMissingToken("?"));
  EXPECT_FALSE(IsMissingToken("0"));
  EXPECT_FALSE(IsMissingToken("nap"));
  EXPECT_FALSE(IsMissingToken("value"));
}

TEST(IsMissingTokenTest, FoldsCaseAndTrimsWithoutNearMisses) {
  EXPECT_TRUE(IsMissingToken("nA"));
  EXPECT_TRUE(IsMissingToken("N/a"));
  EXPECT_TRUE(IsMissingToken("nUlL"));
  EXPECT_TRUE(IsMissingToken("NoNe"));
  EXPECT_TRUE(IsMissingToken("nAn"));
  EXPECT_TRUE(IsMissingToken(" \t NA \r\n"));
  EXPECT_TRUE(IsMissingToken("  ?  "));
  // One byte past the longest marker, and markers with a byte more or less.
  EXPECT_FALSE(IsMissingToken("nulls"));
  EXPECT_FALSE(IsMissingToken("nones"));
  EXPECT_FALSE(IsMissingToken("NULLS"));
  EXPECT_FALSE(IsMissingToken("n"));
  EXPECT_FALSE(IsMissingToken("nul"));
  EXPECT_FALSE(IsMissingToken("n a"));
  EXPECT_FALSE(IsMissingToken("??"));
  EXPECT_FALSE(IsMissingToken("  none none  "));
  // Bytes outside ASCII are compared as they are, never case-folded.
  EXPECT_FALSE(IsMissingToken("\xC3\x91" "A"));
  EXPECT_FALSE(IsMissingToken("N\xC1"));
  EXPECT_FALSE(IsMissingToken("\xCE\xC1"));
  EXPECT_FALSE(IsMissingToken("\xFF"));
  EXPECT_FALSE(IsMissingToken(std::string_view("na\0", 3)));
}

TEST(FormatDoubleTest, ProducesCompactRepresentation) {
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(100.0), "100");
  EXPECT_EQ(FormatDouble(-2.25, 3), "-2.25");
}

}  // namespace
}  // namespace foresight
