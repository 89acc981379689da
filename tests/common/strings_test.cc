#include "common/strings.h"

#include <gtest/gtest.h>

namespace spate {
namespace {

TEST(StringsTest, SplitKeepsEmptyFields) {
  std::vector<std::string> parts;
  SplitString("a,b,,c,", ',', &parts);
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(parts[4], "");
  // Fields are appended after what `*out` already holds.
  SplitString("d", ',', &parts);
  ASSERT_EQ(parts.size(), 6u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[5], "d");
}

TEST(StringsTest, SplitEmptyInput) {
  std::vector<std::string> parts;
  SplitString("", ',', &parts);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "", "42"};
  EXPECT_EQ(JoinStrings(parts, '|'), "x||42");
  EXPECT_EQ(JoinStrings({}, '|'), "");
}

TEST(StringsTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("12345", &v));
  EXPECT_EQ(v, 12345);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(StringsTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringsTest, LooksNumeric) {
  EXPECT_TRUE(LooksNumeric("123"));
  EXPECT_TRUE(LooksNumeric("-123"));
  EXPECT_FALSE(LooksNumeric(""));
  EXPECT_FALSE(LooksNumeric("-"));
  EXPECT_FALSE(LooksNumeric("12.5"));
  EXPECT_FALSE(LooksNumeric("x1"));
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(5ull * 1024 * 1024 * 1024), "5.00 GB");
}

}  // namespace
}  // namespace spate
