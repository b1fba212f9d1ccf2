/** @file Unit tests for util/string_utils.hh. */

#include "util/string_utils.hh"

#include <gtest/gtest.h>

namespace specfetch {
namespace {

TEST(StringUtils, SplitBasic)
{
    auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");
}

TEST(StringUtils, SplitPreservesEmptyFields)
{
    auto parts = split(",x,,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "");
    EXPECT_EQ(parts[1], "x");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "");
}

TEST(StringUtils, SplitNoSeparator)
{
    auto parts = split("hello", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "hello");
}

TEST(StringUtils, Trim)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("\t x \n"), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(StringUtils, ToLower)
{
    EXPECT_EQ(toLower("AbC"), "abc");
    EXPECT_EQ(toLower("123!X"), "123!x");
}

TEST(StringUtils, FormatFixed)
{
    EXPECT_EQ(formatFixed(1.2345, 2), "1.23");
    EXPECT_EQ(formatFixed(1.2355, 2), "1.24");
    EXPECT_EQ(formatFixed(0.0, 3), "0.000");
    EXPECT_EQ(formatFixed(-2.5, 1), "-2.5");
}

TEST(StringUtils, FormatWithCommas)
{
    EXPECT_EQ(formatWithCommas(0), "0");
    EXPECT_EQ(formatWithCommas(999), "999");
    EXPECT_EQ(formatWithCommas(1000), "1,000");
    EXPECT_EQ(formatWithCommas(1234567), "1,234,567");
    EXPECT_EQ(formatWithCommas(1000000000ull), "1,000,000,000");
}

TEST(StringUtils, ParseCountPlain)
{
    uint64_t v = 0;
    ASSERT_TRUE(parseCount("1234", v));
    EXPECT_EQ(v, 1234u);
}

TEST(StringUtils, ParseCountSuffixes)
{
    uint64_t v = 0;
    ASSERT_TRUE(parseCount("2K", v));
    EXPECT_EQ(v, 2000u);
    ASSERT_TRUE(parseCount("3M", v));
    EXPECT_EQ(v, 3'000'000u);
    ASSERT_TRUE(parseCount("1G", v));
    EXPECT_EQ(v, 1'000'000'000u);
    ASSERT_TRUE(parseCount("5m", v));    // case-insensitive
    EXPECT_EQ(v, 5'000'000u);
}

TEST(StringUtils, ParseSizeBinarySuffixes)
{
    uint64_t v = 0;
    ASSERT_TRUE(parseSize("8K", v));
    EXPECT_EQ(v, 8192u);
    ASSERT_TRUE(parseSize("32KB", v));
    EXPECT_EQ(v, 32768u);
    ASSERT_TRUE(parseSize("2M", v));
    EXPECT_EQ(v, 2u * 1024 * 1024);
}

TEST(StringUtils, ParseCountRejectsGarbage)
{
    uint64_t v = 0;
    EXPECT_FALSE(parseCount("", v));
    EXPECT_FALSE(parseCount("abc", v));
    EXPECT_FALSE(parseCount("12x", v));
    EXPECT_FALSE(parseCount("K", v));
    EXPECT_FALSE(parseCount("KB", v));
    // Overflow is an error, not a wrapped or saturated value.
    EXPECT_FALSE(parseCount("18446744073709551616", v));
    EXPECT_FALSE(parseCount("18446744074G", v));
    EXPECT_FALSE(parseSize("17179869184G", v));
    EXPECT_TRUE(parseCount("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(StringUtils, ParseBool)
{
    bool v = false;
    ASSERT_TRUE(parseBool("true", v));
    EXPECT_TRUE(v);
    ASSERT_TRUE(parseBool("Yes", v));
    EXPECT_TRUE(v);
    ASSERT_TRUE(parseBool("0", v));
    EXPECT_FALSE(v);
    ASSERT_TRUE(parseBool("off", v));
    EXPECT_FALSE(v);
    EXPECT_FALSE(parseBool("maybe", v));
}

} // namespace
} // namespace specfetch
