#include "util/number.h"

#include <gtest/gtest.h>

#include <string>

#include "util/check.h"

namespace gpd {
namespace {

TEST(NumberRuleTest, IntegerIsAWholeSignedDecimalToken) {
  EXPECT_EQ(parseInteger("42"), 42);
  EXPECT_EQ(parseInteger("+42"), 42);
  EXPECT_EQ(parseInteger("-42"), -42);
  EXPECT_EQ(parseInteger("-0"), 0);
  EXPECT_EQ(parseInteger("007"), 7);
  EXPECT_EQ(parseInteger("9223372036854775807"), 9223372036854775807LL);
  EXPECT_EQ(parseInteger("-9223372036854775808"),
            std::numeric_limits<long long>::min());
  for (const char* bad : {"", "+", "-", "+-1", "--1", " 1", "1 ", "0x10",
                          "1e9", "nan", "12abc", "1.0",
                          "9223372036854775808", "-9223372036854775809",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parseInteger(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(NumberRuleTest, UnsignedTakesNoMinusSign) {
  EXPECT_EQ(parseUnsigned("0"), 0u);
  EXPECT_EQ(parseUnsigned("+7"), 7u);
  EXPECT_EQ(parseUnsigned("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"-1", "-0", "", "+", "18446744073709551616",
                          "0x1", "1 "}) {
    EXPECT_FALSE(parseUnsigned(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(NumberRuleTest, FieldFaultsNameTheTokenOrTheRange) {
  std::string fault;
  EXPECT_EQ(integerField("3", "count", 1, 5, &fault), 3);
  EXPECT_FALSE(integerField("x3", "count", 1, 5, &fault).has_value());
  EXPECT_EQ(fault, "'x3' is not an integer (count)");
  EXPECT_FALSE(integerField("-1", "count", 0, 5, &fault).has_value());
  EXPECT_EQ(fault, "count -1 out of range [0, 5]");
  EXPECT_EQ(integerIn("-5", "offset"), -5);
  EXPECT_THROW(integerIn("-5", "--idle-pumps", 0, 10), InputError);
  EXPECT_THROW(integerIn("five", "--idle-pumps", 0, 10), InputError);
}

TEST(NumberRuleTest, ProbabilityIsARealInTheUnitInterval) {
  EXPECT_DOUBLE_EQ(probabilityIn("0", "--drop"), 0.0);
  EXPECT_DOUBLE_EQ(probabilityIn("0.25", "--drop"), 0.25);
  EXPECT_DOUBLE_EQ(probabilityIn("1", "--drop"), 1.0);
  for (const char* bad : {"", "1.5", "-0.1", "nan", "0.5x", " 0.5", "x"}) {
    EXPECT_THROW(probabilityIn(bad, "--drop"), InputError) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace gpd
