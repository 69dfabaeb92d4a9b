/**
 * @file
 * Unit tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include "base/args.hh"

namespace {

using lia::ArgParser;

ArgParser
parse(std::initializer_list<const char *> argv)
{
    std::vector<const char *> v(argv);
    return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(ArgParserTest, KeyValuePairs)
{
    const auto args = parse({"prog", "--system", "SPR-A100",
                             "--batch", "64"});
    EXPECT_EQ(args.getString("system", ""), "SPR-A100");
    EXPECT_EQ(args.getInt("batch", 0), 64);
    EXPECT_EQ(args.program(), "prog");
}

TEST(ArgParserTest, EqualsSyntax)
{
    const auto args = parse({"prog", "--model=OPT-30B", "--slo=2.5"});
    EXPECT_EQ(args.getString("model", ""), "OPT-30B");
    EXPECT_DOUBLE_EQ(args.getDouble("slo", 0), 2.5);
}

TEST(ArgParserTest, BareFlags)
{
    const auto args = parse({"prog", "--verbose", "--cxl"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_TRUE(args.has("cxl"));
    EXPECT_FALSE(args.has("quiet"));
}

TEST(ArgParserTest, FlagFollowedByOption)
{
    const auto args = parse({"prog", "--dry-run", "--batch", "8"});
    EXPECT_TRUE(args.has("dry-run"));
    EXPECT_EQ(args.getString("dry-run", "x"), "");
    EXPECT_EQ(args.getInt("batch", 0), 8);
}

TEST(ArgParserTest, PositionalArguments)
{
    const auto args = parse({"prog", "plan", "--lin", "128", "extra"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "plan");
    EXPECT_EQ(args.positional()[1], "extra");
}

TEST(ArgParserTest, FallbacksWhenAbsent)
{
    const auto args = parse({"prog"});
    EXPECT_EQ(args.getString("missing", "dflt"), "dflt");
    EXPECT_EQ(args.getInt("missing", 42), 42);
    EXPECT_DOUBLE_EQ(args.getDouble("missing", 1.5), 1.5);
    EXPECT_TRUE(args.positional().empty());
}

TEST(ArgParserTest, LastOccurrenceWins)
{
    const auto args = parse({"prog", "--b", "1", "--b", "2"});
    EXPECT_EQ(args.getInt("b", 0), 2);
}

TEST(ArgParserTest, TypedPositionals)
{
    const auto args = parse({"prog", "60", "--x", "y", "-2.5"});
    EXPECT_EQ(args.positionalInt(0, 0), 60);
    EXPECT_DOUBLE_EQ(args.positionalDouble(1, 0), -2.5);
    EXPECT_EQ(args.positionalInt(2, 7), 7);
    EXPECT_DOUBLE_EQ(args.positionalDouble(5, 1.5), 1.5);
}

// A value that does not parse completely is a user error: it exits
// through LIA_FATAL naming the argument instead of reading as a prefix
// or as 0.
TEST(ArgParserDeathTest, TrailingGarbageIsFatal)
{
    const auto args = parse({"prog", "--batch", "12x", "30y"});
    EXPECT_EXIT(args.getInt("batch", 0), testing::ExitedWithCode(1),
                "fatal: --batch expects an integer, got '12x'");
    EXPECT_EXIT(args.positionalInt(0, 0), testing::ExitedWithCode(1),
                "fatal: argument 1 expects an integer, got '30y'");
    const auto dbl = parse({"prog", "--slo=2.5s", "1.5.0"});
    EXPECT_EXIT(dbl.getDouble("slo", 0), testing::ExitedWithCode(1),
                "fatal: --slo expects a number, got '2.5s'");
    EXPECT_EXIT(dbl.positionalDouble(0, 0), testing::ExitedWithCode(1),
                "fatal: argument 1 expects a number");
}

TEST(ArgParserDeathTest, NonNumericValueIsFatal)
{
    const auto args = parse({"prog", "--batch", "x", "--rate=fast",
                             "many"});
    EXPECT_EXIT(args.getInt("batch", 0), testing::ExitedWithCode(1),
                "fatal: --batch expects an integer, got 'x'");
    EXPECT_EXIT(args.getDouble("rate", 0), testing::ExitedWithCode(1),
                "fatal: --rate expects a number, got 'fast'");
    EXPECT_EXIT(args.positionalDouble(0, 0), testing::ExitedWithCode(1),
                "fatal: argument 1 expects a number, got 'many'");
}

TEST(ArgParserDeathTest, OverflowingValueIsFatal)
{
    const auto args = parse({"prog", "--batch",
                             "99999999999999999999", "--rate", "1e999",
                             "-99999999999999999999"});
    EXPECT_EXIT(args.getInt("batch", 0), testing::ExitedWithCode(1),
                "fatal: --batch is out of range");
    EXPECT_EXIT(args.getDouble("rate", 0), testing::ExitedWithCode(1),
                "fatal: --rate is out of range");
    EXPECT_EXIT(args.positionalInt(0, 0), testing::ExitedWithCode(1),
                "fatal: argument 1 is out of range");
}

} // namespace
