/**
 * @file
 * Unit tests for the common utilities: RNG, strings, tables, errors.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "common/table.hh"

namespace qompress {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= (a() != b());
    EXPECT_TRUE(any_diff);
}

TEST(Rng, NextUintRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextUint(17), 17u);
}

TEST(Rng, NextIntInclusiveRange)
{
    Rng rng(7);
    std::set<int> seen;
    for (int i = 0; i < 500; ++i) {
        const int v = rng.nextInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, NextDoubleUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, GaussianMomentsRoughlyStandard)
{
    Rng rng(11);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.nextGaussian();
        sum += v;
        sum2 += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(13);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    rng.shuffle(v);
    std::set<int> s(v.begin(), v.end());
    EXPECT_EQ(s.size(), 8u);
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("q%d:%s", 3, "x"), "q3:x");
    EXPECT_EQ(format("%.2f", 1.5), "1.50");
}

TEST(Strings, JoinAndSplit)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
}

TEST(Table, AlignedOutputContainsCells)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvEscapesQuotesAndCommas)
{
    TablePrinter t({"a"});
    t.addRow({"x,y\"z"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_NE(os.str().find("\"x,y\"\"z\""), std::string::npos);
}

TEST(Table, RowArityMismatchPanics)
{
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(Errors, FatalAndPanicCarryMessages)
{
    try {
        QFATAL("bad input ", 42);
        FAIL() << "should have thrown";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad input 42"),
                  std::string::npos);
    }
    EXPECT_THROW(QPANIC("boom"), PanicError);
    EXPECT_NO_THROW(QPANIC_IF(false, "no"));
    EXPECT_THROW(QPANIC_IF(true, "yes"), PanicError);
}

} // namespace
} // namespace qompress
