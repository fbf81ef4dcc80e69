/** @file Unit tests for the statistics package. */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/stats.h"

namespace deepstore {
namespace {

// Counters are named only by StatId: a string lookup, the way to a
// misspelt or unregistered counter, does not compile.
template <typename G>
concept LooksUpByName = requires(G g, const G cg) {
    g.get(std::string("flash.pageReads"));
    cg.find(std::string("flash.pageReads"));
};
static_assert(!LooksUpByName<StatGroup>);

TEST(Stats, AccumulatesAndCounts)
{
    Stat s;
    EXPECT_FALSE(s.recorded());
    s += 2.0;
    s += 3.5;
    EXPECT_DOUBLE_EQ(s.value(), 5.5);
    EXPECT_TRUE(s.recorded());
}

TEST(Stats, SetOverridesValue)
{
    Stat s;
    s += 10.0;
    s.set(3.0);
    EXPECT_DOUBLE_EQ(s.value(), 3.0);
    EXPECT_TRUE(s.recorded());
}

TEST(StatGroup, FindSeesOnlyRecordedStats)
{
    StatGroup g("ssd");
    EXPECT_EQ(g.find(StatId::FlashPageReads), nullptr);
    g.get(StatId::FlashPageReads) += 1.0;
    ASSERT_NE(g.find(StatId::FlashPageReads), nullptr);
    EXPECT_DOUBLE_EQ(g.find(StatId::FlashPageReads)->value(), 1.0);
    EXPECT_EQ(g.find(StatId::FlashReadBytes), nullptr);
}

TEST(StatGroup, DumpIsSortedAndPrefixed)
{
    StatGroup g("ssd");
    g.get(StatId::FlashWriteBytes) += 2.0;
    g.get(StatId::FlashPageReads) += 1.0;
    g.get(StatId::DfvBursts) += 0.0; // a zero bump still prints
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "ssd.dfv.bursts = 0\n"
                        "ssd.flash.pageReads = 1\n"
                        "ssd.flash.writeBytes = 2\n");
}

} // namespace
} // namespace deepstore
