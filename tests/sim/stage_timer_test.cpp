/**
 * @file
 * Stage timer: the Ceilometer-style instrumentation backing the
 * Figure 9/11 breakdowns.
 */

#include <gtest/gtest.h>

#include "sim/stage_timer.h"

namespace monatt::sim
{
namespace
{

TEST(StageTimerTest, SequentialStages)
{
    StageTimer t;
    t.beginStage("a", 0);
    t.beginStage("b", msec(10)); // Implicitly ends "a".
    t.endStage(msec(30));
    ASSERT_EQ(t.stages().size(), 2u);
    EXPECT_EQ(t.stages()[0].name, "a");
    EXPECT_EQ(t.stages()[0].duration(), msec(10));
    EXPECT_EQ(t.stages()[1].duration(), msec(20));
    EXPECT_FALSE(t.hasOpenStage());
}

TEST(StageTimerTest, DurationOfSumsDuplicates)
{
    StageTimer t;
    t.record("attestation", 0, msec(5));
    t.record("spawn", msec(5), msec(9));
    t.record("attestation", msec(9), msec(12));
    EXPECT_EQ(t.durationOf("attestation"), msec(8));
    EXPECT_EQ(t.durationOf("spawn"), msec(4));
    EXPECT_EQ(t.durationOf("absent"), 0);
}

TEST(StageTimerTest, EndWithoutBeginIsNoop)
{
    StageTimer t;
    t.endStage(msec(10));
    EXPECT_TRUE(t.stages().empty());
}

} // namespace
} // namespace monatt::sim
