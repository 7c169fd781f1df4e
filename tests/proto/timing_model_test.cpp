/**
 * @file
 * Timing model: monotonicity and calibration sanity for the cost
 * functions behind Figures 9 and 11.
 */

#include <gtest/gtest.h>

#include "proto/timing_model.h"
#include "server/catalog.h"

namespace monatt::proto
{
namespace
{

TEST(TimingModelTest, SpawnGrowsWithImageAndRam)
{
    const TimingModel t;
    EXPECT_LT(t.spawnTime(25, 512), t.spawnTime(700, 512));
    EXPECT_LT(t.spawnTime(25, 512), t.spawnTime(25, 2048));
    EXPECT_GT(t.spawnTime(0, 0), 0);
}

TEST(TimingModelTest, MappingGrowsWithDisk)
{
    const TimingModel t;
    EXPECT_LT(t.mappingTime(10), t.mappingTime(40));
}

TEST(TimingModelTest, ResponseCostsOrdered)
{
    // For every flavor, termination < suspension; suspension grows
    // with RAM (state save), resume is cheaper than suspend (higher
    // load rate).
    const TimingModel t;
    for (const server::VmFlavor &f : server::flavorCatalog()) {
        EXPECT_LT(t.terminateTime(f.ramMb), t.suspendTime(f.ramMb))
            << f.name;
        EXPECT_LT(t.resumeTime(f.ramMb), t.suspendTime(f.ramMb))
            << f.name;
    }
    EXPECT_LT(t.suspendTime(512), t.suspendTime(2048));
}

TEST(TimingModelTest, CalibrationLandsInPaperRanges)
{
    // Figure 9: totals 2-6 s. Stage sums (excluding protocol time,
    // which adds ~0.5 s) must leave room for that.
    const TimingModel t;
    for (const server::VmImage &img : server::imageCatalog()) {
        for (const server::VmFlavor &f : server::flavorCatalog()) {
            const SimTime stages = t.schedulingBase + t.networking +
                                   t.mappingTime(f.diskGb) +
                                   t.spawnTime(img.sizeMb, f.ramMb);
            EXPECT_GT(toSeconds(stages), 1.5)
                << img.name << "-" << f.name;
            EXPECT_LT(toSeconds(stages), 6.0)
                << img.name << "-" << f.name;
        }
    }
    // Figure 11: suspension seconds-scale.
    EXPECT_GT(toSeconds(t.suspendTime(2048)), 3.0);
    EXPECT_LT(toSeconds(t.suspendTime(2048)), 8.0);
}

// --- Adaptive retry budgets: the hop policies ------------------------

TEST(ReliabilityModelTest, RtoFallsBackToFixedKnob)
{
    ReliabilityModel model;
    sim::Exchange ex;
    ex.arm(0);
    const sim::RttEstimator cold; // No samples yet.
    EXPECT_EQ(ex.timeout(model.forward(), &cold), model.forwardRto);

    sim::RttEstimator warm;
    warm.addSample(msec(100));
    model.adaptiveRto = false;
    EXPECT_EQ(ex.timeout(model.forward(), &warm), model.forwardRto);
}

TEST(ReliabilityModelTest, AdaptiveRtoTracksObservedRtt)
{
    ReliabilityModel model;
    sim::RttEstimator est;
    for (int i = 0; i < 64; ++i)
        est.addSample(msec(500));
    // 2·SRTT + 4·RTTVAR with rttvar ~0: about one second, far below
    // the 6 s fixed forward RTO — a fast deployment detects loss
    // sooner.
    sim::Exchange ex;
    ex.arm(0);
    const SimTime adaptive = ex.timeout(model.forward(), &est);
    EXPECT_LT(adaptive, seconds(2));
    EXPECT_GE(adaptive, 2 * est.srtt);
}

TEST(ReliabilityModelTest, AdaptiveRtoIsClamped)
{
    ReliabilityModel model;
    sim::Exchange ex;
    ex.arm(0);
    sim::RttEstimator tiny;
    tiny.addSample(usec(10));
    EXPECT_EQ(ex.timeout(model.forward(), &tiny), model.minRto);

    sim::RttEstimator huge;
    huge.addSample(seconds(100));
    EXPECT_EQ(ex.timeout(model.forward(), &huge), model.maxRto);
}

TEST(CatalogTest, FlavorsAndImages)
{
    ASSERT_EQ(server::flavorCatalog().size(), 3u);
    ASSERT_EQ(server::imageCatalog().size(), 3u);
    EXPECT_LT(server::flavor("small").ramMb,
              server::flavor("large").ramMb);
    EXPECT_LT(server::image("cirros").sizeMb,
              server::image("ubuntu").sizeMb);
    EXPECT_THROW(server::flavor("xl"), std::out_of_range);
    EXPECT_THROW(server::image("arch"), std::out_of_range);
    // Image contents are distinct (distinct digests matter for the
    // appraiser database).
    EXPECT_NE(server::image("cirros").content,
              server::image("fedora").content);
}

} // namespace
} // namespace monatt::proto
