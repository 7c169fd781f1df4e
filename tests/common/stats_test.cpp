/**
 * @file
 * Statistics utilities: histogram binning (incl. the clamp semantics
 * the Trust Evidence Registers rely on), peak detection and the 1-D
 * k-means used by the covert-channel interpreter.
 */

#include <gtest/gtest.h>

#include "common/stats.h"

namespace monatt
{
namespace
{

TEST(HistogramTest, BasicBinning)
{
    Histogram h(0.0, 30.0, 30);
    h.add(0.5);   // Bin 0.
    h.add(4.6);   // Bin 4 — the paper's example: interval (4,5].
    h.add(29.9);  // Bin 29.
    EXPECT_EQ(h.counts()[0], 1u);
    EXPECT_EQ(h.counts()[4], 1u);
    EXPECT_EQ(h.counts()[29], 1u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(HistogramTest, ClampsOutOfRange)
{
    Histogram h(0.0, 30.0, 30);
    h.add(-5.0);
    h.add(30.0);
    h.add(1000.0);
    EXPECT_EQ(h.counts()[0], 1u);
    EXPECT_EQ(h.counts()[29], 2u);
}

TEST(HistogramTest, DistributionSumsToOne)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(i % 10 + 0.5);
    double sum = 0;
    for (double p : h.distribution())
        sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(HistogramTest, EmptyDistributionIsZero)
{
    Histogram h(0.0, 10.0, 10);
    for (double p : h.distribution())
        EXPECT_DOUBLE_EQ(p, 0.0);
}

TEST(HistogramTest, BinCenters)
{
    Histogram h(0.0, 30.0, 30);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.5);
    EXPECT_DOUBLE_EQ(h.binCenter(29), 29.5);
}

TEST(HistogramTest, AddCount)
{
    Histogram h(0.0, 30.0, 30);
    h.addCount(5, 100);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_THROW(h.addCount(30, 1), std::out_of_range);
    EXPECT_EQ(h.total(), 100u);
}

TEST(HistogramTest, RejectsBadConstruction)
{
    EXPECT_THROW(Histogram(0.0, 0.0, 10), std::invalid_argument);
    EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
}

TEST(PeakTest, SinglePeak)
{
    // Benign pattern: one dominant peak at the end.
    std::vector<double> dist(30, 0.0);
    dist[29] = 0.9;
    dist[28] = 0.1;
    const auto peaks = findPeaks(dist, 0.15);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_EQ(peaks[0].bin, 29u);
}

TEST(PeakTest, TwoPeaks)
{
    // Covert-channel pattern: two separated peaks.
    std::vector<double> dist(30, 0.0);
    dist[5] = 0.25;
    dist[6] = 0.2;
    dist[24] = 0.3;
    dist[25] = 0.25;
    const auto peaks = findPeaks(dist, 0.15);
    ASSERT_EQ(peaks.size(), 2u);
    EXPECT_EQ(peaks[0].bin, 5u);
    EXPECT_EQ(peaks[1].bin, 24u);
}

TEST(PeakTest, IgnoresLowMassNoise)
{
    std::vector<double> dist(30, 0.0);
    dist[10] = 0.9;
    dist[20] = 0.02; // Noise peak below threshold.
    dist[0] = 0.08;
    const auto peaks = findPeaks(dist, 0.15);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_EQ(peaks[0].bin, 10u);
}

TEST(PeakTest, EmptyDistribution)
{
    EXPECT_TRUE(findPeaks(std::vector<double>(30, 0.0), 0.1).empty());
}

TEST(KMeansTest, SeparatesTwoClusters)
{
    // Two tight clusters at 5 and 25.
    const std::vector<double> values = {4, 5, 6, 24, 25, 26};
    const std::vector<double> weights = {1, 2, 1, 1, 2, 1};
    const auto r = kMeans2(values, weights);
    EXPECT_NEAR(r.centroid[0], 5.0, 0.5);
    EXPECT_NEAR(r.centroid[1], 25.0, 0.5);
    EXPECT_NEAR(r.mass[0], 0.5, 0.01);
    EXPECT_NEAR(r.mass[1], 0.5, 0.01);
    EXPECT_GT(r.separation, 15.0);
}

TEST(KMeansTest, SingleClusterSmallSeparation)
{
    const std::vector<double> values = {29, 29.5, 30};
    const std::vector<double> weights = {1, 5, 1};
    const auto r = kMeans2(values, weights);
    EXPECT_LT(r.separation, 2.0);
}

TEST(KMeansTest, MassWeighting)
{
    // Heavy mass at 10, light outlier at 20: most mass in cluster 0.
    const std::vector<double> values = {10, 20};
    const std::vector<double> weights = {99, 1};
    const auto r = kMeans2(values, weights);
    EXPECT_NEAR(r.mass[0], 0.99, 0.01);
    EXPECT_NEAR(r.mass[1], 0.01, 0.01);
}

TEST(KMeansTest, RejectsBadInput)
{
    EXPECT_THROW(kMeans2({}, {}), std::invalid_argument);
    EXPECT_THROW(kMeans2({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(KMeansTest, DegenerateIdenticalValues)
{
    const std::vector<double> values = {7, 7, 7};
    const std::vector<double> weights = {1, 1, 1};
    const auto r = kMeans2(values, weights);
    EXPECT_NEAR(r.centroid[0], 7.0, 1e-9);
    EXPECT_LT(r.separation, 1.5);
}

} // namespace
} // namespace monatt
