/**
 * @file
 * Statistics utilities used by the Property Interpretation Module.
 *
 * The covert-channel interpreter of §4.4.3 works on a 30-bin histogram
 * of CPU-usage intervals and clusters it ("The Attestation Server can
 * use machine learning techniques to cluster the covert-channel
 * results and benign results"). This file provides the histogram,
 * peak detection and a 1-D k-means used for that clustering.
 */

#ifndef MONATT_COMMON_STATS_H
#define MONATT_COMMON_STATS_H

#include <cstdint>
#include <vector>

namespace monatt
{

/**
 * Fixed-width histogram over [lo, hi) with `bins` buckets.
 *
 * Samples below lo clamp into the first bucket, samples at or above hi
 * clamp into the last — matching the paper's Trust Evidence Register
 * semantics where interval (29,30] also absorbs full-slice runs.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    /** Record one sample. */
    void add(double x);

    /** Record a pre-binned count (used when loading TER values). */
    void addCount(std::size_t bin, std::uint64_t count);

    /** Raw per-bin counts. */
    const std::vector<std::uint64_t> &counts() const { return bucket; }

    /** Total number of samples. */
    std::uint64_t total() const { return n; }

    /** Per-bin probability masses (empty-safe: all zeros). */
    std::vector<double> distribution() const;

    /** Center value of bin i. */
    double binCenter(std::size_t i) const;

    /** Number of bins. */
    std::size_t size() const { return bucket.size(); }

  private:
    double lowBound;
    double highBound;
    std::vector<std::uint64_t> bucket;
    std::uint64_t n = 0;
};

/** A detected peak in a distribution. */
struct Peak
{
    std::size_t bin;   //!< Bin index of the local maximum.
    double mass;       //!< Probability mass of the peak's neighborhood.
};

/**
 * Find local maxima in a probability distribution.
 *
 * A bin is a peak when it is a local maximum and its 1-neighborhood
 * mass is at least `minMass`. Adjacent qualifying bins merge into one
 * peak.
 */
std::vector<Peak> findPeaks(const std::vector<double> &dist,
                            double minMass);

/** Result of a 1-D 2-means clustering. */
struct KMeans1DResult
{
    double centroid[2];       //!< Sorted ascending.
    double mass[2];           //!< Fraction of samples per cluster.
    double withinVariance;    //!< Mean within-cluster squared deviation.
    double separation;        //!< |c1 - c0|.
};

/**
 * Weighted 1-D k-means with k=2.
 *
 * @param values Sample positions (e.g. histogram bin centers).
 * @param weights Sample weights (e.g. bin masses); same length.
 * @param iterations Lloyd iterations (small k, converges fast).
 */
KMeans1DResult kMeans2(const std::vector<double> &values,
                       const std::vector<double> &weights,
                       int iterations = 32);

} // namespace monatt

#endif // MONATT_COMMON_STATS_H
