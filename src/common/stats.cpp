#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace monatt
{

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lowBound(lo), highBound(hi), bucket(bins, 0)
{
    if (bins == 0 || hi <= lo)
        throw std::invalid_argument("Histogram: bad bounds/bins");
}

void
Histogram::add(double x)
{
    const double width = (highBound - lowBound) /
                         static_cast<double>(bucket.size());
    std::int64_t idx = static_cast<std::int64_t>((x - lowBound) / width);
    if (idx < 0)
        idx = 0;
    if (idx >= static_cast<std::int64_t>(bucket.size()))
        idx = static_cast<std::int64_t>(bucket.size()) - 1;
    ++bucket[static_cast<std::size_t>(idx)];
    ++n;
}

void
Histogram::addCount(std::size_t bin, std::uint64_t count)
{
    if (bin >= bucket.size())
        throw std::out_of_range("Histogram::addCount: bad bin");
    bucket[bin] += count;
    n += count;
}

std::vector<double>
Histogram::distribution() const
{
    std::vector<double> out(bucket.size(), 0.0);
    if (n == 0)
        return out;
    for (std::size_t i = 0; i < bucket.size(); ++i)
        out[i] = static_cast<double>(bucket[i]) / static_cast<double>(n);
    return out;
}

double
Histogram::binCenter(std::size_t i) const
{
    const double width = (highBound - lowBound) /
                         static_cast<double>(bucket.size());
    return lowBound + width * (static_cast<double>(i) + 0.5);
}

std::vector<Peak>
findPeaks(const std::vector<double> &dist, double minMass)
{
    std::vector<Peak> peaks;
    const std::size_t n = dist.size();
    for (std::size_t i = 0; i < n; ++i) {
        const double left = i > 0 ? dist[i - 1] : 0.0;
        const double right = i + 1 < n ? dist[i + 1] : 0.0;
        // Strict local maximum against the right neighbor breaks ties
        // between equal adjacent bins in favor of the leftmost.
        if (dist[i] >= left && dist[i] > right && dist[i] > 0.0) {
            const double neighborhood = left + dist[i] + right;
            if (neighborhood >= minMass)
                peaks.push_back(Peak{i, neighborhood});
        }
    }
    return peaks;
}

KMeans1DResult
kMeans2(const std::vector<double> &values,
        const std::vector<double> &weights, int iterations)
{
    if (values.size() != weights.size() || values.empty())
        throw std::invalid_argument("kMeans2: bad input sizes");

    double lo = values[0], hi = values[0];
    for (double v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    double c0 = lo, c1 = hi;
    if (c0 == c1)
        c1 = c0 + 1.0;

    std::vector<int> assign(values.size(), 0);
    for (int it = 0; it < iterations; ++it) {
        double sum0 = 0, w0 = 0, sum1 = 0, w1 = 0;
        for (std::size_t i = 0; i < values.size(); ++i) {
            const double d0 = std::abs(values[i] - c0);
            const double d1 = std::abs(values[i] - c1);
            assign[i] = d1 < d0 ? 1 : 0;
            if (assign[i] == 0) {
                sum0 += values[i] * weights[i];
                w0 += weights[i];
            } else {
                sum1 += values[i] * weights[i];
                w1 += weights[i];
            }
        }
        if (w0 > 0)
            c0 = sum0 / w0;
        if (w1 > 0)
            c1 = sum1 / w1;
    }

    double wTotal = 0, w0 = 0, w1 = 0, var = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        wTotal += weights[i];
        const double c = assign[i] == 0 ? c0 : c1;
        var += weights[i] * (values[i] - c) * (values[i] - c);
        (assign[i] == 0 ? w0 : w1) += weights[i];
    }

    KMeans1DResult res;
    res.centroid[0] = std::min(c0, c1);
    res.centroid[1] = std::max(c0, c1);
    // Keep masses aligned with the sorted centroids.
    if (c0 <= c1) {
        res.mass[0] = wTotal > 0 ? w0 / wTotal : 0;
        res.mass[1] = wTotal > 0 ? w1 / wTotal : 0;
    } else {
        res.mass[0] = wTotal > 0 ? w1 / wTotal : 0;
        res.mass[1] = wTotal > 0 ? w0 / wTotal : 0;
    }
    res.withinVariance = wTotal > 0 ? var / wTotal : 0;
    res.separation = res.centroid[1] - res.centroid[0];
    return res;
}

} // namespace monatt
