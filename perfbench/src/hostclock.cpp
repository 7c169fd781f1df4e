#include "hostclock.h"

#include <algorithm>

namespace perfbench
{

namespace
{

/** Wall time between probes; probes take about 5% of a run. */
constexpr double kProbeIntervalSeconds = 0.01;

/** Probes per block: about a quarter second of run per speed reading,
 * enough probes that one a neighbour happened to interrupt moves it
 * little. */
constexpr std::size_t kBlockProbes = 25;

/** Duration of one probe on an unloaded core of the host the bounds in
 * BENCHMARK.json were set on, so a reference second is about a wall
 * second there. */
constexpr double kReferenceSeconds = 0.28e-3;

constexpr std::size_t kTableWords = std::size_t{1} << 15; // 256 KiB
constexpr int kRounds = 100000;

/**
 * One probe's work: 64 x 64 -> 128-bit multiply-accumulates, the inner
 * step of the bignum arithmetic under RSA, on words read from and
 * written to a table larger than L1 at data-dependent offsets, as hash
 * tables and message buffers are. Fixed work, independent of the
 * program under test.
 */
std::uint64_t
probeKernel(std::uint64_t seed)
{
    static std::vector<std::uint64_t> table = [] {
        std::vector<std::uint64_t> t(kTableWords);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::uint64_t &w : t) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w = x;
        }
        return t;
    }();
    unsigned __int128 acc = seed;
    std::uint64_t x = seed | 1;
    for (int i = 0; i < kRounds; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t a = table[(x >> 33) & (kTableWords - 1)];
        acc += static_cast<unsigned __int128>(a) * x;
        table[(x >> 17) & (kTableWords - 1)] ^=
            static_cast<std::uint64_t>(acc >> 64);
    }
    return static_cast<std::uint64_t>(acc);
}

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

HostClock::HostClock() : origin_(std::chrono::steady_clock::now())
{
    sink_ = probeKernel(1); // Fault the table in before any timing.
}

double
HostClock::mark() const
{
    return secondsBetween(origin_, std::chrono::steady_clock::now()) -
           probeSeconds_;
}

void
HostClock::probe()
{
    const double at = mark();
    const auto start = std::chrono::steady_clock::now();
    sink_ += probeKernel(sink_ + probes_.size());
    const double seconds =
        secondsBetween(start, std::chrono::steady_clock::now());
    probes_.push_back({at, seconds});
    probeSeconds_ += seconds;
    nextProbe_ = at + kProbeIntervalSeconds;
}

void
HostClock::rebuild()
{
    builtFrom_ = probes_.size();
    start_.assign(1, 0.0);
    speed_.clear();
    ref_.assign(1, 0.0);
    if (probes_.empty()) {
        speed_.push_back(1.0);
        return;
    }
    // A short tail joins the block before it.
    const std::size_t blocks =
        std::max<std::size_t>(1, probes_.size() / kBlockProbes);
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t lo = b * kBlockProbes;
        const std::size_t hi =
            b + 1 == blocks ? probes_.size() : lo + kBlockProbes;
        double seconds = 0;
        for (std::size_t k = lo; k < hi; ++k)
            seconds += probes_[k].seconds;
        speed_.push_back(static_cast<double>(hi - lo) * kReferenceSeconds /
                         seconds);
        if (b > 0) {
            start_.push_back(probes_[lo].at);
            ref_.push_back(ref_[b - 1] +
                           (start_[b] - start_[b - 1]) * speed_[b - 1]);
        }
    }
}

double
HostClock::reference(double t)
{
    if (start_.empty() || builtFrom_ != probes_.size())
        rebuild();
    const std::size_t b = static_cast<std::size_t>(
        std::upper_bound(start_.begin(), start_.end(), t) - start_.begin());
    const std::size_t block = b > 0 ? b - 1 : 0;
    return ref_[block] + (t - start_[block]) * speed_[block];
}

double
HostClock::meanSpeed() const
{
    double seconds = 0;
    for (const Probe &p : probes_)
        seconds += p.seconds;
    return seconds > 0 ? static_cast<double>(probes_.size()) *
                             kReferenceSeconds / seconds
                       : 1.0;
}

} // namespace perfbench
