/**
 * @file
 * A clock that reads in reference seconds: wall time corrected for how
 * fast the shared host let the benchmark run.
 *
 * Neighbours on a shared host slow every core by up to half for tens of
 * seconds at a time, and CPU time slows as much as wall time, so neither
 * separates the program's speed from the host's. The clock therefore
 * keeps timing a fixed probe kernel of the benchmark's own, which no
 * change to the repository can speed up: tick(), called by the closed
 * loop between events, runs it once every kProbeIntervalSeconds of
 * wall time. Each stretch of the run then counts as reference seconds
 * at the ratio of the kernel's reference duration to the durations it
 * measured around that stretch. Probe time is left out of every
 * reading.
 */

#ifndef MONATT_PERFBENCH_HOSTCLOCK_H
#define MONATT_PERFBENCH_HOSTCLOCK_H

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench
{

class HostClock
{
  public:
    HostClock();

    HostClock(const HostClock &) = delete;
    HostClock &operator=(const HostClock &) = delete;

    /** Raw reading: wall seconds since construction, probes left out. */
    double mark() const;

    /** Run the probe kernel when one is due. */
    void
    tick()
    {
        if (mark() >= nextProbe_)
            probe();
    }

    /** Run the probe kernel now. */
    void probe();

    /** Reference seconds from construction to raw reading `t`; covers
     * every reading taken before the call. */
    double reference(double t);

    /** Reference seconds per wall second over the whole run so far. */
    double meanSpeed() const;

    /** Probes run so far. */
    std::size_t probes() const { return probes_.size(); }

  private:
    struct Probe
    {
        double at;      //!< Raw reading when it started.
        double seconds; //!< Its wall duration.
    };

    /** Rebuild the block table from the probes taken so far. */
    void rebuild();

    std::chrono::steady_clock::time_point origin_;
    double probeSeconds_ = 0; //!< Wall time spent in probes.
    double nextProbe_ = 0;    //!< Raw reading the next probe is due at.
    std::uint64_t sink_ = 0;  //!< Keeps the kernel's result live.
    std::vector<Probe> probes_;

    // Blocks of consecutive probes; block b starts at raw reading
    // start_[b], runs at speed_[b] and has read ref_[b] reference
    // seconds by its start.
    std::size_t builtFrom_ = 0; //!< probes_.size() when last rebuilt.
    std::vector<double> start_;
    std::vector<double> speed_;
    std::vector<double> ref_;
};

} // namespace perfbench

#endif // MONATT_PERFBENCH_HOSTCLOCK_H
