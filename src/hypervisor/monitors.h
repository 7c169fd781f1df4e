/**
 * @file
 * The monitors of the server's Monitor Module (Figure 2).
 *
 * "The Monitor Module contains different types of monitors to provide
 * comprehensive and rich security measurements": here the VMM Profile
 * Tool (per-VM CPU accounting and usage-interval histograms — the
 * measurement source for §4.4's covert-channel detection and §4.5's
 * availability monitoring), the VM Introspection Tool (task lists read
 * from guest memory, §4.3), the hardware Performance Monitor Unit
 * (synthetic event counters), and the Integrity Measurement Unit
 * (accumulated boot-time hashes in TPM PCRs, §4.2).
 */

#ifndef MONATT_HYPERVISOR_MONITORS_H
#define MONATT_HYPERVISOR_MONITORS_H

#include <cstdint>
#include <map>
#include <vector>

#include "common/stats.h"
#include "common/time_types.h"
#include "hypervisor/domain.h"
#include "hypervisor/scheduler.h"
#include "tpm/tpm_emulator.h"

namespace monatt::hypervisor
{

/**
 * VMM Profile Tool.
 *
 * §4.5.2: "it observes the transitions of each virtual CPU on each
 * physical core, and keeps record of the virtual running time for the
 * attested VM". Fed by the scheduler's run hook; supports measurement
 * windows per domain and produces both the CPU_measure total and the
 * per-interval histogram samples the covert-channel detector needs.
 */
class VmmProfileTool
{
  public:
    /** Scheduler hook entry point: one completed run interval. */
    void recordRun(VCpuId vcpu, DomainId domain, SimTime start,
                   SimTime end);

    /** Open a measurement window for a domain. */
    void startWindow(DomainId domain, SimTime now);

    /** Close the window; samples stay readable until the next start. */
    void stopWindow(DomainId domain, SimTime now);

    /** Total virtual running time within the window (CPU_measure). */
    SimTime windowRuntime(DomainId domain) const;

    /** Wall-clock length of the (closed or still open) window. */
    SimTime windowLength(DomainId domain, SimTime now) const;

    /**
     * Usage-interval samples (milliseconds) within the window.
     * Contiguous run intervals of the same domain are merged, so a
     * burst split by an instantaneous preempt-resume counts once.
     */
    const std::vector<double> &windowIntervals(DomainId domain) const;

    /**
     * Bin the window's usage intervals into a histogram, the form the
     * Trust Evidence Registers hold: `bins` buckets over (0, spanMs].
     */
    Histogram intervalHistogram(DomainId domain, std::size_t bins = 30,
                                double spanMs = 30.0) const;

    /** Lifetime (not window) runtime of a domain. */
    SimTime totalRuntime(DomainId domain) const;

    /** Forget a destroyed domain's window and lifetime runtime. */
    void dropDomain(DomainId domain) { windows.erase(domain); }

  private:
    struct DomainWindow
    {
        bool open = false;
        SimTime windowStart = 0;
        SimTime windowEnd = 0;
        SimTime runtime = 0;
        SimTime lifetimeRuntime = 0;
        std::vector<double> intervals; // ms
        SimTime openIntervalStart = 0;
        SimTime lastEnd = -1;
        bool intervalOpen = false;
    };

    void closeOpenInterval(DomainWindow &w);

    std::map<DomainId, DomainWindow> windows;
    static const std::vector<double> kNoIntervals;
};

/**
 * VM Introspection Tool.
 *
 * §4.3.2: "The VM Introspection Tool located in the hypervisor's
 * Monitor Module can probe into the target VM's memory region to
 * obtain the running tasks list". Operates on the hypervisor's
 * Domain records, i.e. outside and isolated from the guest.
 */
class VmIntrospectionTool
{
  public:
    /** True task list, reconstructed from guest memory. */
    static std::vector<std::string> probeTaskList(const Domain &domain);

    /** What the guest itself would report (for comparison). */
    static std::vector<std::string> queryGuest(const Domain &domain);
};

/**
 * Hardware Performance Monitor Unit (synthetic).
 *
 * Derives per-domain event counts from scheduler accounting: cycles at
 * the testbed's 3.3 GHz, instructions at a nominal IPC. Present to
 * model the paper's point that existing hardware counters feed the
 * Monitor Module.
 */
class PerformanceMonitorUnit
{
  public:
    struct Counters
    {
        std::uint64_t cycles = 0;
        std::uint64_t instructions = 0;
    };

    /** Convert a domain's runtime into event counts. */
    static Counters fromRuntime(SimTime runtime, double ghz = 3.3,
                                double ipc = 1.2);
};

/**
 * Integrity Measurement Unit.
 *
 * §4.2.2: "accumulated cryptographic hashes of the software that is
 * loaded onto the system, in the order that they are loaded",
 * extended into TPM PCRs — hypervisor into PCR 0, host OS into PCR 1,
 * VM images into PCR 10.
 */
class IntegrityMeasurementUnit
{
  public:
    static constexpr std::uint32_t kPcrHypervisor = 0;
    static constexpr std::uint32_t kPcrHostOs = 1;
    static constexpr std::uint32_t kPcrVmImage = 10;

    explicit IntegrityMeasurementUnit(tpm::TpmEmulator &tpm) : dev(tpm) {}

    /** Measure platform software at boot (phase one of §4.2.2). */
    void measureBoot(const Bytes &hypervisorCode, const Bytes &hostOsCode);

    /** Measure a VM image before launch (phase two); returns digest. */
    Bytes measureVmImage(const Bytes &image);

    /** Current platform configuration digests (PCR values). */
    Bytes hypervisorPcr() const;
    Bytes hostOsPcr() const;
    Bytes vmImagePcr() const;

  private:
    tpm::TpmEmulator &dev;
};

} // namespace monatt::hypervisor

#endif // MONATT_HYPERVISOR_MONITORS_H
