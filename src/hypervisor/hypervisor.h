/**
 * @file
 * The Type-I hypervisor facade (Figure 2's Xen-like stack).
 *
 * Owns the credit scheduler, the domain table, the guest OS models and
 * the hypervisor-level monitors, and exposes the operations the host
 * VM's management/monitoring stack performs: domain lifecycle
 * (create / pause / resume / destroy), behavior installation on vCPUs,
 * introspection, and the platform software blobs whose hashes the
 * Integrity Measurement Unit extends into PCRs at boot. Attack
 * injection points (corrupting the platform software, injecting guest
 * malware) model the example attacks of §4.2.1 and §4.3.1.
 */

#ifndef MONATT_HYPERVISOR_HYPERVISOR_H
#define MONATT_HYPERVISOR_HYPERVISOR_H

#include <map>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "hypervisor/domain.h"
#include "hypervisor/monitors.h"
#include "hypervisor/scheduler.h"
#include "sim/event_queue.h"

namespace monatt::hypervisor
{

/** Hypervisor configuration. */
struct HypervisorConfig
{
    int numPCpus = 4;               //!< Quad-core, as in the testbed.
    CreditScheduler::Params sched;  //!< Scheduler tunables.
    Bytes hypervisorCode;           //!< Platform software blob.
    Bytes hostOsCode;               //!< Host VM (Dom0) software blob.
};

/** The hypervisor. */
class Hypervisor
{
  public:
    Hypervisor(sim::EventQueue &eq, HypervisorConfig config);

    /** Boot: measure platform software into the given TPM and start
     * the scheduler. Call once. */
    void boot(tpm::TpmEmulator &tpm);

    /** True after boot(). */
    bool booted() const { return isBooted; }

    /**
     * Create a domain with `numVcpus` vCPUs pinned to `pcpu`.
     *
     * @param image VM image contents (hashed into the domain record).
     * @return The new domain id.
     */
    DomainId createDomain(const std::string &name, int numVcpus,
                          int pcpu, const Bytes &image, int weight = 256);

    /** Destroy a domain: retire its vCPUs, drop its record and its
     * profiler window. */
    void destroyDomain(DomainId id);

    /** Pause (block) all vCPUs of a domain. */
    void pauseDomain(DomainId id);

    /** Resume a paused domain. */
    void resumeDomain(DomainId id);

    /** Install a workload on one of a domain's vCPUs. */
    void setBehavior(DomainId id, int vcpuIndex,
                     std::unique_ptr<Behavior> behavior);

    /** Domain accessors. @throws std::out_of_range on unknown id. */
    Domain &domain(DomainId id);
    const Domain &domain(DomainId id) const;

    /** True when the domain exists. */
    bool hasDomain(DomainId id) const { return domains.count(id) != 0; }

    /** All live domain ids. */
    std::vector<DomainId> domainIds() const;

    /** The scheduler (for pinning decisions and diagnostics). */
    CreditScheduler &scheduler() { return sched; }
    const CreditScheduler &scheduler() const { return sched; }

    /** The VMM Profile Tool (wired to the scheduler's run hook). */
    VmmProfileTool &profiler() { return profileTool; }
    const VmmProfileTool &profiler() const { return profileTool; }

    /** Platform software blobs (measured at boot). */
    const Bytes &hypervisorCode() const { return config.hypervisorCode; }
    const Bytes &hostOsCode() const { return config.hostOsCode; }

    /**
     * Attack injection: corrupt the platform software in storage, as
     * in §4.2.1 ("software entities could have been corrupted during
     * storage or network transmission"). Only affects measurements
     * taken at subsequent boots.
     */
    void corruptHypervisorCode();

    /** Number of physical CPUs. */
    int numPCpus() const { return config.numPCpus; }

    sim::EventQueue &eventQueue() { return events; }

  private:
    sim::EventQueue &events;
    HypervisorConfig config;
    CreditScheduler sched;
    VmmProfileTool profileTool;
    std::map<DomainId, Domain> domains;
    DomainId nextDomain = 1;
    bool isBooted = false;
};

} // namespace monatt::hypervisor

#endif // MONATT_HYPERVISOR_HYPERVISOR_H
