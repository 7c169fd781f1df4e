#include "hypervisor/hypervisor.h"

#include <stdexcept>

#include "crypto/sha256.h"
#include "hypervisor/monitors.h"

namespace monatt::hypervisor
{

Hypervisor::Hypervisor(sim::EventQueue &eq, HypervisorConfig cfg)
    : events(eq), config(std::move(cfg)), sched(eq, config.sched)
{
    for (int i = 0; i < config.numPCpus; ++i)
        sched.addPCpu();
    sched.setRunHook([this](VCpuId vcpu, DomainId domain, SimTime start,
                            SimTime end) {
        profileTool.recordRun(vcpu, domain, start, end);
    });
}

void
Hypervisor::boot(tpm::TpmEmulator &tpm)
{
    if (isBooted)
        return;
    IntegrityMeasurementUnit imu(tpm);
    imu.measureBoot(config.hypervisorCode, config.hostOsCode);
    sched.start();
    isBooted = true;
}

DomainId
Hypervisor::createDomain(const std::string &name, int numVcpus, int pcpu,
                         const Bytes &image, int weight)
{
    if (numVcpus <= 0)
        throw std::invalid_argument("createDomain: need >= 1 vCPU");

    Domain dom;
    dom.id = nextDomain++;
    dom.name = name;
    dom.imageDigest = crypto::Sha256::hash(image);
    for (int i = 0; i < numVcpus; ++i)
        dom.vcpus.push_back(sched.addVCpu(dom.id, pcpu, weight));
    const DomainId id = dom.id;
    domains.emplace(id, std::move(dom));
    return id;
}

void
Hypervisor::destroyDomain(DomainId id)
{
    Domain &dom = domain(id);
    for (VCpuId vcpu : dom.vcpus)
        sched.retire(vcpu);
    profileTool.dropDomain(id);
    domains.erase(id);
}

void
Hypervisor::pauseDomain(DomainId id)
{
    Domain &dom = domain(id);
    for (VCpuId vcpu : dom.vcpus)
        sched.suspend(vcpu);
    dom.running = false;
}

void
Hypervisor::resumeDomain(DomainId id)
{
    Domain &dom = domain(id);
    for (VCpuId vcpu : dom.vcpus)
        sched.resume(vcpu);
    dom.running = true;
}

void
Hypervisor::setBehavior(DomainId id, int vcpuIndex,
                        std::unique_ptr<Behavior> behavior)
{
    Domain &dom = domain(id);
    if (vcpuIndex < 0 ||
        vcpuIndex >= static_cast<int>(dom.vcpus.size())) {
        throw std::out_of_range("setBehavior: bad vCPU index");
    }
    sched.setBehavior(dom.vcpus[vcpuIndex], std::move(behavior));
}

Domain &
Hypervisor::domain(DomainId id)
{
    const auto it = domains.find(id);
    if (it == domains.end())
        throw std::out_of_range("Hypervisor: unknown domain");
    return it->second;
}

const Domain &
Hypervisor::domain(DomainId id) const
{
    const auto it = domains.find(id);
    if (it == domains.end())
        throw std::out_of_range("Hypervisor: unknown domain");
    return it->second;
}

std::vector<DomainId>
Hypervisor::domainIds() const
{
    std::vector<DomainId> ids;
    ids.reserve(domains.size());
    for (const auto &[id, dom] : domains)
        ids.push_back(id);
    return ids;
}

void
Hypervisor::corruptHypervisorCode()
{
    if (config.hypervisorCode.empty())
        config.hypervisorCode.push_back(0xff);
    else
        config.hypervisorCode[0] ^= 0xff;
}

} // namespace monatt::hypervisor
