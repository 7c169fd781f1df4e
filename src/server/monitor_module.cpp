#include "server/monitor_module.h"

#include "hypervisor/monitors.h"

namespace monatt::server
{

using hypervisor::DomainId;
using proto::Measurement;
using proto::MeasurementType;

MonitorModule::MonitorModule(hypervisor::Hypervisor &hv,
                             tpm::TrustModule &tm)
    : hyp(hv), trust(tm)
{
}

bool
MonitorModule::isWindowed(MeasurementType t)
{
    return proto::isWindowed(t);
}

std::string
MonitorModule::bankName(MeasurementType t, DomainId dom)
{
    return measurementTypeName(t) + ":" + std::to_string(dom);
}

Result<Measurement>
MonitorModule::collectStatic(MeasurementType t, DomainId dom)
{
    using R = Result<Measurement>;
    Measurement m;
    m.type = t;

    switch (t) {
      case MeasurementType::PlatformPcrs: {
        hypervisor::IntegrityMeasurementUnit imu(trust.tpmDevice());
        m.digest = imu.hypervisorPcr();
        append(m.digest, imu.hostOsPcr());
        return R::ok(std::move(m));
      }
      case MeasurementType::VmImageDigest: {
        if (!hyp.hasDomain(dom))
            return R::error("VmImageDigest: unknown domain");
        m.digest = hyp.domain(dom).imageDigest;
        return R::ok(std::move(m));
      }
      case MeasurementType::TaskListVmi: {
        if (!hyp.hasDomain(dom))
            return R::error("TaskListVmi: unknown domain");
        m.strings = hypervisor::VmIntrospectionTool::probeTaskList(
            hyp.domain(dom));
        return R::ok(std::move(m));
      }
      case MeasurementType::TaskListGuest: {
        if (!hyp.hasDomain(dom))
            return R::error("TaskListGuest: unknown domain");
        m.strings = hypervisor::VmIntrospectionTool::queryGuest(
            hyp.domain(dom));
        return R::ok(std::move(m));
      }
      case MeasurementType::AuditLogDigest: {
        if (!hyp.hasDomain(dom))
            return R::error("AuditLogDigest: unknown domain");
        const hypervisor::GuestOs &os = hyp.domain(dom).guestOs;
        m.digest = os.auditLogHead();
        m.values = {os.auditLogLength()};
        return R::ok(std::move(m));
      }
      default:
        return R::error("collectStatic: windowed type " +
                        measurementTypeName(t));
    }
}

void
MonitorModule::beginWindow(DomainId dom, SimTime now)
{
    hyp.profiler().startWindow(dom, now);
}

Result<Measurement>
MonitorModule::finishWindow(MeasurementType t, DomainId dom, SimTime now)
{
    using R = Result<Measurement>;
    if (!isWindowed(t))
        return R::error("finishWindow: static type");

    hyp.profiler().stopWindow(dom, now);

    Measurement m;
    m.type = t;
    m.windowLength = hyp.profiler().windowLength(dom, now);

    const std::string bank = bankName(t, dom);
    if (t == MeasurementType::UsageIntervalHistogram) {
        // Write per-bin counts into the 30 programmable TERs, then
        // read the bank back — the signed values come from the Trust
        // Module, not from hypervisor memory.
        trust.defineBank(bank, kUsageIntervalBins);
        const Histogram h = hyp.profiler().intervalHistogram(
            dom, kUsageIntervalBins, 30.0);
        for (std::size_t i = 0; i < kUsageIntervalBins; ++i)
            trust.writeRegister(bank, i, h.counts()[i]);
        m.values = trust.readBank(bank);
    } else {
        trust.defineBank(bank, 1);
        trust.writeRegister(
            bank, 0,
            static_cast<std::uint64_t>(hyp.profiler().windowRuntime(dom)));
        m.values = trust.readBank(bank);
    }
    return R::ok(std::move(m));
}

} // namespace monatt::server
