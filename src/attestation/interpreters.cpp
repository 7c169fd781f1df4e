#include "attestation/interpreters.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/stats.h"

namespace monatt::attestation
{

using proto::HealthStatus;
using proto::Measurement;
using proto::MeasurementSet;
using proto::MeasurementType;
using proto::PropertyResult;
using proto::SecurityProperty;

namespace
{

PropertyResult
makeResult(SecurityProperty p, HealthStatus s, std::string detail)
{
    PropertyResult r;
    r.property = p;
    r.status = s;
    r.detail = std::move(detail);
    return r;
}

} // namespace

SecurityProperty
StartupIntegrityInterpreter::property() const
{
    return SecurityProperty::StartupIntegrity;
}

PropertyResult
StartupIntegrityInterpreter::interpret(
    const MeasurementSet &m, const InterpretationContext &ctx) const
{
    const SecurityProperty p = property();
    const Measurement *pcrs = m.find(MeasurementType::PlatformPcrs);
    const Measurement *image = m.find(MeasurementType::VmImageDigest);
    if (!pcrs || !image)
        return makeResult(p, HealthStatus::Unknown,
                          "missing integrity measurements");
    if (!ctx.serverRef)
        return makeResult(p, HealthStatus::Unknown,
                          "no platform reference on record");

    // Platform first: §5.1 treats a bad platform differently (pick
    // another server) from a bad image (reject the launch).
    if (!constantTimeEqual(pcrs->digest,
                           ctx.serverRef->expectedPlatformDigest)) {
        return makeResult(p, HealthStatus::Compromised,
                          "platform configuration hash mismatch");
    }

    // Image: the appraiser's known-good catalog vouches for it.
    if (!ctx.knownGoodImages ||
        ctx.knownGoodImages->count(image->digest) == 0) {
        return makeResult(p, HealthStatus::Compromised,
                          "vm image hash mismatch");
    }
    return makeResult(p, HealthStatus::Healthy,
                      "platform and image match known-good hashes");
}

SecurityProperty
RuntimeIntegrityInterpreter::property() const
{
    return SecurityProperty::RuntimeIntegrity;
}

PropertyResult
RuntimeIntegrityInterpreter::interpret(
    const MeasurementSet &m, const InterpretationContext &ctx) const
{
    (void)ctx;
    const SecurityProperty p = property();
    const Measurement *vmi = m.find(MeasurementType::TaskListVmi);
    const Measurement *guest = m.find(MeasurementType::TaskListGuest);
    if (!vmi || !guest)
        return makeResult(p, HealthStatus::Unknown,
                          "missing task-list measurements");

    // Hidden processes: present in the memory truth (VMI) but absent
    // from what the guest admits to — the rootkit signature of §4.3.
    const std::set<std::string> guestSet(guest->strings.begin(),
                                         guest->strings.end());
    std::vector<std::string> hidden;
    for (const std::string &task : vmi->strings) {
        if (!guestSet.count(task))
            hidden.push_back(task);
    }
    if (!hidden.empty()) {
        std::ostringstream oss;
        oss << "hidden process(es) detected:";
        for (const std::string &task : hidden)
            oss << " " << task;
        return makeResult(p, HealthStatus::Compromised, oss.str());
    }
    return makeResult(p, HealthStatus::Healthy,
                      "VMI and guest task lists consistent");
}

SecurityProperty
CovertChannelInterpreter::property() const
{
    return SecurityProperty::CovertChannelFreedom;
}

bool
CovertChannelInterpreter::looksCovert(
    const std::vector<std::uint64_t> &counts, std::string *why) const
{
    Histogram h(0.0, 30.0, counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
        h.addCount(i, counts[i]);

    const std::vector<double> dist = h.distribution();
    const std::vector<Peak> peaks = findPeaks(dist, cfg.peakMinMass);

    std::vector<double> centers(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
        centers[i] = h.binCenter(i);
    const KMeans1DResult km = kMeans2(centers, dist);

    const bool twoPeaks = peaks.size() >= 2;
    const bool separatedClusters =
        km.separation >= cfg.minSeparationBins &&
        km.mass[0] >= cfg.minClusterMass &&
        km.mass[1] >= cfg.minClusterMass;

    if (why) {
        std::ostringstream oss;
        oss << peaks.size() << " peak(s), cluster centers "
            << km.centroid[0] << "/" << km.centroid[1] << " ms, masses "
            << km.mass[0] << "/" << km.mass[1];
        *why = oss.str();
    }
    return twoPeaks || separatedClusters;
}

PropertyResult
CovertChannelInterpreter::interpret(const MeasurementSet &m,
                                    const InterpretationContext &ctx) const
{
    (void)ctx;
    const SecurityProperty p = property();
    const Measurement *hist =
        m.find(MeasurementType::UsageIntervalHistogram);
    if (!hist || hist->values.empty())
        return makeResult(p, HealthStatus::Unknown,
                          "missing usage-interval histogram");

    std::uint64_t total = 0;
    for (std::uint64_t c : hist->values)
        total += c;
    if (total < cfg.minSamples)
        return makeResult(p, HealthStatus::Unknown,
                          "too few usage-interval samples");

    std::string why;
    if (looksCovert(hist->values, &why)) {
        return makeResult(p, HealthStatus::Compromised,
                          "bimodal CPU usage intervals indicate covert "
                          "channel activity: " + why);
    }
    return makeResult(p, HealthStatus::Healthy,
                      "unimodal CPU usage intervals: " + why);
}

SecurityProperty
AuditLogIntegrityInterpreter::property() const
{
    return SecurityProperty::AuditLogIntegrity;
}

PropertyResult
AuditLogIntegrityInterpreter::interpret(
    const MeasurementSet &m, const InterpretationContext &ctx) const
{
    const SecurityProperty p = property();
    const Measurement *log = m.find(MeasurementType::AuditLogDigest);
    if (!log || log->values.empty())
        return makeResult(p, HealthStatus::Unknown,
                          "missing audit-log measurement");

    const Measurement *prev =
        ctx.previous ? ctx.previous->find(MeasurementType::AuditLogDigest)
                     : nullptr;
    if (!prev || prev->values.empty()) {
        // First observation: record-keeping baseline.
        return makeResult(p, HealthStatus::Healthy,
                          "audit-log baseline recorded (" +
                              std::to_string(log->values[0]) +
                              " entries)");
    }

    const std::uint64_t count = log->values[0];
    const std::uint64_t prevCount = prev->values[0];
    if (count < prevCount) {
        return makeResult(p, HealthStatus::Compromised,
                          "audit log truncated: " +
                              std::to_string(prevCount) + " -> " +
                              std::to_string(count) + " entries");
    }
    if (count == prevCount &&
        !constantTimeEqual(log->digest, prev->digest)) {
        return makeResult(p, HealthStatus::Compromised,
                          "audit log rewritten: chain head changed at "
                          "constant length");
    }
    return makeResult(p, HealthStatus::Healthy,
                      "audit log grew monotonically (" +
                          std::to_string(prevCount) + " -> " +
                          std::to_string(count) + " entries)");
}

SecurityProperty
CpuAvailabilityInterpreter::property() const
{
    return SecurityProperty::CpuAvailability;
}

PropertyResult
CpuAvailabilityInterpreter::interpret(
    const MeasurementSet &m, const InterpretationContext &ctx) const
{
    (void)ctx;
    const SecurityProperty p = property();
    const Measurement *cpu = m.find(MeasurementType::CpuMeasure);
    if (!cpu || cpu->values.empty() || cpu->windowLength <= 0)
        return makeResult(p, HealthStatus::Unknown,
                          "missing CPU usage measurement");

    const double share =
        static_cast<double>(cpu->values[0]) /
        static_cast<double>(cpu->windowLength);
    std::ostringstream oss;
    oss << "relative CPU usage " << share << " vs SLA floor "
        << kSlaMinCpuShare;
    if (share < kSlaMinCpuShare) {
        return makeResult(p, HealthStatus::Compromised,
                          "CPU availability degraded: " + oss.str());
    }
    return makeResult(p, HealthStatus::Healthy, oss.str());
}

InterpreterRegistry
InterpreterRegistry::withDefaults()
{
    InterpreterRegistry reg;
    reg.add(std::make_unique<StartupIntegrityInterpreter>());
    reg.add(std::make_unique<RuntimeIntegrityInterpreter>());
    reg.add(std::make_unique<CovertChannelInterpreter>());
    reg.add(std::make_unique<CpuAvailabilityInterpreter>());
    reg.add(std::make_unique<AuditLogIntegrityInterpreter>());
    return reg;
}

void
InterpreterRegistry::add(std::unique_ptr<PropertyInterpreter> interpreter)
{
    interpreters[interpreter->property()] = std::move(interpreter);
}

const PropertyInterpreter *
InterpreterRegistry::find(SecurityProperty p) const
{
    const auto it = interpreters.find(p);
    return it == interpreters.end() ? nullptr : it->second.get();
}

PropertyResult
InterpreterRegistry::interpret(SecurityProperty p, const MeasurementSet &m,
                               const InterpretationContext &ctx) const
{
    const PropertyInterpreter *interp = find(p);
    if (!interp) {
        return makeResult(p, HealthStatus::Unknown,
                          "no interpreter registered for " +
                          propertyName(p));
    }
    return interp->interpret(m, ctx);
}

} // namespace monatt::attestation
