#include "hypervisor/monitors.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/sha256.h"

namespace monatt::hypervisor
{

const std::vector<double> VmmProfileTool::kNoIntervals;

void
VmmProfileTool::closeOpenInterval(DomainWindow &w)
{
    if (!w.intervalOpen)
        return;
    const double ms = toMillis(w.lastEnd - w.openIntervalStart);
    if (ms > 0)
        w.intervals.push_back(ms);
    w.intervalOpen = false;
}

VmmProfileTool::DomainWindow &
VmmProfileTool::entry(DomainId domain)
{
    if (domain < 0)
        throw std::out_of_range("VmmProfileTool: negative domain id");
    const auto index = static_cast<std::size_t>(domain);
    if (index >= windows.size())
        windows.resize(index + 1);
    DomainWindow &w = windows[index];
    w.seen = true;
    return w;
}

const VmmProfileTool::DomainWindow *
VmmProfileTool::find(DomainId domain) const
{
    const auto index = static_cast<std::size_t>(domain);
    if (domain < 0 || index >= windows.size() || !windows[index].seen)
        return nullptr;
    return &windows[index];
}

void
VmmProfileTool::dropDomain(DomainId domain)
{
    if (find(domain) != nullptr)
        windows[static_cast<std::size_t>(domain)] = DomainWindow{};
}

void
VmmProfileTool::recordRun(VCpuId vcpu, DomainId domain, SimTime start,
                          SimTime end)
{
    (void)vcpu;
    DomainWindow &w = entry(domain);
    w.lifetimeRuntime += end - start;
    if (!w.open)
        return;

    // Clip to the window.
    const SimTime s = std::max(start, w.windowStart);
    if (end <= s)
        return;
    w.runtime += end - s;

    if (w.intervalOpen && s == w.lastEnd) {
        // Contiguous with the previous run: extend it.
        w.lastEnd = end;
    } else {
        closeOpenInterval(w);
        w.openIntervalStart = s;
        w.lastEnd = end;
        w.intervalOpen = true;
    }
}

void
VmmProfileTool::startWindow(DomainId domain, SimTime now)
{
    DomainWindow &w = entry(domain);
    w.open = true;
    w.windowStart = now;
    w.windowEnd = now;
    w.runtime = 0;
    w.intervals.clear();
    w.intervalOpen = false;
    w.lastEnd = -1;
}

void
VmmProfileTool::stopWindow(DomainId domain, SimTime now)
{
    if (find(domain) == nullptr)
        return;
    DomainWindow &w = windows[static_cast<std::size_t>(domain)];
    closeOpenInterval(w);
    w.open = false;
    w.windowEnd = now;
}

SimTime
VmmProfileTool::windowRuntime(DomainId domain) const
{
    const DomainWindow *w = find(domain);
    return w == nullptr ? 0 : w->runtime;
}

SimTime
VmmProfileTool::windowLength(DomainId domain, SimTime now) const
{
    const DomainWindow *w = find(domain);
    if (w == nullptr)
        return 0;
    return (w->open ? now : w->windowEnd) - w->windowStart;
}

const std::vector<double> &
VmmProfileTool::windowIntervals(DomainId domain) const
{
    const DomainWindow *w = find(domain);
    return w == nullptr ? kNoIntervals : w->intervals;
}

Histogram
VmmProfileTool::intervalHistogram(DomainId domain, std::size_t bins,
                                  double spanMs) const
{
    Histogram h(0.0, spanMs, bins);
    for (double ms : windowIntervals(domain))
        h.add(ms);
    return h;
}

SimTime
VmmProfileTool::totalRuntime(DomainId domain) const
{
    const DomainWindow *w = find(domain);
    return w == nullptr ? 0 : w->lifetimeRuntime;
}

std::vector<std::string>
VmIntrospectionTool::probeTaskList(const Domain &domain)
{
    return domain.guestOs.memoryTruthTasks();
}

std::vector<std::string>
VmIntrospectionTool::queryGuest(const Domain &domain)
{
    return domain.guestOs.guestReportedTasks();
}

PerformanceMonitorUnit::Counters
PerformanceMonitorUnit::fromRuntime(SimTime runtime, double ghz,
                                    double ipc)
{
    Counters c;
    const double usecs = static_cast<double>(runtime);
    c.cycles = static_cast<std::uint64_t>(usecs * ghz * 1000.0);
    c.instructions = static_cast<std::uint64_t>(
        static_cast<double>(c.cycles) * ipc);
    return c;
}

void
IntegrityMeasurementUnit::measureBoot(const Bytes &hypervisorCode,
                                      const Bytes &hostOsCode)
{
    dev.extend(kPcrHypervisor, hypervisorCode);
    dev.extend(kPcrHostOs, hostOsCode);
}

Bytes
IntegrityMeasurementUnit::measureVmImage(const Bytes &image)
{
    dev.extend(kPcrVmImage, image);
    return crypto::Sha256::hash(image);
}

Bytes
IntegrityMeasurementUnit::hypervisorPcr() const
{
    return dev.pcrRead(kPcrHypervisor);
}

Bytes
IntegrityMeasurementUnit::hostOsPcr() const
{
    return dev.pcrRead(kPcrHostOs);
}

Bytes
IntegrityMeasurementUnit::vmImagePcr() const
{
    return dev.pcrRead(kPcrVmImage);
}

} // namespace monatt::hypervisor
