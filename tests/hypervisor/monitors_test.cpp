/**
 * @file
 * Hypervisor-level monitors: VMM Profile Tool windows and interval
 * merging, VM introspection vs guest reporting, PMU synthesis, IMU
 * boot/image measurements, and the guest OS process model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/cloud.h"
#include "crypto/sha256.h"
#include "hypervisor/hypervisor.h"
#include "hypervisor/monitors.h"
#include "sim/event_queue.h"
#include "workloads/programs.h"

namespace monatt::hypervisor
{
namespace
{

TEST(GuestOsTest, ProcessLifecycle)
{
    GuestOs os;
    const auto pid = os.startProcess("nginx");
    os.startProcess("postgres");
    EXPECT_EQ(os.guestReportedTasks().size(), 2u);
    EXPECT_TRUE(os.killProcess(pid));
    EXPECT_FALSE(os.killProcess(pid));
    EXPECT_EQ(os.guestReportedTasks().size(), 1u);
}

TEST(GuestOsTest, HiddenMalwareVisibleOnlyToVmi)
{
    GuestOs os;
    os.startProcess("init");
    os.injectHiddenMalware("rootkit");
    const auto guest = os.guestReportedTasks();
    const auto truth = os.memoryTruthTasks();
    EXPECT_EQ(guest.size(), 1u);
    EXPECT_EQ(truth.size(), 2u);
    EXPECT_EQ(std::count(truth.begin(), truth.end(), "rootkit"), 1);
    EXPECT_EQ(std::count(guest.begin(), guest.end(), "rootkit"), 0);
}

TEST(VmmProfileToolTest, WindowRuntimeAndClipping)
{
    VmmProfileTool tool;
    tool.recordRun(0, 1, msec(0), msec(10)); // Before the window.
    tool.startWindow(1, msec(5));
    // Straddles the window start: only [5,10) counts... the recordRun
    // above already happened; record one straddling run now.
    tool.recordRun(0, 1, msec(4), msec(12));
    tool.recordRun(0, 1, msec(20), msec(25));
    tool.stopWindow(1, msec(30));
    EXPECT_EQ(tool.windowRuntime(1), msec(12));
    EXPECT_EQ(tool.windowLength(1, msec(99)), msec(25));
    // Lifetime accumulates everything.
    EXPECT_EQ(tool.totalRuntime(1), msec(10) + msec(8) + msec(5));
}

TEST(VmmProfileToolTest, ContiguousIntervalsMerge)
{
    VmmProfileTool tool;
    tool.startWindow(1, 0);
    tool.recordRun(0, 1, msec(0), msec(3));
    tool.recordRun(0, 1, msec(3), msec(7)); // Contiguous: merges.
    tool.recordRun(0, 1, msec(10), msec(12)); // Gap: new interval.
    tool.stopWindow(1, msec(20));
    const auto &intervals = tool.windowIntervals(1);
    ASSERT_EQ(intervals.size(), 2u);
    EXPECT_DOUBLE_EQ(intervals[0], 7.0);
    EXPECT_DOUBLE_EQ(intervals[1], 2.0);
}

TEST(VmmProfileToolTest, HistogramBinsIntervals)
{
    VmmProfileTool tool;
    tool.startWindow(1, 0);
    tool.recordRun(0, 1, msec(0), msec(4) + usec(600)); // 4.6 ms.
    tool.recordRun(0, 1, msec(10), msec(40)); // Clamps to last bin.
    tool.stopWindow(1, msec(50));
    const Histogram h = tool.intervalHistogram(1);
    EXPECT_EQ(h.counts()[4], 1u) << "the paper's (4,5] example";
    EXPECT_EQ(h.counts()[29], 1u);
}

TEST(VmmProfileToolTest, UnknownDomainIsEmpty)
{
    VmmProfileTool tool;
    EXPECT_EQ(tool.windowRuntime(99), 0);
    EXPECT_TRUE(tool.windowIntervals(99).empty());
    EXPECT_EQ(tool.totalRuntime(99), 0);
}

TEST(VmmProfileToolTest, RunOfANeverSeenDomainCountsOnlyItsLifetime)
{
    VmmProfileTool tool;
    tool.startWindow(1, 0);
    tool.recordRun(0, 1, msec(0), msec(2));
    // Domain 40 was never seen and has no window: its runs count
    // toward its lifetime runtime only.
    tool.recordRun(1, 40, msec(1), msec(4));
    tool.recordRun(1, 40, msec(4), msec(6));
    EXPECT_EQ(tool.totalRuntime(40), msec(5));
    EXPECT_EQ(tool.windowRuntime(40), 0);
    EXPECT_TRUE(tool.windowIntervals(40).empty());
    EXPECT_EQ(tool.windowLength(40, msec(9)), 0);
    // Ids between and beyond the seen ones read as empty, and stopping
    // a window on one of them is a no-op.
    for (DomainId id : {0, 2, 39, 41, 1000}) {
        tool.stopWindow(id, msec(7));
        EXPECT_EQ(tool.windowLength(id, msec(9)), 0) << id;
        EXPECT_EQ(tool.totalRuntime(id), 0) << id;
        EXPECT_EQ(tool.windowRuntime(id), 0) << id;
        EXPECT_TRUE(tool.windowIntervals(id).empty()) << id;
    }
    // Domain 1's window is untouched by domain 40's runs.
    tool.stopWindow(1, msec(10));
    EXPECT_EQ(tool.windowRuntime(1), msec(2));
    EXPECT_EQ(tool.totalRuntime(1), msec(2));
}

TEST(VmmProfileToolTest, DroppedDomainStartsAfreshOnNewRuns)
{
    VmmProfileTool tool;
    tool.startWindow(3, 0);
    tool.recordRun(0, 3, msec(0), msec(4));
    tool.recordRun(0, 3, msec(6), msec(9));
    tool.dropDomain(3);
    EXPECT_EQ(tool.totalRuntime(3), 0);
    EXPECT_EQ(tool.windowRuntime(3), 0);
    EXPECT_TRUE(tool.windowIntervals(3).empty());
    EXPECT_EQ(tool.windowLength(3, msec(20)), 0);

    // New runs after the drop: the lifetime restarts from zero and the
    // dropped window stays closed, so nothing is counted in it.
    tool.recordRun(0, 3, msec(10), msec(12));
    EXPECT_EQ(tool.totalRuntime(3), msec(2));
    EXPECT_EQ(tool.windowRuntime(3), 0);
    EXPECT_TRUE(tool.windowIntervals(3).empty());

    // A new window sees only its own runs.
    tool.startWindow(3, msec(20));
    tool.recordRun(0, 3, msec(20), msec(23));
    tool.recordRun(0, 3, msec(23), msec(24)); // Contiguous: merges.
    tool.stopWindow(3, msec(30));
    EXPECT_EQ(tool.windowRuntime(3), msec(4));
    EXPECT_EQ(tool.windowLength(3, msec(99)), msec(10));
    ASSERT_EQ(tool.windowIntervals(3).size(), 1u);
    EXPECT_DOUBLE_EQ(tool.windowIntervals(3)[0], 4.0);
    EXPECT_EQ(tool.totalRuntime(3), msec(6));
}

TEST(PmuTest, CountersScaleWithRuntime)
{
    const auto c1 = PerformanceMonitorUnit::fromRuntime(msec(1));
    const auto c2 = PerformanceMonitorUnit::fromRuntime(msec(2));
    EXPECT_EQ(c2.cycles, 2 * c1.cycles);
    EXPECT_GT(c1.instructions, c1.cycles); // IPC > 1 by default.
    EXPECT_EQ(PerformanceMonitorUnit::fromRuntime(0).cycles, 0u);
}

TEST(ImuTest, BootMeasurementsMatchExpectedValues)
{
    tpm::TpmEmulator tpm;
    IntegrityMeasurementUnit imu(tpm);
    imu.measureBoot(toBytes("hv-code"), toBytes("os-code"));
    EXPECT_EQ(imu.hypervisorPcr(),
              core::expectedBootPcr(toBytes("hv-code")));
    EXPECT_EQ(imu.hostOsPcr(), core::expectedBootPcr(toBytes("os-code")));
}

TEST(ImuTest, CorruptedSoftwareChangesPcr)
{
    tpm::TpmEmulator a, b;
    IntegrityMeasurementUnit imuA(a), imuB(b);
    imuA.measureBoot(toBytes("hv"), toBytes("os"));
    Bytes corrupted = toBytes("hv");
    corrupted[0] ^= 0x01;
    imuB.measureBoot(corrupted, toBytes("os"));
    EXPECT_NE(imuA.hypervisorPcr(), imuB.hypervisorPcr());
    EXPECT_EQ(imuA.hostOsPcr(), imuB.hostOsPcr());
}

TEST(ImuTest, VmImageMeasurement)
{
    tpm::TpmEmulator tpm;
    IntegrityMeasurementUnit imu(tpm);
    const Bytes digest = imu.measureVmImage(toBytes("image-bytes"));
    EXPECT_EQ(digest, crypto::Sha256::hash(toBytes("image-bytes")));
    EXPECT_NE(imu.vmImagePcr(), Bytes(32, 0x00));
}

TEST(HypervisorTest, DomainLifecycle)
{
    sim::EventQueue events;
    HypervisorConfig cfg;
    cfg.numPCpus = 2;
    cfg.hypervisorCode = toBytes("hv");
    cfg.hostOsCode = toBytes("os");
    Hypervisor hv(events, cfg);
    tpm::TpmEmulator tpm;
    hv.boot(tpm);
    EXPECT_TRUE(hv.booted());

    const DomainId dom = hv.createDomain("vm", 2, 1, toBytes("img"));
    EXPECT_TRUE(hv.hasDomain(dom));
    EXPECT_EQ(hv.domain(dom).vcpus.size(), 2u);
    EXPECT_EQ(hv.domain(dom).imageDigest,
              crypto::Sha256::hash(toBytes("img")));
    EXPECT_EQ(hv.domainIds().size(), 1u);

    hv.setBehavior(dom, 0, std::make_unique<workloads::SpinnerProgram>());
    events.run(msec(100));
    EXPECT_GT(hv.scheduler().stats(hv.domain(dom).vcpus[0]).runtime, 0);

    hv.pauseDomain(dom);
    EXPECT_FALSE(hv.domain(dom).running);
    hv.resumeDomain(dom);
    EXPECT_TRUE(hv.domain(dom).running);

    hv.destroyDomain(dom);
    EXPECT_FALSE(hv.hasDomain(dom));
    EXPECT_THROW(hv.domain(dom), std::out_of_range);
    EXPECT_THROW(hv.createDomain("bad", 0, 0, {}),
                 std::invalid_argument);
}

} // namespace
} // namespace monatt::hypervisor
