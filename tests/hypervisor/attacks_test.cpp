/**
 * @file
 * End-to-end tests of the paper's two attacks on the simulated credit
 * scheduler: the availability attack must starve the victim by >10x
 * (Figure 6), and the covert channel must transmit bits that are
 * decodable by the receiver and visible as a bimodal usage-interval
 * distribution (Figures 4 and 5).
 */

#include <gtest/gtest.h>

#include "hypervisor/hypervisor.h"
#include "sim/event_queue.h"
#include "workloads/attacks.h"
#include "workloads/programs.h"
#include "workloads/services.h"

namespace monatt::workloads
{
namespace
{

using hypervisor::DomainId;
using hypervisor::Hypervisor;
using hypervisor::HypervisorConfig;

struct AttackFixture
{
    sim::EventQueue events;
    Hypervisor hv;
    tpm::TpmEmulator tpm;

    AttackFixture() : hv(events, makeConfig())
    {
        hv.boot(tpm);
    }

    static HypervisorConfig
    makeConfig()
    {
        HypervisorConfig cfg;
        cfg.numPCpus = 1; // Attacker and victim share one CPU (§4.5.1).
        cfg.hypervisorCode = toBytes("xen-4.2");
        cfg.hostOsCode = toBytes("dom0-linux");
        return cfg;
    }
};

TEST(AvailabilityAttackTest, StarvesVictimMoreThanTenfold)
{
    AttackFixture f;
    const DomainId victim = f.hv.createDomain("victim", 1, 0,
                                              toBytes("img-v"));
    const DomainId attacker = f.hv.createDomain("attacker", 2, 0,
                                                toBytes("img-a"));

    SimTime completedAt = -1;
    const SimTime work = seconds(1);
    f.hv.setBehavior(victim, 0, std::make_unique<CpuBoundProgram>(
                                    work,
                                    [&](SimTime t) { completedAt = t; }));
    installAvailabilityAttack(f.hv, attacker);

    f.events.run(seconds(30));
    ASSERT_GT(completedAt, 0) << "victim never finished";
    const double slowdown = toSeconds(completedAt) / toSeconds(work);
    EXPECT_GT(slowdown, 10.0);
    EXPECT_LT(slowdown, 40.0); // Sanity: not a total lockout.
}

TEST(AvailabilityAttackTest, AttackerDodgesTickSampling)
{
    AttackFixture f;
    const DomainId victim = f.hv.createDomain("victim", 1, 0,
                                              toBytes("img-v"));
    const DomainId attacker = f.hv.createDomain("attacker", 2, 0,
                                                toBytes("img-a"));
    f.hv.setBehavior(victim, 0, std::make_unique<SpinnerProgram>());
    installAvailabilityAttack(f.hv, attacker);
    f.events.run(seconds(5));

    auto &sched = f.hv.scheduler();
    const auto hogVcpu = f.hv.domain(attacker).vcpus[0];
    const auto victimVcpu = f.hv.domain(victim).vcpus[0];
    // The hog owns >90% of the CPU yet absorbs almost no tick debits;
    // the starved victim absorbs nearly all of them.
    EXPECT_GT(sched.stats(hogVcpu).runtime,
              9 * sched.stats(victimVcpu).runtime);
    EXPECT_LT(sched.stats(hogVcpu).ticksAbsorbed,
              sched.stats(victimVcpu).ticksAbsorbed / 4 + 10);
}

TEST(AvailabilityAttackTest, VictimUnaffectedByIoBoundNeighbor)
{
    // Contrast case from Figure 6: an I/O-bound co-runner leaves the
    // victim essentially at solo speed.
    AttackFixture f;
    const DomainId victim = f.hv.createDomain("victim", 1, 0,
                                              toBytes("img-v"));
    const DomainId neighbor = f.hv.createDomain("file-server", 1, 0,
                                                toBytes("img-f"));
    SimTime completedAt = -1;
    const SimTime work = seconds(1);
    f.hv.setBehavior(victim, 0, std::make_unique<CpuBoundProgram>(
                                    work,
                                    [&](SimTime t) { completedAt = t; }));
    f.hv.setBehavior(neighbor, 0, makeService("file"));
    f.events.run(seconds(10));
    ASSERT_GT(completedAt, 0);
    const double slowdown = toSeconds(completedAt) / toSeconds(work);
    EXPECT_LT(slowdown, 1.25);
}

TEST(AvailabilityAttackTest, CpuBoundNeighborDoublesRuntime)
{
    AttackFixture f;
    const DomainId victim = f.hv.createDomain("victim", 1, 0,
                                              toBytes("img-v"));
    const DomainId neighbor = f.hv.createDomain("db-server", 1, 0,
                                                toBytes("img-d"));
    SimTime completedAt = -1;
    const SimTime work = seconds(1);
    f.hv.setBehavior(victim, 0, std::make_unique<CpuBoundProgram>(
                                    work,
                                    [&](SimTime t) { completedAt = t; }));
    f.hv.setBehavior(neighbor, 0, makeService("database"));
    f.events.run(seconds(10));
    ASSERT_GT(completedAt, 0);
    const double slowdown = toSeconds(completedAt) / toSeconds(work);
    EXPECT_GT(slowdown, 1.5);
    EXPECT_LT(slowdown, 2.6);
}

/** Transmit a fixed message and return the VMM-profiled intervals of
 * the sender plus the receiver-inferred gaps. */
struct CovertRun
{
    std::vector<double> senderIntervals;
    std::vector<bool> sent;
    std::vector<bool> decoded;
};

CovertRun
runCovertChannel(const CovertChannelParams &params, std::size_t numBits)
{
    AttackFixture f;
    const DomainId receiver = f.hv.createDomain("receiver", 1, 0,
                                                toBytes("img-r"));
    // Heavier weight models the paper's sender "keeping its vCPUs
    // idle for some time to build up Xen scheduling credits": the
    // sender's credit inflow covers its tick debits.
    const DomainId sender = f.hv.createDomain("sender", 2, 0,
                                              toBytes("img-s"), 1024);
    f.hv.setBehavior(receiver, 0, std::make_unique<SpinnerProgram>());

    auto message = std::make_shared<CovertMessage>();
    Rng rng(0xbeef);
    for (std::size_t i = 0; i < numBits; ++i)
        message->bits.push_back(rng.nextBool());

    f.hv.profiler().startWindow(sender, f.events.now());
    // Track receiver gaps via its run intervals.
    f.hv.profiler().startWindow(receiver, f.events.now());

    installCovertSender(f.hv, sender, message, params);
    // Margin covers the receiver's initial 30 ms slice (transmission
    // starts once the helper is first scheduled) plus trailing frames.
    const SimTime duration =
        params.framePeriod * static_cast<SimTime>(numBits + 4) + msec(40);
    f.events.run(duration);
    f.hv.profiler().stopWindow(sender, f.events.now());
    f.hv.profiler().stopWindow(receiver, f.events.now());

    CovertRun out;
    out.sent = message->bits;
    out.senderIntervals = f.hv.profiler().windowIntervals(sender);
    // Sender occupancy == gaps in the receiver's otherwise continuous
    // execution == exactly the sender's merged intervals; decode from
    // the sender's observed intervals (what the receiver would infer).
    out.decoded = decodeFromGaps(out.senderIntervals, params);
    return out;
}

TEST(CovertChannelTest, TransmitsDecodableBits)
{
    const CovertRun run = runCovertChannel(
        CovertChannelParams::detectPreset(), 64);
    ASSERT_EQ(run.decoded.size(), run.sent.size());
    std::size_t correct = 0;
    for (std::size_t i = 0; i < run.sent.size(); ++i)
        correct += run.decoded[i] == run.sent[i];
    // Expect an essentially clean channel in simulation.
    EXPECT_GE(correct, run.sent.size() - 1);
}

TEST(CovertChannelTest, FastPresetReaches200Bps)
{
    const CovertChannelParams params = CovertChannelParams::fastPreset();
    EXPECT_NEAR(params.bandwidthBps(), 200.0, 1.0);
    const CovertRun run = runCovertChannel(params, 100);
    ASSERT_EQ(run.decoded.size(), run.sent.size());
    std::size_t correct = 0;
    for (std::size_t i = 0; i < run.sent.size(); ++i)
        correct += run.decoded[i] == run.sent[i];
    EXPECT_GE(correct, run.sent.size() - 2);
}

TEST(CovertChannelTest, SenderIntervalsAreBimodal)
{
    const CovertChannelParams params =
        CovertChannelParams::detectPreset();
    const CovertRun run = runCovertChannel(params, 128);

    Histogram h(0.0, 30.0, 30);
    for (double ms : run.senderIntervals)
        h.add(ms);
    const auto peaks = findPeaks(h.distribution(), 0.15);
    ASSERT_EQ(peaks.size(), 2u) << "expected two covert peaks";
    // Peaks near the 5 ms and 24 ms bit durations.
    EXPECT_NEAR(static_cast<double>(peaks[0].bin), 4.0, 2.0);
    EXPECT_NEAR(static_cast<double>(peaks[1].bin), 23.0, 2.0);
}

TEST(CovertChannelTest, BenignVmIsUnimodalAtFullSlice)
{
    // Two CPU-bound VMs: each runs full 30 ms slices, so the monitored
    // VM's usage intervals pile into the last bin (Figure 5 bottom).
    AttackFixture f;
    const DomainId a = f.hv.createDomain("benign", 1, 0, toBytes("a"));
    const DomainId b = f.hv.createDomain("rival", 1, 0, toBytes("b"));
    f.hv.setBehavior(a, 0, std::make_unique<SpinnerProgram>());
    f.hv.setBehavior(b, 0, std::make_unique<SpinnerProgram>());

    f.hv.profiler().startWindow(a, f.events.now());
    f.events.run(seconds(10));
    f.hv.profiler().stopWindow(a, f.events.now());

    const Histogram h = f.hv.profiler().intervalHistogram(a);
    const auto peaks = findPeaks(h.distribution(), 0.15);
    ASSERT_EQ(peaks.size(), 1u);
    EXPECT_GE(peaks[0].bin, 27u);
}

} // namespace
} // namespace monatt::workloads
