/**
 * @file
 * Parameterized sweeps over attack and defense configurations:
 * the covert channel works and is detected across bit-length
 * encodings; the availability attack's power depends on the exact
 * scheduler features it exploits (disable BOOST and it collapses to
 * fair sharing — the defense knob evaluated by bench_ablation_boost).
 */

#include <gtest/gtest.h>

#include "attestation/interpreters.h"
#include "hypervisor/hypervisor.h"
#include "sim/event_queue.h"
#include "workloads/attacks.h"
#include "workloads/programs.h"

namespace monatt::workloads
{
namespace
{

using hypervisor::CreditScheduler;
using hypervisor::DomainId;
using hypervisor::Hypervisor;
using hypervisor::HypervisorConfig;

std::unique_ptr<Hypervisor>
makeHv(sim::EventQueue &events, CreditScheduler::Params sched = {})
{
    HypervisorConfig cfg;
    cfg.numPCpus = 1;
    cfg.sched = sched;
    cfg.hypervisorCode = toBytes("xen");
    cfg.hostOsCode = toBytes("dom0");
    return std::make_unique<Hypervisor>(events, cfg);
}

void
bootHv(Hypervisor &hv)
{
    // boot() only uses the TPM during the call (IMU measurement), so
    // a throwaway device is fine for scheduler-focused tests.
    tpm::TpmEmulator tpm;
    hv.boot(tpm);
}

/** (shortMs, longMs, frameMs) encodings to sweep. */
struct Encoding
{
    int shortMs;
    int longMs;
    int frameMs;
};

class CovertEncodingSweep : public ::testing::TestWithParam<Encoding>
{};

TEST_P(CovertEncodingSweep, TransmitsAndIsDetected)
{
    const Encoding enc = GetParam();
    CovertChannelParams params;
    params.shortBit = msec(enc.shortMs);
    params.longBit = msec(enc.longMs);
    params.framePeriod = msec(enc.frameMs);

    sim::EventQueue events;
    auto hvPtr = makeHv(events);
    Hypervisor &hv = *hvPtr;
    bootHv(hv);
    const DomainId receiver = hv.createDomain("r", 1, 0, toBytes("r"));
    const DomainId sender = hv.createDomain("s", 2, 0, toBytes("s"),
                                            1024);
    hv.setBehavior(receiver, 0, std::make_unique<SpinnerProgram>());

    auto message = std::make_shared<CovertMessage>();
    Rng rng(enc.shortMs * 100 + enc.longMs);
    for (int i = 0; i < 64; ++i)
        message->bits.push_back(rng.nextBool());

    hv.profiler().startWindow(sender, events.now());
    installCovertSender(hv, sender, message, params);
    events.run(params.framePeriod * 70 + msec(40));
    hv.profiler().stopWindow(sender, events.now());

    // Decodable.
    const auto decoded = decodeFromGaps(
        hv.profiler().windowIntervals(sender), params);
    ASSERT_EQ(decoded.size(), message->bits.size());
    std::size_t correct = 0;
    for (std::size_t i = 0; i < decoded.size(); ++i)
        correct += decoded[i] == message->bits[i];
    EXPECT_GE(correct, decoded.size() - 2);

    // Detectable from the 30-TER histogram.
    Histogram h = hv.profiler().intervalHistogram(sender);
    attestation::CovertChannelInterpreter detector;
    std::string why;
    EXPECT_TRUE(detector.looksCovert(h.counts(), &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    Encodings, CovertEncodingSweep,
    ::testing::Values(Encoding{5, 24, 40}, Encoding{3, 15, 25},
                      Encoding{2, 12, 20}, Encoding{4, 20, 30},
                      Encoding{6, 26, 45}),
    [](const ::testing::TestParamInfo<Encoding> &info) {
        return "s" + std::to_string(info.param.shortMs) + "l" +
               std::to_string(info.param.longMs) + "f" +
               std::to_string(info.param.frameMs);
    });

/** Run the availability attack under given scheduler params; return
 * the victim slowdown. */
double
attackSlowdown(CreditScheduler::Params sched)
{
    sim::EventQueue events;
    auto hvPtr = makeHv(events, sched);
    Hypervisor &hv = *hvPtr;
    bootHv(hv);
    const DomainId victim = hv.createDomain("v", 1, 0, toBytes("v"));
    const DomainId attacker = hv.createDomain("a", 2, 0, toBytes("a"));
    SimTime completedAt = -1;
    const SimTime work = seconds(1);
    hv.setBehavior(victim, 0,
                   std::make_unique<CpuBoundProgram>(
                       work, [&](SimTime t) { completedAt = t; }));
    installAvailabilityAttack(hv, attacker);
    events.run(seconds(40));
    if (completedAt < 0)
        return 1e9;
    return toSeconds(completedAt) / toSeconds(work);
}

TEST(AvailabilityDefenseTest, DisablingBoostAloneIsNotEnough)
{
    // The attack exploits two mechanisms: BOOST preemption *and*
    // sampled credit debiting. With BOOST off the attacker still
    // dodges every tick, so it stays UNDER while the victim sinks to
    // OVER — plain priority still starves the victim.
    CreditScheduler::Params noBoost;
    noBoost.boostEnabled = false;
    EXPECT_GT(attackSlowdown(noBoost), 5.0);
}

TEST(AvailabilityDefenseTest, ExactAccountingNeutralizesTheAttack)
{
    // Charging for actual consumption (instead of sampling at ticks)
    // closes the loophole: the attacker's ~94% usage drains its
    // credits, it loses both BOOST eligibility and UNDER priority,
    // and the victim recovers its fair share.
    CreditScheduler::Params vulnerable;
    CreditScheduler::Params hardened;
    hardened.exactAccounting = true;

    const double attacked = attackSlowdown(vulnerable);
    const double defended = attackSlowdown(hardened);
    EXPECT_GT(attacked, 10.0);
    EXPECT_LT(defended, 3.0);
}

TEST(AvailabilityDefenseTest, ExactAccountingPreservesFairSharing)
{
    // The defense must not break the normal case: two CPU-bound
    // domains still split the CPU evenly.
    CreditScheduler::Params hardened;
    hardened.exactAccounting = true;
    sim::EventQueue events;
    auto hvPtr = makeHv(events, hardened);
    Hypervisor &hv = *hvPtr;
    bootHv(hv);
    const DomainId a = hv.createDomain("a", 1, 0, toBytes("a"));
    const DomainId b = hv.createDomain("b", 1, 0, toBytes("b"));
    hv.setBehavior(a, 0, std::make_unique<SpinnerProgram>());
    hv.setBehavior(b, 0, std::make_unique<SpinnerProgram>());
    events.run(seconds(10));
    const double ra = toSeconds(
        hv.scheduler().stats(hv.domain(a).vcpus[0]).runtime);
    const double rb = toSeconds(
        hv.scheduler().stats(hv.domain(b).vcpus[0]).runtime);
    EXPECT_NEAR(ra, 5.0, 0.6);
    EXPECT_NEAR(rb, 5.0, 0.6);
}

class TickPeriodSweep : public ::testing::TestWithParam<int>
{};

TEST_P(TickPeriodSweep, AttackTracksSamplingPeriod)
{
    // The attack dodges the sampling tick; it works at any sampling
    // period because the attacker plans its bursts against nextTick.
    CreditScheduler::Params params;
    params.tickPeriod = msec(GetParam());
    const double slowdown = attackSlowdown(params);
    EXPECT_GT(slowdown, 5.0) << "tick period " << GetParam() << " ms";
}

INSTANTIATE_TEST_SUITE_P(Periods, TickPeriodSweep,
                         ::testing::Values(5, 10, 20));

} // namespace
} // namespace monatt::workloads
