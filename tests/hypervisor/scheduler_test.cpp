/**
 * @file
 * Credit scheduler: fairness, priorities, preemption, credits,
 * suspend/resume — the mechanics the paper's attacks exploit.
 */

#include <gtest/gtest.h>

#include "hypervisor/scheduler.h"
#include "sim/event_queue.h"
#include "workloads/programs.h"

namespace monatt::hypervisor
{
namespace
{

using workloads::CpuBoundProgram;
using workloads::IdleProgram;
using workloads::SpinnerProgram;

struct SchedFixture
{
    sim::EventQueue events;
    CreditScheduler sched;

    SchedFixture() : sched(events, CreditScheduler::Params{})
    {
        sched.addPCpu();
    }
};

TEST(SchedulerTest, SingleVCpuGetsAllCpu)
{
    SchedFixture f;
    const VCpuId v = f.sched.addVCpu(/*domain=*/1, /*pcpu=*/0);
    f.sched.setBehavior(v, std::make_unique<SpinnerProgram>());
    f.sched.start();
    f.events.run(seconds(1));
    EXPECT_NEAR(toSeconds(f.sched.stats(v).runtime), 1.0, 0.01);
}

TEST(SchedulerTest, TwoSpinnersShareFairly)
{
    SchedFixture f;
    const VCpuId a = f.sched.addVCpu(1, 0);
    const VCpuId b = f.sched.addVCpu(2, 0);
    f.sched.setBehavior(a, std::make_unique<SpinnerProgram>());
    f.sched.setBehavior(b, std::make_unique<SpinnerProgram>());
    f.sched.start();
    f.events.run(seconds(10));
    const double ra = toSeconds(f.sched.stats(a).runtime);
    const double rb = toSeconds(f.sched.stats(b).runtime);
    EXPECT_NEAR(ra, 5.0, 0.5);
    EXPECT_NEAR(rb, 5.0, 0.5);
    EXPECT_NEAR(ra + rb, 10.0, 0.05);
}

TEST(SchedulerTest, WeightsBiasFairShare)
{
    // Xen weights bias credit allotment; the heavier vCPU should stay
    // UNDER longer and receive measurably more CPU.
    SchedFixture f;
    const VCpuId heavy = f.sched.addVCpu(1, 0, /*weight=*/512);
    const VCpuId light = f.sched.addVCpu(2, 0, /*weight=*/256);
    f.sched.setBehavior(heavy, std::make_unique<SpinnerProgram>());
    f.sched.setBehavior(light, std::make_unique<SpinnerProgram>());
    f.sched.start();
    f.events.run(seconds(10));
    EXPECT_GT(f.sched.stats(heavy).runtime,
              f.sched.stats(light).runtime);
}

TEST(SchedulerTest, CpuBoundProgramCompletes)
{
    SchedFixture f;
    const VCpuId v = f.sched.addVCpu(1, 0);
    SimTime completedAt = -1;
    f.sched.setBehavior(v, std::make_unique<CpuBoundProgram>(
                               seconds(2),
                               [&](SimTime t) { completedAt = t; }));
    f.sched.start();
    f.events.run(seconds(5));
    // Alone on the pCPU: completion at ~2 s of wall clock.
    EXPECT_NEAR(toSeconds(completedAt), 2.0, 0.01);
    EXPECT_NEAR(toSeconds(f.sched.stats(v).runtime), 2.0, 0.01);
}

TEST(SchedulerTest, ContendedProgramTakesTwiceAsLong)
{
    // The Figure 6 "fair share" shape: a CPU-bound victim against a
    // CPU-bound co-runner finishes in ~2x its solo time.
    SchedFixture f;
    const VCpuId victim = f.sched.addVCpu(1, 0);
    const VCpuId rival = f.sched.addVCpu(2, 0);
    SimTime completedAt = -1;
    f.sched.setBehavior(victim, std::make_unique<CpuBoundProgram>(
                                    seconds(2),
                                    [&](SimTime t) { completedAt = t; }));
    f.sched.setBehavior(rival, std::make_unique<SpinnerProgram>());
    f.sched.start();
    f.events.run(seconds(10));
    EXPECT_NEAR(toSeconds(completedAt), 4.0, 0.4);
}

TEST(SchedulerTest, IdleVCpuConsumesNothing)
{
    SchedFixture f;
    const VCpuId idle = f.sched.addVCpu(1, 0);
    const VCpuId busy = f.sched.addVCpu(2, 0);
    f.sched.setBehavior(idle, std::make_unique<IdleProgram>());
    f.sched.setBehavior(busy, std::make_unique<SpinnerProgram>());
    f.sched.start();
    f.events.run(seconds(2));
    EXPECT_EQ(f.sched.stats(idle).runtime, 0);
    EXPECT_NEAR(toSeconds(f.sched.stats(busy).runtime), 2.0, 0.01);
}

TEST(SchedulerTest, RunningVCpuAbsorbsTickDebits)
{
    SchedFixture f;
    const VCpuId v = f.sched.addVCpu(1, 0);
    f.sched.setBehavior(v, std::make_unique<SpinnerProgram>());
    f.sched.start();
    f.events.run(seconds(1));
    // 100 ticks in 1 s; the only running vCPU absorbs all of them.
    EXPECT_EQ(f.sched.stats(v).ticksAbsorbed, 100u);
}

TEST(SchedulerTest, SoleSpinnerGoesOverAndRecovers)
{
    // A spinner sharing with nothing: it pays 300/period and receives
    // 300/period, so credits hover near the starting level and the
    // vCPU oscillates around the UNDER/OVER boundary without ever
    // being starved.
    SchedFixture f;
    const VCpuId v = f.sched.addVCpu(1, 0);
    f.sched.setBehavior(v, std::make_unique<SpinnerProgram>());
    f.sched.start();
    f.events.run(seconds(1));
    EXPECT_GE(f.sched.credits(v), -300);
    EXPECT_LE(f.sched.credits(v), 300);
}

TEST(SchedulerTest, InterruptWakeBoostsAndPreempts)
{
    // An I/O-style vCPU waking with positive credits gets BOOST and
    // runs promptly even though a spinner occupies the CPU.
    SchedFixture f;
    const VCpuId spinner = f.sched.addVCpu(1, 0);
    const VCpuId sleeper = f.sched.addVCpu(2, 0);

    struct Waker : Behavior
    {
        BurstPlan
        next(const BehaviorContext &) override
        {
            BurstPlan p;
            p.burst = usec(200);
            p.blockFor = msec(5);
            p.wakeIsInterrupt = true;
            return p;
        }
    };

    f.sched.setBehavior(spinner, std::make_unique<SpinnerProgram>());
    f.sched.setBehavior(sleeper, std::make_unique<Waker>());
    f.sched.start();
    f.events.run(seconds(2));

    const VCpuStats &s = f.sched.stats(sleeper);
    // ~385 wake/run cycles in 2 s; boosts on nearly all of them.
    EXPECT_GT(s.wakes, 300u);
    EXPECT_GT(s.boosts, s.wakes / 2);
    // It got its ~200 us per 5.2 ms despite the spinner.
    EXPECT_GT(toSeconds(s.runtime), 0.05);
}

TEST(SchedulerTest, BoostDisabledDelaysWaker)
{
    CreditScheduler::Params params;
    params.boostEnabled = false;
    sim::EventQueue events;
    CreditScheduler sched(events, params);
    sched.addPCpu();
    const VCpuId spinner = sched.addVCpu(1, 0);
    const VCpuId sleeper = sched.addVCpu(2, 0);

    struct Waker : Behavior
    {
        BurstPlan
        next(const BehaviorContext &) override
        {
            BurstPlan p;
            p.burst = usec(200);
            p.blockFor = msec(5);
            return p;
        }
    };

    sched.setBehavior(spinner, std::make_unique<SpinnerProgram>());
    sched.setBehavior(sleeper, std::make_unique<Waker>());
    sched.start();
    events.run(seconds(2));
    EXPECT_EQ(sched.stats(sleeper).boosts, 0u);
}

TEST(SchedulerTest, SuspendStopsExecutionResumeRestarts)
{
    SchedFixture f;
    const VCpuId v = f.sched.addVCpu(1, 0);
    f.sched.setBehavior(v, std::make_unique<SpinnerProgram>());
    f.sched.start();
    f.events.run(seconds(1));
    const SimTime before = f.sched.stats(v).runtime;

    f.sched.suspend(v);
    f.events.run(seconds(2));
    EXPECT_EQ(f.sched.stats(v).runtime, before);
    EXPECT_EQ(f.sched.state(v), VCpuState::Blocked);

    f.sched.resume(v);
    f.events.run(seconds(3));
    EXPECT_NEAR(toSeconds(f.sched.stats(v).runtime - before), 1.0, 0.01);
}

TEST(SchedulerTest, RetireRemovesVCpu)
{
    SchedFixture f;
    const VCpuId v = f.sched.addVCpu(1, 0);
    const VCpuId other = f.sched.addVCpu(2, 0);
    f.sched.setBehavior(v, std::make_unique<SpinnerProgram>());
    f.sched.setBehavior(other, std::make_unique<SpinnerProgram>());
    f.sched.start();
    f.events.run(seconds(1));
    f.sched.retire(v);
    const SimTime at = f.sched.stats(v).runtime;
    f.events.run(seconds(2));
    EXPECT_EQ(f.sched.stats(v).runtime, at);
    // The survivor now owns the whole CPU.
    EXPECT_NEAR(toSeconds(f.sched.stats(other).runtime),
                0.5 + 1.0, 0.3);
}

TEST(SchedulerTest, RetiringTheRunningVCpuReleasesItsPCpu)
{
    // Retiring a vCPU mid-burst must deschedule it for good: it may
    // neither keep the pCPU for the rest of its burst nor ask its
    // destroyed workload for another plan.
    SchedFixture f;
    const VCpuId v = f.sched.addVCpu(1, 0);
    const VCpuId other = f.sched.addVCpu(2, 0);
    f.sched.setBehavior(v, std::make_unique<CpuBoundProgram>(seconds(10)));
    f.sched.start();
    f.events.run(msec(5));
    f.sched.retire(v);
    EXPECT_EQ(f.sched.state(v), VCpuState::Blocked);
    f.sched.setBehavior(other, std::make_unique<SpinnerProgram>());
    f.events.run(msec(100));
    EXPECT_EQ(f.sched.stats(v).runtime, msec(5));
    EXPECT_EQ(f.sched.state(other), VCpuState::Running);
    // The pCPU never idled: 5 ms of v, then the survivor.
    EXPECT_EQ(f.sched.pcpuBusyTime(0), msec(100));
}

TEST(SchedulerTest, SetBehaviorDiscardsTheOutstandingPlan)
{
    // Replacing a workload mid-burst drops the old plan unfired: its
    // completion callback would run on the destroyed workload.
    SchedFixture f;
    const VCpuId v = f.sched.addVCpu(1, 0);
    bool oldCompleted = false;
    f.sched.setBehavior(v, std::make_unique<CpuBoundProgram>(
                               msec(10),
                               [&](SimTime) { oldCompleted = true; }));
    f.sched.start();
    f.events.run(msec(5));
    f.sched.setBehavior(v, std::make_unique<SpinnerProgram>());
    f.events.run(msec(50));
    EXPECT_FALSE(oldCompleted);
    EXPECT_EQ(f.sched.state(v), VCpuState::Running);
    // The spinner took over at once.
    EXPECT_EQ(f.sched.pcpuBusyTime(0), msec(50));
}

TEST(SchedulerTest, RunHookReportsIntervals)
{
    SchedFixture f;
    const VCpuId v = f.sched.addVCpu(7, 0);
    SimTime total = 0;
    int count = 0;
    f.sched.setRunHook([&](VCpuId vcpu, DomainId dom, SimTime s,
                           SimTime e) {
        EXPECT_EQ(vcpu, v);
        EXPECT_EQ(dom, 7);
        EXPECT_LT(s, e);
        total += e - s;
        ++count;
    });
    f.sched.setBehavior(v, std::make_unique<CpuBoundProgram>(msec(100)));
    f.sched.start();
    f.events.run(seconds(1));
    EXPECT_GT(count, 0);
    EXPECT_EQ(total, msec(100));
}

TEST(SchedulerTest, PcpuBusyTimeTracksLoad)
{
    SchedFixture f;
    const VCpuId v = f.sched.addVCpu(1, 0);
    f.sched.setBehavior(v, std::make_unique<CpuBoundProgram>(msec(300)));
    f.sched.start();
    f.events.run(seconds(1));
    EXPECT_EQ(f.sched.pcpuBusyTime(0), msec(300));
}

TEST(SchedulerTest, MultiplePCpusIndependent)
{
    SchedFixture f;
    const int p1 = f.sched.addPCpu();
    const VCpuId a = f.sched.addVCpu(1, 0);
    const VCpuId b = f.sched.addVCpu(2, p1);
    f.sched.setBehavior(a, std::make_unique<SpinnerProgram>());
    f.sched.setBehavior(b, std::make_unique<SpinnerProgram>());
    f.sched.start();
    f.events.run(seconds(1));
    EXPECT_NEAR(toSeconds(f.sched.stats(a).runtime), 1.0, 0.01);
    EXPECT_NEAR(toSeconds(f.sched.stats(b).runtime), 1.0, 0.01);
}

TEST(SchedulerTest, AddVCpuRejectsBadPCpu)
{
    SchedFixture f;
    EXPECT_THROW(f.sched.addVCpu(1, 5), std::out_of_range);
    EXPECT_THROW(f.sched.addVCpu(1, -1), std::out_of_range);
}

} // namespace
} // namespace monatt::hypervisor
