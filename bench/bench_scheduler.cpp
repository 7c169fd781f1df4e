/**
 * @file
 * Micro benchmarks of the simulation substrate: event queue
 * throughput and credit-scheduler simulation speed (simulated seconds
 * per wall second), establishing that the figure benches' multi-
 * minute simulated workloads are cheap to regenerate, and the guest
 * CPU of a fleet of hosts sharing one queue.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "hypervisor/hypervisor.h"
#include "sim/event_queue.h"
#include "workloads/attacks.h"
#include "workloads/programs.h"
#include "workloads/services.h"

using namespace monatt;
using namespace monatt::hypervisor;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue events;
        int counter = 0;
        for (int i = 0; i < 1000; ++i) {
            events.scheduleAfter(usec(i), [&counter] { ++counter; });
        }
        events.runAll();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_SchedulerSimulatedSecond(benchmark::State &state)
{
    // Two contending spinners plus an I/O service: one simulated
    // second per iteration.
    for (auto _ : state) {
        state.PauseTiming();
        sim::EventQueue events;
        CreditScheduler sched(events, CreditScheduler::Params{});
        sched.addPCpu();
        const VCpuId a = sched.addVCpu(1, 0);
        const VCpuId b = sched.addVCpu(2, 0);
        const VCpuId c = sched.addVCpu(3, 0);
        sched.setBehavior(a,
                          std::make_unique<workloads::SpinnerProgram>());
        sched.setBehavior(b,
                          std::make_unique<workloads::SpinnerProgram>());
        sched.setBehavior(c, workloads::makeService("file"));
        sched.start();
        state.ResumeTiming();

        events.run(seconds(1));
        benchmark::DoNotOptimize(sched.stats(a).runtime);
    }
}
BENCHMARK(BM_SchedulerSimulatedSecond)->Unit(benchmark::kMillisecond);

void
BM_AvailabilityAttackSimulatedSecond(benchmark::State &state)
{
    // The boost-preemption attack is the scheduler's worst case
    // (hundreds of context switches per simulated second).
    for (auto _ : state) {
        state.PauseTiming();
        sim::EventQueue events;
        HypervisorConfig cfg;
        cfg.numPCpus = 1;
        cfg.hypervisorCode = toBytes("xen");
        cfg.hostOsCode = toBytes("dom0");
        Hypervisor hv(events, cfg);
        tpm::TpmEmulator tpm;
        hv.boot(tpm);
        const DomainId victim = hv.createDomain("victim", 1, 0,
                                                toBytes("v"));
        const DomainId attacker = hv.createDomain("attacker", 2, 0,
                                                  toBytes("a"));
        hv.setBehavior(victim, 0,
                       std::make_unique<workloads::SpinnerProgram>());
        workloads::installAvailabilityAttack(hv, attacker);
        state.ResumeTiming();

        events.run(seconds(1));
        benchmark::DoNotOptimize(hv.scheduler().stats(0).runtime);
    }
}
BENCHMARK(BM_AvailabilityAttackSimulatedSecond)
    ->Unit(benchmark::kMillisecond);

/** A busy guest: 10 ms CPU bursts between 1 ms waits, woken without
 * BOOST (the guest perfbench runs in every VM). */
class BusyGuest final : public Behavior
{
  public:
    BurstPlan
    next(const BehaviorContext &) override
    {
        BurstPlan plan;
        plan.burst = msec(10);
        plan.blockFor = msec(1);
        plan.wakeIsInterrupt = false;
        return plan;
    }
};

void
BM_FleetSimulatedSecond(benchmark::State &state)
{
    // 32 hypervisors x 4 busy vCPUs (one per pCPU) on one queue, plus
    // one global event per simulated millisecond standing in for the
    // network traffic between them: one simulated second per
    // iteration.
    constexpr int kHosts = 32;
    constexpr int kVcpus = 4;
    tpm::TpmEmulator tpm;
    HypervisorConfig cfg;
    cfg.numPCpus = kVcpus;
    cfg.hypervisorCode = toBytes("xen");
    cfg.hostOsCode = toBytes("dom0");
    std::int64_t executed = 0;
    // Built and torn down outside the timed region; the hosts leave
    // the queue before it goes.
    std::vector<std::unique_ptr<Hypervisor>> fleet;
    std::unique_ptr<sim::EventQueue> events;
    for (auto _ : state) {
        state.PauseTiming();
        fleet.clear();
        events = std::make_unique<sim::EventQueue>();
        for (int h = 0; h < kHosts; ++h) {
            fleet.push_back(std::make_unique<Hypervisor>(*events, cfg));
            Hypervisor &hv = *fleet.back();
            hv.boot(tpm);
            for (int v = 0; v < kVcpus; ++v) {
                const DomainId dom =
                    hv.createDomain("vm", 1, v, toBytes("img"));
                hv.setBehavior(dom, 0, std::make_unique<BusyGuest>());
            }
        }
        int delivered = 0;
        for (int ms = 1; ms <= 1000; ++ms)
            events->schedule(msec(ms), [&delivered] { ++delivered; });
        state.ResumeTiming();

        events->run(seconds(1));
        executed += static_cast<std::int64_t>(events->executed());
        benchmark::DoNotOptimize(delivered);
    }
    fleet.clear();
    state.SetItemsProcessed(executed);
}
BENCHMARK(BM_FleetSimulatedSecond)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
