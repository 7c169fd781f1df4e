/**
 * @file
 * Xen-like credit scheduler.
 *
 * Models the mechanism both attacks in §4 exploit:
 *
 *  - Credits: "each VM receives some credits periodically, and the
 *    running VM pays out credits" (§4.5.1). An accounting pass every
 *    30 ms distributes credits by weight; a sampling tick every 10 ms
 *    debits the vCPU that happens to be running at the tick instant —
 *    the *sampled* debiting is the real Xen flaw that lets an attacker
 *    who sleeps across tick boundaries keep its credits while the
 *    victim absorbs every debit.
 *
 *  - Priorities: BOOST > UNDER > OVER. "when a VM is woken up by
 *    certain interrupts, it always gets higher priority to take over
 *    the CPU" — a vCPU waking with positive credits enters BOOST and
 *    preempts lower-priority running vCPUs. Inter-processor
 *    interrupts (IPIs) between a domain's own vCPUs are the wakeup
 *    vehicle both the covert-channel sender (§4.4.1) and the
 *    availability attacker (§4.5.1) use.
 *
 * vCPU workloads are pluggable Behavior objects that produce
 * burst/block plans; the scheduler executes them on its own host
 * timers (sim/host_timers.h), which the shared discrete-event queue
 * drains in exact (when, seq) order, supports preemption mid-burst,
 * and reports every completed run interval through a hook (consumed
 * by the VMM Profile Tool in monitors.h).
 */

#ifndef MONATT_HYPERVISOR_SCHEDULER_H
#define MONATT_HYPERVISOR_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/time_types.h"
#include "sim/event_queue.h"
#include "sim/host_timers.h"

namespace monatt::hypervisor
{

/** vCPU identifier (index into the scheduler's vCPU table). */
using VCpuId = int;

/** Domain identifier (assigned by the Hypervisor facade). */
using DomainId = int;

/** Scheduling priority, best first. */
enum class Priority { Boost = 0, Under = 1, Over = 2 };

/** vCPU run state. */
enum class VCpuState { Runnable, Running, Blocked };

/** Information available to a Behavior when planning its next burst. */
struct BehaviorContext
{
    SimTime now;                //!< Current simulated time.
    SimTime nextTick;           //!< Time of the next sampling tick.
    SimTime tickPeriod;         //!< Sampling tick period.
    SimTime cumulativeRuntime;  //!< This vCPU's total CPU time so far.
    Rng *rng;                   //!< Per-scheduler deterministic RNG.
};

/** One planned burst of CPU work and what follows it. */
struct BurstPlan
{
    /** CPU time to consume (may be delivered across preemptions). */
    SimTime burst = 0;

    /**
     * After the burst: sleep this long. 0 = yield (stay runnable),
     * kTimeNever = block until an external wake (e.g. an IPI).
     */
    SimTime blockFor = 0;

    /** IPIs to send when the burst completes. */
    std::vector<VCpuId> ipiTargets;

    /** Whether a timer wake from blockFor counts as an interrupt wake
     * (eligible for BOOST). True for Xen timer/event-channel wakes. */
    bool wakeIsInterrupt = true;

    /** Optional notification fired when the burst completes. */
    std::function<void(SimTime)> onComplete;
};

/** Pluggable vCPU workload. */
class Behavior
{
  public:
    virtual ~Behavior() = default;

    /** Produce the next burst plan. Called when the vCPU has no
     * outstanding plan (after completing one, or on first dispatch). */
    virtual BurstPlan next(const BehaviorContext &ctx) = 0;
};

/** Per-vCPU statistics. */
struct VCpuStats
{
    SimTime runtime = 0;       //!< Total CPU time received.
    std::uint64_t wakes = 0;
    std::uint64_t boosts = 0;  //!< Wakes that earned BOOST priority.
    std::uint64_t preemptions = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t ticksAbsorbed = 0; //!< Sampling ticks that hit it.
};

/**
 * The credit scheduler. Its timers — the sampling tick, the accounting
 * pass, one stop per pCPU and one wake per vCPU — are host timers, so
 * host code here must never schedule on the global queue.
 */
class CreditScheduler : private sim::HostTimers
{
  public:
    /** Tunables (defaults follow Xen's credit scheduler). */
    struct Params
    {
        SimTime tickPeriod = msec(10);     //!< Debit sampling period.
        SimTime accountPeriod = msec(30);  //!< Credit refill period.
        SimTime slice = msec(30);          //!< Max uninterrupted slice.
        int creditPool = 300;              //!< Credits per pCPU/period.
        int tickDebit = 100;               //!< Debit per sampled tick.
        int creditCap = 300;               //!< Per-vCPU credit ceiling.
        int creditFloor = -300;            //!< Per-vCPU credit floor.
        bool boostEnabled = true;          //!< BOOST on interrupt wake.

        /**
         * Defense knob: charge credits for the exact CPU time consumed
         * instead of sampling whoever runs at tick instants. Closes
         * the tick-dodging loophole the availability attack exploits
         * (the fix that eventually became Xen's precise accounting).
         */
        bool exactAccounting = false;
    };

    /** Hook reporting each completed run interval of a vCPU. */
    using RunHook =
        std::function<void(VCpuId, DomainId, SimTime start, SimTime end)>;

    CreditScheduler(sim::EventQueue &eq, Params params,
                    std::uint64_t rngSeed = 0xc10d);

    /** Add a physical CPU; returns its index. */
    int addPCpu();

    /**
     * Add a vCPU pinned to `pcpu` with scheduling `weight`.
     * The vCPU starts Blocked with no wake pending (idle) until
     * start() or wake().
     */
    VCpuId addVCpu(DomainId domain, int pcpu, int weight = 256);

    /** Install the workload for a vCPU, dropping any previous one
     * (its outstanding plan is discarded unfired). */
    void setBehavior(VCpuId vcpu, std::unique_ptr<Behavior> behavior);

    /**
     * Begin scheduling: arms tick/accounting timers and wakes every
     * vCPU that has a behavior installed.
     */
    void start();

    /** Wake a vCPU; `interrupt` wakes are BOOST-eligible. */
    void wake(VCpuId vcpu, bool interrupt);

    /** Send an IPI from one vCPU to another (interrupt wake). */
    void sendIpi(VCpuId from, VCpuId to);

    /** Block a vCPU permanently (e.g. domain shutdown): drop its
     * workload and free its pCPU. */
    void retire(VCpuId vcpu);

    /** Force-block a vCPU, keeping its workload (domain pause). */
    void suspend(VCpuId vcpu);

    /** Undo suspend(); the vCPU wakes immediately. */
    void resume(VCpuId vcpu);

    /** Per-vCPU statistics. */
    const VCpuStats &stats(VCpuId vcpu) const;

    /** Owning domain of a vCPU. */
    DomainId domainOf(VCpuId vcpu) const;

    /** Current credits (for tests/diagnostics). */
    int credits(VCpuId vcpu) const;

    /** Run state. */
    VCpuState state(VCpuId vcpu) const;

    /** Install the run-interval hook (VMM Profile Tool). */
    void setRunHook(RunHook hook) { runHook = std::move(hook); }

    /** Time of the next sampling tick. */
    SimTime nextTickTime() const { return nextTick; }

    /** Total busy time of a pCPU. */
    SimTime pcpuBusyTime(int pcpu) const;

    sim::EventQueue &eventQueue() { return events; }

    const Params &params() const { return cfg; }

  private:
    /** Fields a dispatch, stop or wake touches come first. */
    struct VCpu
    {
        VCpuState state = VCpuState::Blocked;
        int pcpu = 0;
        DomainId domain = -1;
        int credits = 0;
        bool boosted = false;
        bool havePlan = false;
        bool suspended = false;
        bool wakeIsInterrupt = true; //!< Kind of the armed wake timer.
        bool ranSinceAccounting = false;
        SimTime runStart = 0;
        SimTime remainingBurst = 0;
        SimTime runtimeSinceAccounting = 0;
        std::unique_ptr<Behavior> behavior;
        BurstPlan plan;
        VCpuStats counters;
        int weight = 256;
    };

    struct PCpu
    {
        VCpuId current = -1;
        /** Runnable vCPUs pinned here, in arrival order: a handful at
         * most, so a vector beats a deque on every push and pick. */
        std::vector<VCpuId> runqueue;
        SimTime sliceEnd = 0;
        SimTime busyTime = 0;
    };

    // Host timer ids: the tick, the accounting pass, then the stop
    // timer of pCPU p at 2 + 2p and the wake timer of vCPU v at 3 + 2v.
    static constexpr TimerId kTickTimer = 0;
    static constexpr TimerId kAccountTimer = 1;
    static TimerId stopTimer(int pcpu) { return 2 + 2 * pcpu; }
    static TimerId wakeTimer(VCpuId vcpu) { return 3 + 2 * vcpu; }

    void onTimer(TimerId id) override;
    /** Cancel the vCPU's timers, deschedule it without re-enqueueing
     * and discard its behaviour and plan without firing the plan. */
    void dropWorkload(VCpuId id);
    void enqueue(VCpuId id);
    void dispatch(int pcpu);
    /** Run `id`, just taken off idle `pcpu`'s runqueue, or consume its
     * zero-length plan and leave the pCPU idle. */
    void runOn(int pcpu, VCpuId id);
    void armStop(int pcpu);
    void accountSegment(int pcpu);
    /** Mark the vCPU's plan finished and run its completion callback.
     * The plan's IPI targets are taken off the vCPU first and returned:
     * the callback and the IPIs may re-enter the scheduler and plan
     * the vCPU afresh. */
    std::vector<VCpuId> finishPlan(VCpuId id);
    void executePlanEnd(VCpuId id);
    void onStopEvent(int pcpu);
    void preemptCurrent(int pcpu);
    void obtainPlan(VCpuId id);
    void tick();
    void accounting();
    Priority effPrio(const VCpu &v) const;
    VCpuId pickNext(PCpu &p);

    sim::EventQueue &events;
    Params cfg;
    Rng rng;
    std::vector<VCpu> vcpus;
    std::vector<PCpu> pcpus;
    RunHook runHook;
    SimTime nextTick = 0;
    bool started = false;
};

} // namespace monatt::hypervisor

#endif // MONATT_HYPERVISOR_SCHEDULER_H
