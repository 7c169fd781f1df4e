#include "hypervisor/scheduler.h"

#include <algorithm>
#include <stdexcept>

namespace monatt::hypervisor
{

CreditScheduler::CreditScheduler(sim::EventQueue &eq, Params params,
                                 std::uint64_t rngSeed)
    : sim::HostTimers(eq), events(eq), cfg(params), rng(rngSeed)
{
}

int
CreditScheduler::addPCpu()
{
    pcpus.emplace_back();
    return static_cast<int>(pcpus.size()) - 1;
}

VCpuId
CreditScheduler::addVCpu(DomainId domain, int pcpu, int weight)
{
    if (pcpu < 0 || pcpu >= static_cast<int>(pcpus.size()))
        throw std::out_of_range("addVCpu: bad pCPU index");
    VCpu v;
    v.domain = domain;
    v.pcpu = pcpu;
    v.weight = weight;
    v.credits = cfg.creditCap / 2;
    vcpus.push_back(std::move(v));
    return static_cast<VCpuId>(vcpus.size()) - 1;
}

void
CreditScheduler::setBehavior(VCpuId vcpu, std::unique_ptr<Behavior> b)
{
    dropWorkload(vcpu);
    vcpus[vcpu].behavior = std::move(b);
    if (started)
        wake(vcpu, /*interrupt=*/false);
}

void
CreditScheduler::dropWorkload(VCpuId id)
{
    VCpu &v = vcpus.at(id);
    disarm(wakeTimer(id));
    PCpu &p = pcpus[v.pcpu];
    const bool wasRunning = p.current == id;
    if (wasRunning) {
        disarm(stopTimer(v.pcpu));
        accountSegment(v.pcpu);
        p.current = -1;
    } else {
        std::erase(p.runqueue, id);
    }
    v.state = VCpuState::Blocked;
    v.boosted = false;
    v.behavior.reset();
    v.havePlan = false;
    v.plan = BurstPlan{};
    v.remainingBurst = 0;
    if (wasRunning)
        dispatch(v.pcpu);
}

void
CreditScheduler::start()
{
    if (started)
        return;
    started = true;

    nextTick = events.now() + cfg.tickPeriod;
    arm(kTickTimer, nextTick);
    arm(kAccountTimer, events.now() + cfg.accountPeriod);

    for (VCpuId id = 0; id < static_cast<VCpuId>(vcpus.size()); ++id) {
        if (vcpus[id].behavior)
            wake(id, /*interrupt=*/false);
    }
}

void
CreditScheduler::onTimer(TimerId id)
{
    if (id == kTickTimer)
        tick();
    else if (id == kAccountTimer)
        accounting();
    else if (id % 2 == 0)
        onStopEvent(static_cast<int>(id - 2) / 2);
    else {
        const VCpuId vcpu = static_cast<VCpuId>(id - 3) / 2;
        wake(vcpu, vcpus[vcpu].wakeIsInterrupt);
    }
}

Priority
CreditScheduler::effPrio(const VCpu &v) const
{
    if (v.boosted && v.credits > 0)
        return Priority::Boost;
    return v.credits > 0 ? Priority::Under : Priority::Over;
}

void
CreditScheduler::enqueue(VCpuId id)
{
    VCpu &v = vcpus[id];
    if (v.suspended) {
        v.state = VCpuState::Blocked;
        return;
    }
    v.state = VCpuState::Runnable;
    pcpus[v.pcpu].runqueue.push_back(id);
}

VCpuId
CreditScheduler::pickNext(PCpu &p)
{
    if (p.runqueue.empty())
        return -1;
    auto best = p.runqueue.begin();
    for (auto it = std::next(best); it != p.runqueue.end(); ++it) {
        if (effPrio(vcpus[*it]) < effPrio(vcpus[*best]))
            best = it; // Strictly better priority; FIFO within class.
    }
    const VCpuId id = *best;
    p.runqueue.erase(best);
    return id;
}

void
CreditScheduler::obtainPlan(VCpuId id)
{
    VCpu &v = vcpus[id];
    BehaviorContext ctx;
    ctx.now = events.now();
    ctx.nextTick = nextTick;
    ctx.tickPeriod = cfg.tickPeriod;
    ctx.cumulativeRuntime = v.counters.runtime;
    ctx.rng = &rng;
    v.plan = v.behavior->next(ctx);
    if (v.plan.burst < 0)
        v.plan.burst = 0;
    // A plan that neither runs nor blocks would spin the scheduler;
    // force a minimal burst instead.
    if (v.plan.burst == 0 && v.plan.blockFor == 0)
        v.plan.burst = usec(100);
    v.remainingBurst = v.plan.burst;
    v.havePlan = true;
}

void
CreditScheduler::dispatch(int pcpu)
{
    PCpu &p = pcpus[pcpu];
    while (p.current == -1) {
        const VCpuId id = pickNext(p);
        if (id == -1)
            return; // pCPU idles; a wake re-dispatches.
        VCpu &v = vcpus[id];
        if (!v.behavior) {
            v.state = VCpuState::Blocked;
            continue;
        }
        if (!v.havePlan) {
            obtainPlan(id);
            if (v.remainingBurst <= 0) {
                // Zero-length burst: the plan only blocks / signals;
                // execute its follow-up without occupying the CPU.
                // (obtainPlan guarantees blockFor != 0 here.)
                executePlanEnd(id);
                continue;
            }
        }
        p.current = id;
        v.state = VCpuState::Running;
        v.runStart = events.now();
        p.sliceEnd = events.now() + cfg.slice;
        ++v.counters.dispatches;
        armStop(pcpu);
        return;
    }
}

void
CreditScheduler::armStop(int pcpu)
{
    PCpu &p = pcpus[pcpu];
    const VCpu &v = vcpus[p.current];
    arm(stopTimer(pcpu),
        std::min(p.sliceEnd, events.now() + v.remainingBurst));
}

void
CreditScheduler::accountSegment(int pcpu)
{
    PCpu &p = pcpus[pcpu];
    VCpu &v = vcpus[p.current];
    const SimTime now = events.now();
    const SimTime ran = now - v.runStart;
    if (ran > 0) {
        v.counters.runtime += ran;
        v.remainingBurst -= ran;
        v.ranSinceAccounting = true;
        v.runtimeSinceAccounting += ran;
        p.busyTime += ran;
        if (runHook)
            runHook(p.current, v.domain, v.runStart, now);
    }
    v.runStart = now;
}

void
CreditScheduler::executePlanEnd(VCpuId id)
{
    VCpu &v = vcpus[id];
    v.havePlan = false;
    const BurstPlan plan = std::move(v.plan);
    v.plan = BurstPlan{};

    if (plan.onComplete)
        plan.onComplete(events.now());

    v.state = VCpuState::Blocked;
    if (plan.blockFor != kTimeNever) {
        v.wakeIsInterrupt = plan.wakeIsInterrupt;
        arm(wakeTimer(id), events.now() + plan.blockFor);
    }
    for (VCpuId target : plan.ipiTargets)
        sendIpi(id, target);
}

void
CreditScheduler::onStopEvent(int pcpu)
{
    PCpu &p = pcpus[pcpu];
    const VCpuId id = p.current;
    if (id == -1)
        return;
    VCpu &v = vcpus[id];
    accountSegment(pcpu);
    const SimTime now = events.now();

    if (v.remainingBurst > 0) {
        // Slice expired mid-burst: rotate to the runqueue tail. BOOST
        // is spent once the vCPU has run.
        v.boosted = false;
        ++v.counters.preemptions;
        p.current = -1;
        enqueue(id);
        dispatch(pcpu);
        return;
    }

    // Burst complete.
    if (v.plan.blockFor == 0) {
        // The workload stays runnable: like a real CPU-bound task it
        // keeps the pCPU until its slice expires. Send the plan's
        // IPIs first — a boosted wakee may preempt us.
        v.havePlan = false;
        const BurstPlan plan = std::move(v.plan);
        v.plan = BurstPlan{};
        if (plan.onComplete)
            plan.onComplete(now);
        for (VCpuId target : plan.ipiTargets)
            sendIpi(id, target);
        if (p.current != id)
            return; // An IPI wakee preempted us.
        if (now >= p.sliceEnd) {
            v.boosted = false;
            ++v.counters.preemptions;
            p.current = -1;
            enqueue(id);
            dispatch(pcpu);
            return;
        }
        obtainPlan(id);
        if (v.remainingBurst <= 0) {
            // Replacement plan immediately blocks: deschedule.
            p.current = -1;
            executePlanEnd(id);
            dispatch(pcpu);
            return;
        }
        armStop(pcpu);
        return;
    }

    // The vCPU blocks; executePlanEnd consumes the plan (completion
    // callback, wake timer, IPIs).
    v.boosted = false;
    p.current = -1;
    executePlanEnd(id);
    dispatch(pcpu);
}

void
CreditScheduler::preemptCurrent(int pcpu)
{
    PCpu &p = pcpus[pcpu];
    const VCpuId id = p.current;
    if (id == -1)
        return;
    VCpu &v = vcpus[id];
    disarm(stopTimer(pcpu));
    accountSegment(pcpu);
    v.boosted = false;
    ++v.counters.preemptions;
    p.current = -1;
    enqueue(id);
    dispatch(pcpu);
}

void
CreditScheduler::wake(VCpuId id, bool interrupt)
{
    VCpu &v = vcpus.at(id);
    if (!v.behavior || v.suspended)
        return;
    if (v.state != VCpuState::Blocked) {
        // Already runnable/running: the event is latched — a pending
        // interrupt still boosts a queued vCPU with credits, as Xen
        // processes pending event channels when the vCPU next runs.
        if (v.state == VCpuState::Runnable && interrupt &&
            cfg.boostEnabled && v.credits > 0 && !v.boosted) {
            v.boosted = true;
            ++v.counters.boosts;
        }
        return;
    }

    disarm(wakeTimer(id));

    ++v.counters.wakes;
    v.boosted = cfg.boostEnabled && interrupt && v.credits > 0;
    if (v.boosted)
        ++v.counters.boosts;
    enqueue(id);

    PCpu &p = pcpus[v.pcpu];
    if (p.current == -1) {
        dispatch(v.pcpu);
    } else if (effPrio(v) < effPrio(vcpus[p.current])) {
        // Higher-priority wake preempts the running vCPU now.
        preemptCurrent(v.pcpu);
    }
}

void
CreditScheduler::sendIpi(VCpuId from, VCpuId to)
{
    (void)from;
    wake(to, /*interrupt=*/true);
}

void
CreditScheduler::retire(VCpuId id)
{
    dropWorkload(id);
}

void
CreditScheduler::suspend(VCpuId id)
{
    VCpu &v = vcpus.at(id);
    if (v.suspended)
        return;
    v.suspended = true;
    disarm(wakeTimer(id));
    PCpu &p = pcpus[v.pcpu];
    if (p.current == id) {
        // Deschedule; enqueue() diverts a suspended vCPU to Blocked.
        preemptCurrent(v.pcpu);
    } else {
        auto it = std::find(p.runqueue.begin(), p.runqueue.end(), id);
        if (it != p.runqueue.end())
            p.runqueue.erase(it);
        v.state = VCpuState::Blocked;
    }
}

void
CreditScheduler::resume(VCpuId id)
{
    VCpu &v = vcpus.at(id);
    if (!v.suspended)
        return;
    v.suspended = false;
    if (v.state == VCpuState::Blocked)
        wake(id, /*interrupt=*/false);
}

void
CreditScheduler::tick()
{
    // Sampled debiting: only the vCPU running at this instant pays.
    // This is the exploitable property: an attacker sleeping across
    // tick boundaries is never sampled. With exactAccounting the
    // debit happens in accounting() proportional to time consumed.
    if (cfg.exactAccounting) {
        nextTick = events.now() + cfg.tickPeriod;
        arm(kTickTimer, nextTick);
        return;
    }
    for (auto &p : pcpus) {
        if (p.current == -1)
            continue;
        VCpu &v = vcpus[p.current];
        v.credits = std::max(v.credits - cfg.tickDebit, cfg.creditFloor);
        ++v.counters.ticksAbsorbed;
        if (v.credits <= 0)
            v.boosted = false;
    }
    nextTick = events.now() + cfg.tickPeriod;
    arm(kTickTimer, nextTick);
}

void
CreditScheduler::accounting()
{
    // Distribute the credit pool among active vCPUs by weight. An
    // "active" vCPU is one that can still run: not blocked forever.
    // A vCPU is active when it can still run or has consumed CPU in
    // the closing period — Xen's active/inactive marking, which is
    // what lets an attacker that naps across ticks keep earning.
    const auto isActive = [this](VCpuId id) {
        const VCpu &v = vcpus[id];
        return v.behavior &&
               (v.state != VCpuState::Blocked || armed(wakeTimer(id)) ||
                v.ranSinceAccounting);
    };

    if (cfg.exactAccounting) {
        // Debit exactly what was consumed: creditPool credits buy one
        // pCPU-period of CPU time. Account the still-running tail too
        // (runHook sees a segment boundary here, which the profiler's
        // contiguous-interval merging absorbs).
        for (int pc = 0; pc < static_cast<int>(pcpus.size()); ++pc) {
            if (pcpus[pc].current != -1)
                accountSegment(pc);
        }
        for (VCpu &v : vcpus) {
            const std::int64_t debit =
                static_cast<std::int64_t>(cfg.creditPool) *
                v.runtimeSinceAccounting / cfg.accountPeriod;
            v.credits = std::max<int>(
                v.credits - static_cast<int>(debit), cfg.creditFloor);
            if (v.credits <= 0)
                v.boosted = false;
            v.runtimeSinceAccounting = 0;
        }
    }

    const VCpuId count = static_cast<VCpuId>(vcpus.size());
    std::int64_t totalWeight = 0;
    for (VCpuId id = 0; id < count; ++id) {
        if (isActive(id))
            totalWeight += vcpus[id].weight;
    }

    if (totalWeight > 0) {
        const std::int64_t pool =
            static_cast<std::int64_t>(cfg.creditPool) *
            static_cast<std::int64_t>(pcpus.size());
        for (VCpuId id = 0; id < count; ++id) {
            if (!isActive(id))
                continue;
            VCpu &v = vcpus[id];
            const int share =
                static_cast<int>(pool * v.weight / totalWeight);
            v.credits = std::min(v.credits + share, cfg.creditCap);
        }
    }
    for (VCpu &v : vcpus)
        v.ranSinceAccounting = false;
    arm(kAccountTimer, events.now() + cfg.accountPeriod);
}

const VCpuStats &
CreditScheduler::stats(VCpuId vcpu) const
{
    return vcpus.at(vcpu).counters;
}

DomainId
CreditScheduler::domainOf(VCpuId vcpu) const
{
    return vcpus.at(vcpu).domain;
}

int
CreditScheduler::credits(VCpuId vcpu) const
{
    return vcpus.at(vcpu).credits;
}

VCpuState
CreditScheduler::state(VCpuId vcpu) const
{
    return vcpus.at(vcpu).state;
}

SimTime
CreditScheduler::pcpuBusyTime(int pcpu) const
{
    const PCpu &p = pcpus.at(pcpu);
    SimTime busy = p.busyTime;
    if (p.current != -1)
        busy += events.now() - vcpus[p.current].runStart;
    return busy;
}

} // namespace monatt::hypervisor
