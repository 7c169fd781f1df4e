#include "fleet.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/sha256.h"
#include "hypervisor/scheduler.h"
#include "server/catalog.h"
#include "hostclock.h"
#include "tracer.h"

using namespace monatt;

namespace perfbench
{

/** Every workload, in BENCHMARK.json order. */
static const std::vector<Workload> &
allWorkloads()
{
    // Why each workload exists is recorded in BENCHMARK.json.
    static const std::vector<Workload> workloads = {
        {.name = "attest_fresh_aik",
         .servers = 16,
         .vmsPerServer = 2,
         .callers = 16,
         .aikReuseLimit = 1,
         .allProperties = true,
         .prefix = 1000},
        {.name = "attest_cached",
         .servers = 32,
         .vmsPerServer = 4,
         .callers = 16,
         .controllerShards = 2,
         .controllerReplicas = 3,
         .allProperties = false,
         .prefix = 2000},
    };
    return workloads;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : allWorkloads()) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

namespace
{

/** Launches from a plan, one catalog VM per request. */
class Launches final : public RequestKind
{
  public:
    Launches(core::Cloud &cloud, core::Customer &customer,
             const std::vector<LaunchSpec> &plan)
        : cloud(cloud), customer(customer), plan(plan)
    {
    }

    std::uint64_t
    issue(std::size_t n, std::size_t) override
    {
        const LaunchSpec &spec = plan.at(n);
        const server::VmImage &img = server::image(spec.image);
        ids.resize(std::max(ids.size(), n + 1));
        ids[n] = customer.requestLaunch(spec.name, spec.image, spec.flavor,
                                        proto::allProperties(),
                                        img.content, img.sizeMb);
        return ids[n];
    }

    /** VM id assigned to launch number `n` (it must have succeeded). */
    const std::string &
    vidOf(std::size_t n) const
    {
        return customer.launchOutcome(ids.at(n))->vid;
    }

    Settle
    poll(std::uint64_t id) const override
    {
        const core::LaunchOutcome *o = customer.launchOutcome(id);
        if (o == nullptr || !o->done)
            return Settle::Pending;
        return o->ok ? Settle::Ok : Settle::Failed;
    }

    Bytes
    output(std::uint64_t id) const override
    {
        const core::LaunchOutcome *o = customer.launchOutcome(id);
        const server::CloudServer *host = cloud.serverHosting(o->vid);
        return toBytes(o->vid + "@" + (host ? host->id() : "none"));
    }

    bool
    mightHaveSettled() override
    {
        // A launch settles only when a LaunchResponse is delivered.
        const std::uint64_t delivered = cloud.network().stats().delivered;
        const bool changed = delivered != lastDelivered;
        lastDelivered = delivered;
        return changed;
    }

    std::uint64_t
    customerSettled() const override
    {
        return static_cast<std::uint64_t>(
            std::count_if(ids.begin(), ids.end(), [this](std::uint64_t id) {
                const core::LaunchOutcome *o = customer.launchOutcome(id);
                return o != nullptr && o->done;
            }));
    }

  private:
    core::Cloud &cloud;
    core::Customer &customer;
    const std::vector<LaunchSpec> &plan;
    std::vector<std::uint64_t> ids; //!< Customer request id per launch.
    std::uint64_t lastDelivered = 0;
};

/**
 * Runtime attestations of seeded VMs and property sets. Caller c only
 * attests VMs c, c + C, c + 2C, ...: the servers' runtime monitors keep
 * one measurement window per VM, and two overlapping requests for one
 * VM cut each other's window short.
 */
class Attestations final : public RequestKind
{
  public:
    Attestations(core::Customer &customer,
                 const std::vector<std::string> &vids, std::size_t callers,
                 bool allProperties, Rng &rng)
        : customer(customer), vids(vids), callers(callers),
          allProperties(allProperties), rng(rng)
    {
    }

    std::uint64_t
    issue(std::size_t, std::size_t caller) override
    {
        const std::size_t owned = (vids.size() - caller + callers - 1) /
                                  callers;
        const std::string &vid =
            vids.at(caller + callers * rng.nextBounded(owned));
        return customer.runtimeAttestCurrent(vid, properties());
    }

    Settle
    poll(std::uint64_t id) const override
    {
        switch (customer.outcomeFor(id).state) {
          case core::AttestationOutcome::Pending:
            return Settle::Pending;
          case core::AttestationOutcome::Verified: {
            const core::VerifiedReport *r = report(id);
            return r != nullptr && r->report.allHealthy() ? Settle::Ok
                                                          : Settle::Failed;
          }
          default:
            return Settle::Failed;
        }
    }

    Bytes
    output(std::uint64_t id) const override
    {
        const core::VerifiedReport *r = report(id);
        return r != nullptr ? r->report.encode() : Bytes{};
    }

    bool
    mightHaveSettled() override
    {
        const std::uint64_t terminal = customerSettled();
        const bool changed = terminal != lastTerminal;
        lastTerminal = terminal;
        return changed;
    }

    /** Each terminal request bumps exactly one of these counters. */
    std::uint64_t
    customerSettled() const override
    {
        const core::CustomerStats &s = customer.stats();
        return s.reportsVerified + s.requestsFailed + s.requestsUnreachable;
    }

  private:
    std::vector<proto::SecurityProperty>
    properties()
    {
        const auto &all = proto::allProperties();
        if (allProperties)
            return all;
        // A seeded subset holding at least one property measured over a
        // runtime window. Mixing window-free requests (~0.5 s simulated
        // round trip) with windowed ones (~2.5 s) drives the adaptive
        // forward RTO below the windowed round trip, and the controller
        // then reports clean-wire requests as unreachable.
        static const proto::SecurityProperty kWindowed[] = {
            proto::SecurityProperty::CovertChannelFreedom,
            proto::SecurityProperty::CpuAvailability};
        const proto::SecurityProperty anchor = kWindowed[rng.nextBounded(2)];
        const std::uint64_t mask =
            rng.nextBounded(std::uint64_t{1} << all.size());
        std::vector<proto::SecurityProperty> subset;
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (((mask >> i) & 1) != 0 || all[i] == anchor)
                subset.push_back(all[i]);
        }
        return subset;
    }

    /** The verified report of a request. Settles are detected right
     * after the event that delivered them, so the report sits near the
     * back of the customer's arrival-ordered list. */
    const core::VerifiedReport *
    report(std::uint64_t id) const
    {
        const auto &reports = customer.reports();
        for (auto it = reports.rbegin(); it != reports.rend(); ++it) {
            if (it->requestId == id)
                return &*it;
        }
        return nullptr;
    }

    core::Customer &customer;
    const std::vector<std::string> &vids;
    std::size_t callers;
    bool allProperties;
    Rng &rng;
    std::uint64_t lastTerminal = 0;
};

/**
 * The guest every VM runs: fixed CPU bursts between short waits. An
 * idle guest leaves the covert-channel and CPU-availability monitors
 * nothing to measure, a lone spinner is never descheduled, and a
 * Gaussian-burst service can read as a two-peak covert channel. Fixed
 * bursts shorter than a scheduler slice, woken without BOOST so they
 * never preempt a co-resident guest, give one usage-interval peak at
 * a high CPU share even when two VMs share a pCPU; both monitors judge
 * that healthy.
 */
class SteadyGuest final : public hypervisor::Behavior
{
  public:
    hypervisor::BurstPlan
    next(const hypervisor::BehaviorContext &) override
    {
        hypervisor::BurstPlan plan;
        plan.burst = msec(10);
        plan.blockFor = msec(1);
        plan.wakeIsInterrupt = false;
        return plan;
    }
};

/** A request still unsettled this long after its issue has failed; it
 * outlasts every customer resend the default retry budget allows. */
constexpr SimTime kDeadline = seconds(600);

/** Mean of the exponential simulated think time before each request. */
constexpr SimTime kThinkMean = msec(50);

/** One caller of the closed loop and its request in flight. */
struct Caller
{
    enum class State
    {
        Thinking, //!< Issues its next request at `wakeAt`.
        Busy,     //!< A request is in flight; fails at `wakeAt`.
        Done,
    };
    State state = State::Thinking;
    SimTime wakeAt = 0;
    std::size_t index = 0;
    std::uint64_t id = 0;
    SimTime issuedAt = 0;
};

} // namespace

std::vector<LaunchSpec>
launchPlan(std::size_t count, Rng &rng)
{
    // Every image x flavor pair in turn, then a seeded shuffle: the mix
    // is balanced at every seed (image size sets most of a launch's
    // simulated time, so an i.i.d. draw would swing its median), and
    // the seed decides which VM gets which pair.
    static const char *const kImages[] = {"cirros", "fedora", "ubuntu"};
    static const char *const kFlavors[] = {"small", "medium", "large"};
    std::vector<LaunchSpec> plan;
    plan.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        LaunchSpec spec;
        spec.image = kImages[i % 3];
        spec.flavor = kFlavors[(i / 3) % 3];
        plan.push_back(std::move(spec));
    }
    for (std::size_t i = count; i > 1; --i)
        std::swap(plan[i - 1], plan[rng.nextBounded(i)]);
    for (std::size_t i = 0; i < count; ++i)
        plan[i].name = "vm-" + std::to_string(i);
    return plan;
}

PhaseResult
runClosedLoop(core::Cloud &cloud, RequestKind &kind,
              const LoopLimits &limits, Rng &thinkRng, HostClock &clock,
              Tracer *tracer, std::vector<std::uint64_t> &expired)
{
    sim::EventQueue &events = cloud.events();
    PhaseResult result;
    const std::uint64_t customerSettledBefore = kind.customerSettled();
    std::vector<Bytes> outputs;
    std::vector<Caller> callers(static_cast<std::size_t>(limits.callers));
    std::size_t prefixSettled = 0;
    bool issuing = true;
    result.startedAt = clock.mark();

    auto stopIssuing = [&] {
        if (result.requests.size() >= limits.maxRequests)
            return true;
        return result.requests.size() >= limits.prefix &&
               prefixSettled == limits.prefix &&
               clock.mark() - result.startedAt >= limits.wallBudgetSeconds;
    };

    // A caller thinks for a seeded simulated time before each request,
    // so requests reach the serial stages (controller, AS, pCA) at
    // seed-dependent instants rather than in lockstep.
    auto think = [&](Caller &c) {
        c.state = Caller::State::Thinking;
        c.wakeAt = events.now() +
                   static_cast<SimTime>(thinkRng.nextExponential(
                       static_cast<double>(kThinkMean)));
    };

    auto issue = [&](Caller &c) {
        issuing = issuing && !stopIssuing();
        if (!issuing) {
            c.state = Caller::State::Done;
            return;
        }
        c.state = Caller::State::Busy;
        c.index = result.requests.size();
        result.requests.emplace_back().issuedAt = clock.mark();
        c.issuedAt = events.now();
        c.wakeAt = c.issuedAt + kDeadline;
        const Clock::time_point issuedWall = Clock::now();
        c.id = kind.issue(c.index,
                          static_cast<std::size_t>(&c - callers.data()));
        if (tracer != nullptr)
            tracer->customerWork(issuedWall, Clock::now());
    };

    auto settle = [&](Caller &c, Settle s) {
        RequestRecord &r = result.requests[c.index];
        r.settle = s;
        const bool ok = s == Settle::Ok;
        r.simLatency = events.now() - c.issuedAt;
        r.settledAt = clock.mark();
        if (c.index < limits.prefix && ++prefixSettled == limits.prefix &&
            limits.onPrefixSettled)
            limits.onPrefixSettled();
        if (c.index < limits.digestLimit) {
            if (outputs.size() <= c.index)
                outputs.resize(c.index + 1);
            outputs[c.index] = ok ? kind.output(c.id) : toBytes("failed");
        }
        think(c);
    };

    for (Caller &c : callers)
        think(c);

    for (;;) {
        SimTime wake = kTimeNever;
        for (const Caller &c : callers) {
            if (c.state != Caller::State::Done)
                wake = std::min(wake, c.wakeAt);
        }
        if (wake == kTimeNever)
            break;

        if (events.nextEventTime() > wake) {
            // Nothing happens before a caller wakes: it issues its next
            // request, or its request in flight missed the deadline and
            // counts as failed.
            events.run(wake);
            for (Caller &c : callers) {
                if (c.state == Caller::State::Done || c.wakeAt > wake)
                    continue;
                if (c.state == Caller::State::Thinking) {
                    issue(c);
                } else {
                    ++result.expired;
                    expired.push_back(c.id);
                    settle(c, Settle::Failed);
                }
            }
            continue;
        }

        clock.tick();
        if (tracer != nullptr)
            tracer->beginEvent();
        events.runOne();
        if (tracer != nullptr)
            tracer->endEvent();

        if (!kind.mightHaveSettled())
            continue;
        bool settledAny = false;
        for (Caller &c : callers) {
            if (c.state != Caller::State::Busy)
                continue;
            const Settle s = kind.poll(c.id);
            if (s == Settle::Pending)
                continue;
            settledAny = true;
            ++(s == Settle::Ok ? result.ok : result.refused);
            settle(c, s);
        }
        if (settledAny && tracer != nullptr)
            tracer->markCompleted();
    }
    result.endedAt = clock.mark();

    // Every request issued settled exactly once, and the customer saw
    // as many settle as the loop did, counting late settles of requests
    // the loop had already given up on.
    const std::size_t before = expired.size();
    expired.erase(std::remove_if(expired.begin(), expired.end(),
                                 [&kind](std::uint64_t id) {
                                     return kind.poll(id) != Settle::Pending;
                                 }),
                  expired.end());
    const std::size_t late = before - expired.size();
    if (result.ok + result.refused + result.expired !=
        result.requests.size())
        result.errors.push_back("settles do not add up to requests issued");
    if (kind.customerSettled() - customerSettledBefore !=
        result.ok + result.refused + late)
        result.errors.push_back(
            "customer settled a different number of requests than the loop");

    crypto::Sha256 digest;
    for (const Bytes &out : outputs) {
        const std::uint8_t len[4] = {
            static_cast<std::uint8_t>(out.size() >> 24),
            static_cast<std::uint8_t>(out.size() >> 16),
            static_cast<std::uint8_t>(out.size() >> 8),
            static_cast<std::uint8_t>(out.size())};
        digest.update(Bytes(len, len + 4));
        digest.update(out);
    }
    result.digest = digest.digest();
    return result;
}

Fleet::Fleet(const Workload &workload, std::uint64_t seed, HostClock &clock)
    : workload_(workload), clock_(clock), thinkRng_(seed ^ 0x7468696e6b)
{
    core::CloudConfig cfg;
    cfg.seed = seed;
    cfg.numServers = workload.servers;
    cfg.aikReuseLimit = workload.aikReuseLimit;
    cfg.controllerShards = workload.controllerShards;
    cfg.controllerReplicas = workload.controllerReplicas;
    cloud_ = std::make_unique<core::Cloud>(cfg);
    customer_ = &cloud_->addCustomer("customer-1");
}

PhaseResult
Fleet::launch(const std::vector<LaunchSpec> &plan, int callers)
{
    Launches kind(*cloud_, *customer_, plan);
    LoopLimits limits;
    limits.callers = callers;
    limits.maxRequests = plan.size();
    limits.digestLimit = plan.size();
    // One launch phase per fleet, so no earlier launch can settle late.
    std::vector<std::uint64_t> expired;
    PhaseResult result =
        runClosedLoop(*cloud_, kind, limits, thinkRng_, clock_, nullptr,
                      expired);

    // The loop settles launches in completion order; the fleet keeps
    // plan order so VM choice depends only on the seed.
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (result.requests[i].settle != Settle::Ok)
            continue;
        const std::string &vid = kind.vidOf(i);
        server::CloudServer *host = cloud_->serverHosting(vid);
        host->hypervisor().setBehavior(host->domainOf(vid), 0,
                                       std::make_unique<SteadyGuest>());
        vids_.push_back(vid);
    }
    return result;
}

PhaseResult
Fleet::attest(const LoopLimits &limits, Rng &rng, Tracer *tracer)
{
    // Every caller needs a VM of its own.
    if (vids_.size() < static_cast<std::size_t>(limits.callers))
        throw std::runtime_error("attest: fewer VMs than callers");
    Attestations kind(*customer_, vids_,
                      static_cast<std::size_t>(limits.callers),
                      workload_.allProperties, rng);
    return runClosedLoop(*cloud_, kind, limits, thinkRng_, clock_, tracer,
                         expiredAttests_);
}

} // namespace perfbench
