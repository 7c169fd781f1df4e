/**
 * @file
 * Workload definitions and the closed loop of the fleet
 * benchmark.
 *
 * Every workload drives a real core::Cloud through its public
 * Cloud/Customer API: C simulated callers, each issuing its next
 * request only once the previous one settled and a seeded simulated
 * think time passed. A request settles when
 * the customer sees a terminal outcome, or fails when the simulation's
 * next event lies past the request's simulated deadline. Hypervisor
 * ticks keep the event queue non-empty forever, so the deadline is
 * what keeps an unanswered request from stalling its caller.
 */

#ifndef MONATT_PERFBENCH_FLEET_H
#define MONATT_PERFBENCH_FLEET_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cloud.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

class HostClock;
class Tracer;

/** One benchmark workload: a fleet shape plus its request mix. */
struct Workload
{
    const char *name = "";
    int servers = 0;
    int vmsPerServer = 0; //!< Fleet launched during set-up.
    int callers = 0;      //!< Closed-loop concurrency C.
    int controllerShards = 1;
    int controllerReplicas = 1;
    std::uint64_t aikReuseLimit = 16;
    /** All properties on every request, else a seeded subset per
     * request that holds a runtime-window property. */
    bool allProperties = true;
    /** Attestations whose outcomes are exact per seed (digest and the
     * simulated latencies); the timed phase never stops before they
     * settle. */
    std::size_t prefix = 0;
};

/** The workload named `name`; nullptr when unknown. */
const Workload *findWorkload(const std::string &name);

/** Terminal state of one closed-loop request. */
enum class Settle
{
    Pending,
    Ok,
    Failed,
};

/** One request of a closed-loop phase, in issue order. */
struct RequestRecord
{
    monatt::SimTime simLatency = 0;
    double issuedAt = 0;  //!< Raw HostClock reading at issue.
    double settledAt = 0; //!< Raw HostClock reading at settle.
    Settle settle = Settle::Pending;
};

/** What a closed-loop phase produced. */
struct PhaseResult
{
    std::vector<RequestRecord> requests;
    double startedAt = 0; //!< Raw HostClock readings.
    double endedAt = 0;
    /** SHA-256 over the outputs of the first `digestLimit` requests,
     * in issue order. */
    monatt::Bytes digest;
    /** Settles counted where they happen: ok and failed outcomes the
     * customer reported, and requests that passed their deadline. */
    std::size_t ok = 0;
    std::size_t refused = 0;
    std::size_t expired = 0;
    /** Bookkeeping that did not add up; empty when it did. */
    std::vector<std::string> errors;

    std::size_t failedCount() const { return refused + expired; }
};

/** Stop rules for one closed-loop phase. */
struct LoopLimits
{
    int callers = 1;
    std::size_t maxRequests = std::numeric_limits<std::size_t>::max();
    /** Stop issuing once this many raw HostClock seconds passed... */
    double wallBudgetSeconds = std::numeric_limits<double>::infinity();
    /** ...and the first `prefix` requests settled. */
    std::size_t prefix = 0;
    /** Outputs of the first `digestLimit` requests enter the digest. */
    std::size_t digestLimit = 0;
    /** Called once, when the first `prefix` requests have settled. */
    std::function<void()> onPrefixSettled;
};

/**
 * A request type the closed loop can drive. `issue` sends request
 * number `n` for caller number `caller` through the Customer API,
 * `poll` reads its outcome, and `output` gives the bytes the digest
 * folds in for a settled request.
 */
class RequestKind
{
  public:
    virtual ~RequestKind() = default;
    virtual std::uint64_t issue(std::size_t n, std::size_t caller) = 0;
    virtual Settle poll(std::uint64_t id) const = 0;
    virtual monatt::Bytes output(std::uint64_t id) const = 0;
    /** Cheap gate: false when no request can have settled since the
     * previous call. */
    virtual bool mightHaveSettled() = 0;
    /** Requests the customer itself counts as settled, from its own
     * state; the loop checks its settles against the change in it. */
    virtual std::uint64_t customerSettled() const = 0;
};

/** A launch plan entry: which catalog image and flavor to lease. */
struct LaunchSpec
{
    std::string name;
    std::string image;
    std::string flavor;
};

/** A deployment plus its single customer. */
class Fleet
{
  public:
    /** `clock` times every phase and must outlive the fleet. */
    Fleet(const Workload &workload, std::uint64_t seed, HostClock &clock);

    monatt::core::Cloud &cloud() { return *cloud_; }
    monatt::core::Customer &customer() { return *customer_; }

    /** Launch `plan` through a closed loop; ok VMs join vids(). */
    PhaseResult launch(const std::vector<LaunchSpec> &plan, int callers);

    /**
     * Closed-loop attestations over vids(). `rng` picks the VM and,
     * for subset workloads, the properties of every request.
     */
    PhaseResult attest(const LoopLimits &limits, monatt::Rng &rng,
                       Tracer *tracer = nullptr);

    const std::vector<std::string> &vids() const { return vids_; }

  private:
    const Workload &workload_;
    HostClock &clock_;
    monatt::Rng thinkRng_; //!< Callers' think times, every phase.
    std::unique_ptr<monatt::core::Cloud> cloud_;
    monatt::core::Customer *customer_ = nullptr;
    std::vector<std::string> vids_;
    /** Attestations that passed their deadline and that the customer
     * has not settled yet; a later phase may see them settle. */
    std::vector<std::uint64_t> expiredAttests_;
};

/** A seeded image × flavor mix of `count` launches. */
std::vector<LaunchSpec> launchPlan(std::size_t count, monatt::Rng &rng);

/**
 * Drive `kind` through a closed loop until `limits` say stop, timing it
 * on `clock` and letting it probe between events; `thinkRng` draws the
 * callers' think times. `expired` holds requests
 * of `kind` that passed their deadline in earlier phases and that the
 * customer had not settled; on return it holds those of this phase and
 * earlier ones that are still unsettled.
 */
PhaseResult runClosedLoop(monatt::core::Cloud &cloud, RequestKind &kind,
                          const LoopLimits &limits, monatt::Rng &thinkRng,
                          HostClock &clock, Tracer *tracer,
                          std::vector<std::uint64_t> &expired);

} // namespace perfbench

#endif // MONATT_PERFBENCH_FLEET_H
