/**
 * @file
 * Seeded determinism: the same seeded deployment, built twice in fresh
 * Clouds, must produce byte-identical attestation reports and an
 * identical event-execution count. The scenario deliberately crosses
 * every concurrent path — VM launches with startup attestation, a
 * concurrent attestMany fan-out, and a covert-channel round whose
 * usage histograms are sensitive to any scheduling perturbation.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cloud.h"
#include "crypto/sha256.h"
#include "workloads/attacks.h"
#include "workloads/programs.h"

namespace monatt::core
{
namespace
{

/** Everything observable about one scenario run. */
struct Trace
{
    std::vector<std::string> vids;
    std::string reportDigest; //!< SHA-256 over all verified reports.
    std::size_t reportCount = 0;
    std::size_t eventsExecuted = 0;
    SimTime endTime = 0;
};

void
absorbTime(crypto::Sha256 &digest, SimTime t)
{
    Bytes b;
    for (int i = 0; i < 8; ++i)
        b.push_back(static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(t) >> (8 * i)));
    digest.update(b);
}

Trace
runScenario()
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.seed = 424242;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    Trace trace;
    for (int i = 0; i < 3; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        EXPECT_TRUE(vid.isOk()) << vid.errorMessage();
        if (vid.isOk())
            trace.vids.push_back(vid.take());
    }

    // Concurrent fan-out: AIK prep, pCA certification, quote signing,
    // verification and relays of many requests interleave.
    for (auto &r :
         cloud.attestMany(customer, trace.vids, proto::allProperties()))
        EXPECT_TRUE(r.isOk()) << r.errorMessage();

    // Covert-channel round: a co-resident sender next to the first
    // VM; its interval structure must be bit-identical too.
    server::CloudServer *host = cloud.serverHosting(trace.vids[0]);
    EXPECT_NE(host, nullptr);
    if (host != nullptr) {
        auto &hv = host->hypervisor();
        hv.setBehavior(host->domainOf(trace.vids[0]), 0,
                       std::make_unique<workloads::SpinnerProgram>());
        const auto senderDomain = hv.createDomain(
            "covert-sender", 2, /*pcpu=*/0, toBytes("attacker-image"),
            1024);
        auto message = std::make_shared<workloads::CovertMessage>();
        Rng bitRng(7);
        for (int i = 0; i < 512; ++i)
            message->bits.push_back(bitRng.nextBool());
        workloads::installCovertSender(
            hv, senderDomain, message,
            workloads::CovertChannelParams::detectPreset());
    }
    cloud.runFor(seconds(2));
    for (auto &r :
         cloud.attestMany(customer, trace.vids, proto::allProperties()))
        EXPECT_TRUE(r.isOk()) << r.errorMessage();

    crypto::Sha256 digest;
    for (const VerifiedReport &r : customer.reports()) {
        digest.update(r.report.encode());
        absorbTime(digest, r.receivedAt);
    }
    trace.reportDigest = toHex(digest.digest());
    trace.reportCount = customer.reports().size();
    trace.eventsExecuted = cloud.events().executed();
    trace.endTime = cloud.events().now();
    return trace;
}

TEST(DeterminismTest, SameSeedRunsAreBitIdentical)
{
    const Trace run = runScenario();
    const Trace rerun = runScenario();

    EXPECT_EQ(run.vids, rerun.vids);
    ASSERT_GT(run.reportCount, 0u);
    EXPECT_EQ(run.reportCount, rerun.reportCount);
    EXPECT_EQ(run.reportDigest, rerun.reportDigest)
        << "verified attestation reports must be byte-identical "
           "across same-seed runs";
    EXPECT_EQ(run.eventsExecuted, rerun.eventsExecuted)
        << "a same-seed run must execute exactly the same events";
    EXPECT_EQ(run.endTime, rerun.endTime);
}

// --- Chaos determinism -------------------------------------------------
//
// The reliability layer under an active fault plan must stay as
// deterministic as the fault-free path: retry timers, failover and
// dedup decisions all key off simulated time and seeded randomness, so
// the exact same verdicts — down to report bytes and event counts —
// must come out of every same-seed run.

struct ChaosTrace
{
    std::string digest; //!< Over every request's terminal outcome.
    std::size_t okCount = 0;
    std::size_t settled = 0;
    std::size_t duplicateReports = 0;
    std::size_t eventsExecuted = 0;
    SimTime endTime = 0;
};

ChaosTrace
runChaosScenario(double drop, bool crash, bool installPlan = true)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.numAttestationServers = 2;
    cfg.seed = 31337;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    // Provision fault-free, then switch the faults on.
    std::vector<std::string> vids;
    for (int i = 0; i < 5; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        EXPECT_TRUE(vid.isOk()) << vid.errorMessage();
        if (vid.isOk())
            vids.push_back(vid.take());
    }

    if (installPlan) {
        sim::FaultPlanConfig plan;
        plan.seed = 0xC0FFEE;
        plan.faults.dropProbability = drop;
        plan.activeFrom = cloud.events().now();
        if (crash) {
            // Take the primary Attestation Server down mid-protocol
            // and bring it back much later: forces controller failover
            // to the second cluster.
            plan.crashes.push_back(sim::CrashEvent{
                "attestation-server", cloud.events().now() + msec(800),
                cloud.events().now() + seconds(12)});
        }
        cloud.installFaultPlan(plan);
    }

    std::vector<std::string> many;
    for (int i = 0; i < 50; ++i)
        many.push_back(vids[static_cast<std::size_t>(i) % vids.size()]);
    auto results = cloud.attestMany(customer, many,
                                    proto::allProperties(), seconds(600));

    ChaosTrace trace;
    crypto::Sha256 digest;
    for (auto &r : results) {
        if (r.isOk()) {
            ++trace.okCount;
            ++trace.settled;
            digest.update(r.value().report.encode());
            absorbTime(digest, r.value().receivedAt);
        } else {
            trace.settled += r.errorMessage() != "attestation timed out";
            digest.update(toBytes(r.errorMessage()));
        }
    }
    trace.digest = toHex(digest.digest());

    // No request may ever yield two verified reports (retransmission
    // dedup at every hop prevents double-executed quotes).
    std::map<std::uint64_t, std::size_t> perRequest;
    for (const VerifiedReport &r : customer.reports())
        ++perRequest[r.requestId];
    for (const auto &[id, count] : perRequest) {
        (void)id;
        if (count > 1)
            trace.duplicateReports += count - 1;
    }

    trace.eventsExecuted = cloud.events().executed();
    trace.endTime = cloud.events().now();
    return trace;
}

TEST(ChaosDeterminismTest, FaultSweepSettlesAndIsBitIdentical)
{
    for (const double drop : {0.0, 0.01, 0.1, 0.3}) {
        const bool crash = drop >= 0.1;
        const ChaosTrace run = runChaosScenario(drop, crash);
        const ChaosTrace rerun = runChaosScenario(drop, crash);

        // Every request reaches a definitive verdict — success,
        // Unreachable or Failed — never a hang.
        EXPECT_EQ(run.settled, 50u) << "drop=" << drop;
        EXPECT_EQ(rerun.settled, 50u) << "drop=" << drop;
        EXPECT_EQ(run.duplicateReports, 0u) << "drop=" << drop;
        EXPECT_EQ(rerun.duplicateReports, 0u) << "drop=" << drop;

        // Bit-identical across same-seed runs, faults and all.
        EXPECT_EQ(run.digest, rerun.digest) << "drop=" << drop;
        EXPECT_EQ(run.okCount, rerun.okCount) << "drop=" << drop;
        EXPECT_EQ(run.eventsExecuted, rerun.eventsExecuted)
            << "drop=" << drop;
        EXPECT_EQ(run.endTime, rerun.endTime) << "drop=" << drop;

        // A clean wire with the reliability layer armed loses nothing.
        if (drop == 0.0) {
            EXPECT_EQ(run.okCount, 50u);
        }
    }
}

// --- Controller crash / recovery ---------------------------------------
//
// The controller is the one entity whose loss used to forfeit all
// protocol state. With the write-ahead journal it must come back from
// a mid-protocol crash with every VmRecord intact, every accepted
// attestation re-armed to a terminal verdict, and no double-issued
// report — and the whole recovery must be bit-identical across
// same-seed runs.

struct RecoveryTrace
{
    std::string digest;
    std::size_t okCount = 0;
    std::size_t settled = 0;
    std::size_t duplicateReports = 0;
    std::size_t lostVmRecords = 0;
    std::uint64_t recoveries = 0;
    std::size_t eventsExecuted = 0;
    SimTime endTime = 0;
};

RecoveryTrace
runControllerCrashScenario(double drop)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.numAttestationServers = 2;
    cfg.seed = 98765;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    // Provision fault-free, then crash the controller mid-protocol.
    std::vector<std::string> vids;
    for (int i = 0; i < 4; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        EXPECT_TRUE(vid.isOk()) << vid.errorMessage();
        if (vid.isOk())
            vids.push_back(vid.take());
    }

    sim::FaultPlanConfig plan;
    plan.seed = 0xDEADBEA7;
    plan.faults.dropProbability = drop;
    plan.activeFrom = cloud.events().now();
    // Down after the AttestRequests are accepted (and journaled), back
    // well before the customers' retry budgets run out.
    plan.crashes.push_back(sim::CrashEvent{
        "cloud-controller", cloud.events().now() + msec(800),
        cloud.events().now() + seconds(4)});
    cloud.installFaultPlan(plan);

    std::vector<std::string> many;
    for (int i = 0; i < 30; ++i)
        many.push_back(vids[static_cast<std::size_t>(i) % vids.size()]);
    auto results = cloud.attestMany(customer, many,
                                    proto::allProperties(), seconds(600));

    RecoveryTrace trace;
    crypto::Sha256 digest;
    for (auto &r : results) {
        if (r.isOk()) {
            ++trace.okCount;
            ++trace.settled;
            digest.update(r.value().report.encode());
            absorbTime(digest, r.value().receivedAt);
        } else {
            trace.settled += r.errorMessage() != "attestation timed out";
            digest.update(toBytes(r.errorMessage()));
        }
    }
    trace.digest = toHex(digest.digest());

    for (const std::string &vid : vids) {
        if (cloud.controller().database().vm(vid) == nullptr)
            ++trace.lostVmRecords;
    }

    std::map<std::uint64_t, std::size_t> perRequest;
    for (const VerifiedReport &r : customer.reports())
        ++perRequest[r.requestId];
    for (const auto &[id, count] : perRequest) {
        (void)id;
        if (count > 1)
            trace.duplicateReports += count - 1;
    }

    trace.recoveries = cloud.controller().stats().recoveries;
    trace.eventsExecuted = cloud.events().executed();
    trace.endTime = cloud.events().now();
    return trace;
}

TEST(ControllerRecoveryDeterminismTest, CrashSweepIsBitIdentical)
{
    for (const double drop : {0.0, 0.1}) {
        const RecoveryTrace run = runControllerCrashScenario(drop);
        const RecoveryTrace rerun = runControllerCrashScenario(drop);

        for (const RecoveryTrace *t : {&run, &rerun}) {
            EXPECT_EQ(t->recoveries, 1u) << "drop=" << drop;
            EXPECT_EQ(t->lostVmRecords, 0u)
                << "journaled VmRecords must survive the crash, drop="
                << drop;
            EXPECT_EQ(t->settled, 30u)
                << "every accepted request must reach a terminal "
                   "verdict, drop=" << drop;
            EXPECT_EQ(t->duplicateReports, 0u) << "drop=" << drop;
        }

        EXPECT_EQ(run.digest, rerun.digest) << "drop=" << drop;
        EXPECT_EQ(run.okCount, rerun.okCount) << "drop=" << drop;
        EXPECT_EQ(run.eventsExecuted, rerun.eventsExecuted)
            << "drop=" << drop;
        EXPECT_EQ(run.endTime, rerun.endTime) << "drop=" << drop;
    }
}

// --- Shard chaos ------------------------------------------------------
//
// Sharded control plane under fire: one controller shard crashes and
// recovers mid-fan-out while the wire drops packets. Fault isolation
// must hold — only VMs owned by the crashed shard wait out its
// recovery, every other shard keeps answering at normal latency — and
// the whole run must stay bit-identical across same-seed runs.

struct ShardChaosTrace
{
    std::string digest;
    std::string crashedShard;
    std::size_t okCount = 0;
    std::size_t settled = 0;
    SimTime restartAt = 0;
    SimTime maxCrashedShardLatency = 0; //!< Latest receivedAt, owned VMs.
    SimTime maxOtherShardLatency = 0;   //!< Latest receivedAt, the rest.
    std::uint64_t crashedRecoveries = 0;
    std::uint64_t otherRecoveries = 0;
    std::size_t eventsExecuted = 0;
    SimTime endTime = 0;
};

ShardChaosTrace
runShardChaosScenario(double drop)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.numAttestationServers = 2;
    cfg.seed = 55001;
    cfg.controllerShards = 4;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    std::vector<std::string> vids;
    for (int i = 0; i < 8; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        EXPECT_TRUE(vid.isOk()) << vid.errorMessage();
        if (vid.isOk())
            vids.push_back(vid.take());
    }

    ShardChaosTrace trace;
    // Crash the shard owning the first VM: deterministic for the fixed
    // seed, and guaranteed to have at least one VM to isolate.
    const controller::HashRing &ring = cloud.controllerFabric().ring();
    trace.crashedShard = ring.owner(vids[0]);

    sim::FaultPlanConfig plan;
    plan.seed = 0x5AAD;
    plan.faults.dropProbability = drop;
    plan.activeFrom = cloud.events().now();
    // Down before the first fan-out answers come back, up well before
    // the customers' retry budgets run out.
    trace.restartAt = cloud.events().now() + seconds(4);
    plan.crashes.push_back(sim::CrashEvent{
        trace.crashedShard, cloud.events().now() + msec(300),
        trace.restartAt});
    cloud.installFaultPlan(plan);

    std::vector<std::string> many;
    for (int i = 0; i < 32; ++i)
        many.push_back(vids[static_cast<std::size_t>(i) % vids.size()]);
    auto results = cloud.attestMany(customer, many,
                                    proto::allProperties(), seconds(600));

    crypto::Sha256 digest;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const bool onCrashed = ring.owner(many[i]) == trace.crashedShard;
        if (r.isOk()) {
            ++trace.okCount;
            ++trace.settled;
            digest.update(r.value().report.encode());
            absorbTime(digest, r.value().receivedAt);
            SimTime &slot = onCrashed ? trace.maxCrashedShardLatency
                                      : trace.maxOtherShardLatency;
            slot = std::max(slot, r.value().receivedAt);
        } else {
            trace.settled += r.errorMessage() != "attestation timed out";
            digest.update(toBytes(r.errorMessage()));
        }
    }
    trace.digest = toHex(digest.digest());

    for (std::size_t k = 0; k < cloud.controllerFabric().numShards();
         ++k) {
        const auto &shard = cloud.controllerFabric().shard(k);
        if (shard.id() == trace.crashedShard)
            trace.crashedRecoveries += shard.stats().recoveries;
        else
            trace.otherRecoveries += shard.stats().recoveries;
    }
    trace.eventsExecuted = cloud.events().executed();
    trace.endTime = cloud.events().now();
    return trace;
}

TEST(ShardChaosDeterminismTest, CrashedShardIsIsolatedAndBitIdentical)
{
    for (const double drop : {0.0, 0.1, 0.3}) {
        const ShardChaosTrace run = runShardChaosScenario(drop);
        const ShardChaosTrace rerun = runShardChaosScenario(drop);

        for (const ShardChaosTrace *t : {&run, &rerun}) {
            EXPECT_EQ(t->settled, 32u) << "drop=" << drop;
            EXPECT_EQ(t->crashedRecoveries, 1u)
                << "the crashed shard must replay its journal, drop="
                << drop;
            EXPECT_EQ(t->otherRecoveries, 0u)
                << "no other shard may even notice, drop=" << drop;
        }

        // Fault isolation on a clean wire: every VM on a surviving
        // shard is answered before the crashed shard even comes back;
        // the crashed shard's VMs pay its recovery latency.
        if (drop == 0.0) {
            EXPECT_EQ(run.okCount, 32u);
            EXPECT_GT(run.maxOtherShardLatency, 0);
            EXPECT_LT(run.maxOtherShardLatency, run.restartAt)
                << "surviving shards must keep normal latency";
            EXPECT_GT(run.maxCrashedShardLatency, run.restartAt)
                << "crashed shard's VMs wait out its recovery";
        }

        EXPECT_EQ(run.crashedShard, rerun.crashedShard);
        EXPECT_EQ(run.digest, rerun.digest) << "drop=" << drop;
        EXPECT_EQ(run.okCount, rerun.okCount) << "drop=" << drop;
        EXPECT_EQ(run.eventsExecuted, rerun.eventsExecuted)
            << "drop=" << drop;
        EXPECT_EQ(run.endTime, rerun.endTime) << "drop=" << drop;
    }
}

TEST(ChaosDeterminismTest, ZeroRateFaultPlanIsInert)
{
    // Installing an all-zero plan must not perturb the simulation at
    // all: same digest, same event count, same end time as no plan.
    const ChaosTrace without = runChaosScenario(0.0, false, false);
    const ChaosTrace with = runChaosScenario(0.0, false, true);
    EXPECT_EQ(without.digest, with.digest);
    EXPECT_EQ(without.okCount, 50u);
    EXPECT_EQ(with.okCount, 50u);
    EXPECT_EQ(without.endTime, with.endTime);
}

} // namespace
} // namespace monatt::core
