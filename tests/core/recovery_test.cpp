/**
 * @file
 * Durable control-plane recovery: scripted crash/restart of the
 * controller and pCA against the write-ahead journal, a crashed
 * Attestation Server that must stay silent, plus the
 * clean-wire A/B — a fault-free run with durability enabled must be
 * byte-identical to one with it disabled, because journal appends
 * cost zero simulated time and recovery code only runs after a crash.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cloud.h"
#include "crypto/sha256.h"

namespace monatt::core
{
namespace
{

struct CleanTrace
{
    std::string digest;
    std::size_t reportCount = 0;
    std::size_t eventsExecuted = 0;
    SimTime endTime = 0;
};

CleanTrace
runCleanScenario(bool durable)
{
    CloudConfig cfg;
    cfg.numServers = 3;
    cfg.seed = 555777;
    cfg.durableControlPlane = durable;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    std::vector<std::string> vids;
    for (int i = 0; i < 3; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        EXPECT_TRUE(vid.isOk()) << vid.errorMessage();
        if (vid.isOk())
            vids.push_back(vid.take());
    }
    for (auto &r :
         cloud.attestMany(customer, vids, proto::allProperties()))
        EXPECT_TRUE(r.isOk()) << r.errorMessage();
    cloud.runFor(seconds(1));

    crypto::Sha256 digest;
    for (const VerifiedReport &r : customer.reports())
        digest.update(r.report.encode());
    CleanTrace trace;
    trace.digest = toHex(digest.digest());
    trace.reportCount = customer.reports().size();
    trace.eventsExecuted = cloud.events().executed();
    trace.endTime = cloud.events().now();
    return trace;
}

TEST(RecoveryTest, CleanWireByteIdenticalWithDurabilityOnOrOff)
{
    const CleanTrace durable = runCleanScenario(true);
    const CleanTrace volatileOnly = runCleanScenario(false);
    ASSERT_GT(durable.reportCount, 0u);
    EXPECT_EQ(durable.digest, volatileOnly.digest)
        << "journaling must not perturb fault-free behavior";
    EXPECT_EQ(durable.reportCount, volatileOnly.reportCount);
    EXPECT_EQ(durable.eventsExecuted, volatileOnly.eventsExecuted);
    EXPECT_EQ(durable.endTime, volatileOnly.endTime);
}

TEST(RecoveryTest, ControllerRestartPreservesDatabase)
{
    CloudConfig cfg;
    cfg.numServers = 3;
    cfg.seed = 20260806;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    std::vector<std::string> vids;
    for (int i = 0; i < 2; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
        vids.push_back(vid.take());
    }
    const auto &db = cloud.controller().database();
    std::uint64_t allocatedBefore = 0;
    for (const std::string &id : db.serverIds())
        allocatedBefore += db.server(id)->allocatedRamMb;

    cloud.crashNode("cloud-controller");
    cloud.runFor(seconds(1));
    cloud.restartNode("cloud-controller");

    EXPECT_EQ(cloud.controller().stats().recoveries, 1u);
    for (const std::string &vid : vids) {
        const controller::VmRecord *rec = db.vm(vid);
        ASSERT_NE(rec, nullptr)
            << "journaled VmRecord lost across restart: " << vid;
        EXPECT_EQ(rec->status, controller::VmStatus::Running) << vid;
        EXPECT_FALSE(rec->serverId.empty()) << vid;
    }
    std::uint64_t allocatedAfter = 0;
    for (const std::string &id : db.serverIds())
        allocatedAfter += db.server(id)->allocatedRamMb;
    EXPECT_EQ(allocatedBefore, allocatedAfter)
        << "placement accounting must replay exactly";

    // The customer's first request after the outage still rides the
    // pre-crash channel the controller no longer holds; it burns its
    // retry budget, turns terminally Unreachable and resets the
    // channel. The next request handshakes fresh and succeeds — the
    // recovered controller serves attestations normally.
    auto first = cloud.attestOnce(customer, vids[0],
                                  proto::allProperties(), seconds(300));
    EXPECT_FALSE(first.isOk());
    auto second = cloud.attestOnce(customer, vids[0],
                                   proto::allProperties(), seconds(300));
    EXPECT_TRUE(second.isOk()) << second.errorMessage();
}

TEST(RecoveryTest, PrivacyCaRestartKeepsSerialsMonotone)
{
    CloudConfig cfg;
    cfg.numServers = 2;
    cfg.seed = 777333;
    cfg.aikReuseLimit = 1; // Fresh AVK session (and cert) per round.
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    auto vid = cloud.launchVm(customer, "vm-0", "cirros", "small",
                              proto::allProperties());
    ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
    const std::string v = vid.take();
    for (int i = 0; i < 2; ++i) {
        auto r = cloud.attestOnce(customer, v, proto::allProperties());
        ASSERT_TRUE(r.isOk()) << r.errorMessage();
    }
    const std::uint64_t issuedBefore = cloud.privacyCa().issued();
    ASSERT_GT(issuedBefore, 0u);

    cloud.crashNode("privacy-ca");
    cloud.runFor(seconds(1));
    cloud.restartNode("privacy-ca");

    EXPECT_EQ(cloud.privacyCa().issued(), issuedBefore)
        << "the serial counter must replay from the journal, never "
           "restart from zero";

    // The next attestation needs a fresh certificate. The server's
    // first cert request rides its stale channel; only once the cert
    // retry budget is exhausted (well after the AS has already given
    // up on the measurement) does the server reset the channel, so
    // drain simulated time between rounds until a post-crash serial
    // appears. It must within a few rounds — and strictly above the
    // pre-crash ones.
    bool minted = false;
    for (int round = 0; round < 4 && !minted; ++round) {
        (void)cloud.attestOnce(customer, v, proto::allProperties(),
                               seconds(300));
        cloud.runFor(seconds(60)); // Let cert retries exhaust + reset.
        minted = cloud.privacyCa().issued() > issuedBefore;
    }
    EXPECT_TRUE(minted)
        << "restarted pCA never certified a fresh session";
    auto after = cloud.attestOnce(customer, v, proto::allProperties(),
                                  seconds(300));
    ASSERT_TRUE(after.isOk()) << after.errorMessage();
    EXPECT_GT(cloud.privacyCa().issued(), issuedBefore);
}

TEST(RecoveryTest, CrashedAttestationServerStaysSilent)
{
    CloudConfig cfg;
    cfg.numServers = 2;
    cfg.seed = 424242;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    auto vid = cloud.launchVm(customer, "vm-0", "cirros", "small",
                              proto::allProperties());
    ASSERT_TRUE(vid.isOk()) << vid.errorMessage();

    // Run until the AS has verified the measurements: the signed
    // report is now waiting out the interpretation delay.
    attestation::AttestationServer &as = cloud.attestationServer();
    const std::uint64_t verified = as.stats().responsesVerified;
    customer.runtimeAttestCurrent(vid.value(), proto::allProperties());
    ASSERT_TRUE(cloud.runUntil(
        [&] { return as.stats().responsesVerified > verified; },
        seconds(60)));
    const std::uint64_t issued = as.stats().reportsIssued;
    const sim::StableStoreStats disk = as.stableStore().stats();

    ASSERT_TRUE(cloud.crashNode(as.id()).isOk());
    cloud.runFor(seconds(10));

    // A crashed AS signs, sends and journals nothing.
    EXPECT_EQ(as.stats().reportsIssued, issued);
    EXPECT_EQ(as.stableStore().stats().appends, disk.appends);
    EXPECT_EQ(as.stableStore().stats().syncs, disk.syncs);
}

} // namespace
} // namespace monatt::core
