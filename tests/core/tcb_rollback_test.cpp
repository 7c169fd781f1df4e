/**
 * @file
 * TCB/firmware rollback attacks against the minimum-TCB policy
 * (DESIGN.md §18). Four attack scenarios plus a chaos sweep:
 *
 *  - Mid-fleet firmware rollback: seeded attacker downgrades a subset
 *    of hosts; every VM on a downgraded host must end in a terminal
 *    TcbRollback verdict, the host must be quarantined, and the VM
 *    force-migrated onto an honest server that then attests Healthy.
 *
 *  - Stale-quote replay: a compromised host answers a fresh challenge
 *    with stashed measurements re-signed under the current session
 *    key. Signature and quote verify; only the N3 freshness check can
 *    catch it — and must, ending in eviction.
 *
 *  - Rollback mid-attestation: the downgrade lands while the
 *    measurement request is already in flight; the verdict must still
 *    be TcbRollback (measurements are evaluated at collection time).
 *
 *  - Rollback on a shard leader's host: the quarantine decision and
 *    forced migration are journaled, so they must survive the leader
 *    crashing and a follower taking over.
 *
 *  - Chaos sweep: rollback + stale replay under 0–30% message loss
 *    must stay bit-identical across same-seed runs and reach a
 *    terminal verdict for every request.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cloud.h"
#include "crypto/sha256.h"
#include "sim/rollback_faults.h"

namespace monatt::core
{
namespace
{

void
absorbU64(crypto::Sha256 &digest, std::uint64_t v)
{
    Bytes b;
    for (int i = 0; i < 8; ++i)
        b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    digest.update(b);
}

std::string
serverName(int i)
{
    return "server-" + std::to_string(i);
}

/** Properties whose clean-run appraisal is deterministically Healthy
 * (the windowed detectors report Unknown until their sample window
 * fills, which would muddy the healthy-vs-rollback contrast). */
std::vector<proto::SecurityProperty>
integrityProps()
{
    return {proto::SecurityProperty::StartupIntegrity,
            proto::SecurityProperty::RuntimeIntegrity};
}

/** True when every result in the report carries `status`. */
bool
allResultsAre(const proto::AttestationReport &report,
              proto::HealthStatus status)
{
    if (report.results.empty())
        return false;
    for (const proto::PropertyResult &pr : report.results) {
        if (pr.status != status)
            return false;
    }
    return true;
}

TEST(TcbRollbackTest, FirmwareRollbackMidFleetQuarantinesAndMigrates)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.seed = 93001;
    cfg.minimumTcbVersion = 2; // == serverFirmwareVersion: floor passes
                               // until the attacker downgrades a host.
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    std::vector<std::string> vids;
    for (int i = 0; i < 4; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
        vids.push_back(vid.take());
    }

    sim::FaultPlanConfig plan;
    plan.seed = 0x7CB1;
    plan.rollback.rollbackProbability = 0.5;
    plan.rollback.rollbackVersion = 1;
    plan.activeFrom = cloud.events().now();

    // The verdicts are pure functions of (seed, node): probe the model
    // directly for the expected affected set instead of seed-hunting.
    const sim::RollbackFaultModel model(plan.seed, plan.rollback);
    std::vector<std::string> rolled, honest;
    for (int i = 1; i <= cfg.numServers; ++i) {
        (model.rollsBack(serverName(i)) ? rolled : honest)
            .push_back(serverName(i));
    }
    ASSERT_GE(rolled.size(), 1u) << "seed must downgrade some host";
    ASSERT_GE(honest.size(), 1u) << "seed must leave some host honest";
    const auto isRolled = [&](const std::string &id) {
        return model.rollsBack(id);
    };

    std::map<std::string, std::string> hostBefore;
    for (const std::string &vid : vids)
        hostBefore[vid] =
            cloud.controllerFor(vid).database().vm(vid)->serverId;

    cloud.installFaultPlan(plan);
    auto results =
        cloud.attestMany(customer, vids, integrityProps());

    std::size_t attacked = 0;
    for (std::size_t i = 0; i < vids.size(); ++i) {
        ASSERT_TRUE(results[i].isOk()) << results[i].errorMessage();
        const VerifiedReport &r = results[i].value();
        if (isRolled(hostBefore[vids[i]])) {
            ++attacked;
            EXPECT_TRUE(allResultsAre(r.report,
                                      proto::HealthStatus::TcbRollback))
                << vids[i] << " on downgraded host "
                << hostBefore[vids[i]];
            EXPECT_NE(r.report.results.front().detail.find(
                          "below minimum"),
                      std::string::npos);
            EXPECT_EQ(customer.outcomeFor(r.requestId).state,
                      AttestationOutcome::TcbRollback);
        } else {
            EXPECT_TRUE(r.report.allHealthy())
                << vids[i] << " on honest host " << hostBefore[vids[i]];
        }
    }
    ASSERT_GE(attacked, 1u);

    // Every attacked VM is force-migrated off the quarantined host.
    for (const std::string &vid : vids) {
        if (!isRolled(hostBefore[vid]))
            continue;
        EXPECT_TRUE(cloud.runUntil(
            [&] {
                const controller::VmRecord *rec =
                    cloud.controllerFor(vid).database().vm(vid);
                return rec != nullptr &&
                       rec->status == controller::VmStatus::Running &&
                       rec->serverId != hostBefore[vid];
            },
            seconds(120)))
            << vid << " was not migrated off " << hostBefore[vid];
    }

    auto &cc = cloud.controller();
    EXPECT_GE(cc.stats().tcbRollbackReports, attacked);
    EXPECT_GE(cc.stats().serversQuarantined, 1u);
    EXPECT_GE(cloud.attestationServer().stats().tcbRollbackVerdicts,
              attacked);

    for (const std::string &vid : vids) {
        if (!isRolled(hostBefore[vid]))
            continue;
        // The downgraded source is quarantined; the target is not.
        const controller::ServerRecord *src =
            cc.database().server(hostBefore[vid]);
        ASSERT_NE(src, nullptr);
        EXPECT_TRUE(src->quarantined);
        const controller::VmRecord *rec =
            cloud.controllerFor(vid).database().vm(vid);
        const controller::ServerRecord *dst =
            cc.database().server(rec->serverId);
        ASSERT_NE(dst, nullptr);
        EXPECT_FALSE(dst->quarantined);

        // The response log shows a completed forced migration.
        bool migrated = false;
        for (const controller::ResponseRecord &log :
             cloud.controllerFor(vid).responseLog()) {
            migrated |= log.vid == vid &&
                        log.action == controller::ResponsePolicy::Migrate &&
                        log.detail.find("tcb rollback") !=
                            std::string::npos &&
                        log.completed && log.succeeded;
        }
        EXPECT_TRUE(migrated) << vid;
    }
    for (const std::string &id : honest)
        EXPECT_FALSE(cc.database().server(id)->quarantined) << id;

    // A migrated VM now sitting on an honest host attests Healthy:
    // the eviction actually restored the customer's trust chain.
    std::size_t reattested = 0;
    for (const std::string &vid : vids) {
        if (!isRolled(hostBefore[vid]))
            continue;
        const std::string nowOn =
            cloud.controllerFor(vid).database().vm(vid)->serverId;
        if (isRolled(nowOn))
            continue; // Landed on a not-yet-attested downgraded host.
        auto again =
            cloud.attestOnce(customer, vid, integrityProps());
        ASSERT_TRUE(again.isOk()) << again.errorMessage();
        EXPECT_TRUE(again.value().report.allHealthy()) << vid;
        ++reattested;
    }
    EXPECT_GE(reattested, 1u)
        << "no attacked VM landed on an honest host";
}

TEST(TcbRollbackTest, FabricAggregateCountsEveryShardsRollbackVerdicts)
{
    // The mid-fleet rollback scenario on two shards: whichever shard
    // owns an attacked VM counts the rollback report and quarantine,
    // and the fabric-wide totals must include them.
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.seed = 93001;
    cfg.minimumTcbVersion = 2;
    cfg.controllerShards = 2;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    std::vector<std::string> vids;
    for (int i = 0; i < 4; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
        vids.push_back(vid.take());
    }
    sim::FaultPlanConfig plan;
    plan.seed = 0x7CB1;
    plan.rollback.rollbackProbability = 0.5;
    plan.rollback.rollbackVersion = 1;
    plan.activeFrom = cloud.events().now();
    cloud.installFaultPlan(plan);
    for (const auto &r : cloud.attestMany(customer, vids, integrityProps()))
        ASSERT_TRUE(r.isOk()) << r.errorMessage();
    cloud.runFor(seconds(60));

    controller::ControllerFabric &fab = cloud.controllerFabric();
    controller::ControllerStats perNode;
    for (std::size_t i = 0; i < fab.numNodes(); ++i) {
        const controller::ControllerStats s = fab.node(i).stats();
        perNode.tcbRollbackReports += s.tcbRollbackReports;
        perNode.serversQuarantined += s.serversQuarantined;
        perNode.corruptRecoveries += s.corruptRecoveries;
    }
    ASSERT_GE(perNode.tcbRollbackReports, 1u);
    ASSERT_GE(perNode.serversQuarantined, 1u);

    const controller::ControllerStats total = fab.aggregateStats();
    EXPECT_EQ(total.tcbRollbackReports, perNode.tcbRollbackReports);
    EXPECT_EQ(total.serversQuarantined, perNode.serversQuarantined);
    EXPECT_EQ(total.corruptRecoveries, perNode.corruptRecoveries);
}

TEST(TcbRollbackTest, StaleQuoteReplayWithValidSignatureIsEvicted)
{
    CloudConfig cfg;
    cfg.numServers = 2;
    cfg.seed = 93002;
    cfg.minimumTcbVersion = 2;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    auto vidR = cloud.launchVm(customer, "vm-0", "cirros", "small",
                               proto::allProperties());
    ASSERT_TRUE(vidR.isOk()) << vidR.errorMessage();
    const std::string vid = vidR.take();
    const std::string firstHost =
        cloud.controllerFor(vid).database().vm(vid)->serverId;

    // Every host replays: the stash from the (honest) startup
    // attestation answers the next fresh challenge, re-signed under
    // the current session key so signature and quote checks pass.
    sim::FaultPlanConfig plan;
    plan.seed = 0x57A1E;
    plan.rollback.staleReplayProbability = 1.0;
    plan.activeFrom = cloud.events().now();
    cloud.installFaultPlan(plan);

    auto r = cloud.attestOnce(customer, vid, integrityProps());
    ASSERT_TRUE(r.isOk()) << r.errorMessage();
    EXPECT_TRUE(allResultsAre(r.value().report,
                              proto::HealthStatus::TcbRollback));
    EXPECT_EQ(r.value().report.results.front().detail,
              "stale quote replayed for fresh challenge");
    EXPECT_EQ(customer.outcomeFor(r.value().requestId).state,
              AttestationOutcome::TcbRollback);
    EXPECT_GE(cloud.attestationServer().stats().staleReplaysDetected, 1u);

    // Evicted onto the other server...
    ASSERT_TRUE(cloud.runUntil(
        [&] {
            const controller::VmRecord *rec =
                cloud.controllerFor(vid).database().vm(vid);
            return rec->status == controller::VmStatus::Running &&
                   rec->serverId != firstHost;
        },
        seconds(120)));
    EXPECT_TRUE(
        cloud.controller().database().server(firstHost)->quarantined);

    // ...where no stale stash exists for this VM yet, so the next
    // challenge is answered honestly and the floor passes.
    auto again = cloud.attestOnce(customer, vid, integrityProps());
    ASSERT_TRUE(again.isOk()) << again.errorMessage();
    EXPECT_TRUE(again.value().report.allHealthy());
}

TEST(TcbRollbackTest, RollbackDuringInFlightAttestationIsCaught)
{
    CloudConfig cfg;
    cfg.numServers = 2;
    cfg.seed = 93003;
    cfg.minimumTcbVersion = 2;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    auto vidR = cloud.launchVm(customer, "vm-0", "cirros", "small",
                               proto::allProperties());
    ASSERT_TRUE(vidR.isOk()) << vidR.errorMessage();
    const std::string vid = vidR.take();
    const std::string firstHost =
        cloud.controllerFor(vid).database().vm(vid)->serverId;

    // The downgrade lands while the challenge is already travelling:
    // the request leaves now, the attack window opens 300us later,
    // and the measurement is collected after that. TcbVersion is
    // evaluated at collection time, so the verdict must catch it.
    sim::FaultPlanConfig plan;
    plan.seed = 0xF00D;
    plan.rollback.rollbackProbability = 1.0;
    plan.rollback.rollbackVersion = 1;
    plan.activeFrom = cloud.events().now() + usec(300);
    cloud.installFaultPlan(plan);

    auto r = cloud.attestOnce(customer, vid, proto::allProperties());
    ASSERT_TRUE(r.isOk()) << r.errorMessage();
    EXPECT_TRUE(allResultsAre(r.value().report,
                              proto::HealthStatus::TcbRollback));

    ASSERT_TRUE(cloud.runUntil(
        [&] {
            const controller::VmRecord *rec =
                cloud.controllerFor(vid).database().vm(vid);
            return rec->status == controller::VmStatus::Running &&
                   rec->serverId != firstHost;
        },
        seconds(120)));
    EXPECT_TRUE(
        cloud.controller().database().server(firstHost)->quarantined);
}

TEST(TcbRollbackTest, QuarantineAndMigrationSurviveLeaderFailover)
{
    CloudConfig cfg;
    cfg.numServers = 3;
    cfg.seed = 93004;
    cfg.controllerShards = 1;
    cfg.controllerReplicas = 3;
    cfg.minimumTcbVersion = 2;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    auto vidR = cloud.launchVm(customer, "vm-0", "cirros", "small",
                               proto::allProperties());
    ASSERT_TRUE(vidR.isOk()) << vidR.errorMessage();
    const std::string vid = vidR.take();
    auto &fab = cloud.controllerFabric();
    const std::string firstHost =
        fab.ownerOf(vid).database().vm(vid)->serverId;

    sim::FaultPlanConfig plan;
    plan.seed = 0x1EAD;
    plan.rollback.rollbackProbability = 1.0;
    plan.rollback.rollbackVersion = 1;
    plan.activeFrom = cloud.events().now();
    cloud.installFaultPlan(plan);

    auto r = cloud.attestOnce(customer, vid, proto::allProperties());
    ASSERT_TRUE(r.isOk()) << r.errorMessage();
    EXPECT_TRUE(allResultsAre(r.value().report,
                              proto::HealthStatus::TcbRollback));

    // Kill the round-1 leader right after the verdict: the quarantine
    // and the forced migration live in the replicated journal, so the
    // promoted follower must finish the eviction (re-sending the
    // migration command if its ack died with the old leader).
    ASSERT_TRUE(cloud.crashNode("cloud-controller").isOk());

    ASSERT_TRUE(cloud.runUntil(
        [&] {
            controller::CloudController &leader = fab.leaderOf(0);
            if (leader.electionRound() < 2)
                return false;
            const controller::VmRecord *rec = leader.database().vm(vid);
            return rec != nullptr &&
                   rec->status == controller::VmStatus::Running &&
                   rec->serverId != firstHost;
        },
        seconds(120)))
        << "promoted follower did not finish the forced migration";

    controller::CloudController &leader = fab.leaderOf(0);
    EXPECT_NE(leader.id(), "cloud-controller");
    const controller::ServerRecord *src =
        leader.database().server(firstHost);
    ASSERT_NE(src, nullptr);
    EXPECT_TRUE(src->quarantined)
        << "quarantine decision lost across failover";

    bool migrated = false;
    for (const controller::ResponseRecord &log : leader.responseLog()) {
        migrated |= log.vid == vid &&
                    log.action == controller::ResponsePolicy::Migrate &&
                    log.completed && log.succeeded;
    }
    EXPECT_TRUE(migrated)
        << "replicated response log lost the migration record";
}

// --- Chaos sweep -------------------------------------------------------

struct RollbackChaosTrace
{
    std::string digest;
    std::size_t okCount = 0;
    std::size_t settled = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t rollbackVerdicts = 0;
    std::size_t eventsExecuted = 0;
    SimTime endTime = 0;
};

RollbackChaosTrace
runRollbackChaos(double drop)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.numAttestationServers = 2;
    cfg.seed = 93005;
    cfg.minimumTcbVersion = 2;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    std::vector<std::string> vids;
    for (int i = 0; i < 4; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        EXPECT_TRUE(vid.isOk()) << vid.errorMessage();
        if (vid.isOk())
            vids.push_back(vid.take());
    }

    std::map<std::string, std::string> hostBefore;
    for (const std::string &vid : vids)
        hostBefore[vid] =
            cloud.controllerFor(vid).database().vm(vid)->serverId;

    // Both attacker axes plus a lossy wire: the detection and the
    // eviction must stay deterministic under retransmission chaos.
    sim::FaultPlanConfig plan;
    plan.seed = 0x7CB5;
    plan.rollback.rollbackProbability = 0.5;
    plan.rollback.rollbackVersion = 1;
    plan.rollback.staleReplayProbability = 0.25;
    plan.faults.dropProbability = drop;
    plan.activeFrom = cloud.events().now();
    cloud.installFaultPlan(plan);

    std::vector<std::string> many;
    for (int i = 0; i < 12; ++i)
        many.push_back(vids[static_cast<std::size_t>(i) % vids.size()]);
    auto results = cloud.attestMany(customer, many,
                                    proto::allProperties(), seconds(600));
    // Let the triggered evictions drain (on a clean wire they all
    // complete; under loss whatever state remains must be identical
    // across same-seed runs).
    cloud.runFor(seconds(60));

    RollbackChaosTrace trace;
    crypto::Sha256 digest;
    for (const auto &r : results) {
        if (r.isOk()) {
            ++trace.okCount;
            ++trace.settled;
            digest.update(r.value().report.encode());
            absorbU64(digest,
                      static_cast<std::uint64_t>(r.value().receivedAt));
        } else {
            trace.settled += r.errorMessage() != "attestation timed out";
            digest.update(toBytes(r.errorMessage()));
        }
    }

    // Fold the final control-plane state into the digest: placements,
    // VM status, quarantine flags, response log shape.
    auto &cc = cloud.controller();
    for (const std::string &vid : vids) {
        const controller::VmRecord *rec =
            cloud.controllerFor(vid).database().vm(vid);
        digest.update(toBytes(vid + "@" + rec->serverId));
        absorbU64(digest, static_cast<std::uint64_t>(rec->status));
    }
    for (int i = 1; i <= cfg.numServers; ++i) {
        const controller::ServerRecord *srv =
            cc.database().server(serverName(i));
        absorbU64(digest, srv->quarantined ? 1 : 0);
        trace.quarantined += srv->quarantined;
    }
    for (const controller::ResponseRecord &log : cc.responseLog()) {
        digest.update(toBytes(log.vid + "->" + log.targetServer));
        absorbU64(digest, static_cast<std::uint64_t>(log.action));
        absorbU64(digest, log.completed);
        absorbU64(digest, log.succeeded);
    }
    for (std::size_t a = 0; a < cloud.numAttestationServers(); ++a)
        trace.rollbackVerdicts +=
            cloud.attestationServer(a).stats().tcbRollbackVerdicts;
    trace.digest = toHex(digest.digest());
    trace.eventsExecuted = cloud.events().executed();
    trace.endTime = cloud.events().now();
    return trace;
}

TEST(TcbRollbackTest, ChaosSweepSettlesAndIsBitIdentical)
{
    for (const double drop : {0.0, 0.1, 0.3}) {
        const RollbackChaosTrace run = runRollbackChaos(drop);
        const RollbackChaosTrace rerun = runRollbackChaos(drop);

        for (const RollbackChaosTrace *t : {&run, &rerun}) {
            EXPECT_EQ(t->settled, 12u)
                << "every request needs a terminal verdict, drop="
                << drop;
            // The attacker axes actually fired and were caught.
            EXPECT_GE(t->rollbackVerdicts, 1u) << "drop=" << drop;
            EXPECT_GE(t->quarantined, 1u) << "drop=" << drop;
            if (drop == 0.0) {
                // Clean wire: every report verifies end to end.
                EXPECT_EQ(t->okCount, 12u);
            }
        }

        // Bit-identical across same-seed runs, per drop rate.
        EXPECT_EQ(run.digest, rerun.digest) << "drop=" << drop;
        EXPECT_EQ(run.settled, rerun.settled) << "drop=" << drop;
        EXPECT_EQ(run.quarantined, rerun.quarantined)
            << "drop=" << drop;
        EXPECT_EQ(run.eventsExecuted, rerun.eventsExecuted)
            << "drop=" << drop;
        EXPECT_EQ(run.endTime, rerun.endTime) << "drop=" << drop;
    }
}

} // namespace
} // namespace monatt::core
