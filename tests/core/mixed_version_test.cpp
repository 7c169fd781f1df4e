/**
 * @file
 * Mixed-version wire conformance, end to end: fleets where nodes emit
 * different wire formats (legacy fixed-width vs tagged) must agree on
 * every attestation verdict, because frames self-describe and quote
 * preimages are defined over the legacy bytes regardless of transport
 * encoding. Covers both directions (old controller + new AS, new
 * controller + old AS), a simulated rolling upgrade that flips a node
 * mid-attestation, tagged-journal crash recovery, and compute-plane
 * determinism of the all-tagged fleet.
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

const proto::WireContext kTagged{proto::WireFormat::Tagged,
                                 proto::kWireVersionLatest};
const proto::WireContext kTaggedV1{proto::WireFormat::Tagged,
                                   proto::kWireV1};
const proto::WireContext kLegacy{};

CloudConfig
baseConfig()
{
    CloudConfig cfg;
    cfg.numServers = 2;
    cfg.seed = 20260808;
    return cfg;
}

/** Launch one VM and return its vid (asserts success). */
std::string
launchOne(Cloud &cloud, Customer &customer, const std::string &name)
{
    auto vid = cloud.launchVm(customer, name, "cirros", "small",
                              proto::allProperties());
    EXPECT_TRUE(vid.isOk()) << vid.errorMessage();
    return vid.isOk() ? vid.take() : std::string{};
}

/** One full attestation; returns the verified report's legacy bytes. */
Bytes
attestBytes(Cloud &cloud, Customer &customer, const std::string &vid)
{
    auto rep = cloud.attestOnce(customer, vid, proto::allProperties());
    EXPECT_TRUE(rep.isOk()) << rep.errorMessage();
    if (!rep.isOk())
        return {};
    return rep.value().report.encode();
}

TEST(MixedVersionTest, AllTaggedFleetReachesSameVerdicts)
{
    // Baseline legacy fleet vs an all-tagged fleet: identical
    // verdicts and identical report payloads (the report content is
    // simulation-time dependent, so timings must agree too — wire
    // sizes differ, which shifts transfer delays, so we compare the
    // health verdicts and vid assignment, not raw timestamps).
    CloudConfig legacyCfg = baseConfig();
    Cloud legacyCloud(legacyCfg);
    Customer &lc = legacyCloud.addCustomer("alice");
    const std::string lvid = launchOne(legacyCloud, lc, "vm-a");

    CloudConfig taggedCfg = baseConfig();
    taggedCfg.wire = kTagged;
    Cloud taggedCloud(taggedCfg);
    Customer &tc = taggedCloud.addCustomer("alice");
    const std::string tvid = launchOne(taggedCloud, tc, "vm-a");

    EXPECT_EQ(lvid, tvid); // placement must not depend on the codec

    const Bytes lrep = attestBytes(legacyCloud, lc, lvid);
    const Bytes trep = attestBytes(taggedCloud, tc, tvid);
    ASSERT_FALSE(lrep.empty());
    ASSERT_FALSE(trep.empty());

    // Same vid, same per-property verdicts.
    auto l = proto::AttestationReport::decode(lrep);
    auto t = proto::AttestationReport::decode(trep);
    ASSERT_TRUE(l.isOk());
    ASSERT_TRUE(t.isOk());
    EXPECT_EQ(l.value().vid, t.value().vid);
    ASSERT_EQ(l.value().results.size(), t.value().results.size());
    for (std::size_t i = 0; i < l.value().results.size(); ++i) {
        EXPECT_EQ(l.value().results[i].property,
                  t.value().results[i].property);
        EXPECT_EQ(l.value().results[i].status,
                  t.value().results[i].status);
    }
}

TEST(MixedVersionTest, OldControllerTalksToNewAttestationServer)
{
    // Direction 1: legacy (old-schema) controller shard, tagged
    // (new-schema) AS + servers. Every hop self-describes, so the
    // attestation chain completes and verifies end to end.
    Cloud cloud(baseConfig());
    Customer &customer = cloud.addCustomer("alice");
    const std::string vid = launchOne(cloud, customer, "vm-b");

    ASSERT_TRUE(cloud.setNodeWireContext(
        cloud.attestationServer().id(), kTagged));
    for (std::size_t i = 0; i < cloud.numServers(); ++i)
        ASSERT_TRUE(
            cloud.setNodeWireContext(cloud.server(i).id(), kTagged));

    EXPECT_FALSE(attestBytes(cloud, customer, vid).empty());
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

TEST(MixedVersionTest, NewControllerTalksToOldAttestationServer)
{
    // Direction 2: tagged controller + customer, legacy AS + servers.
    CloudConfig cfg = baseConfig();
    cfg.wire = kTagged;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    ASSERT_TRUE(cloud.setNodeWireContext(
        cloud.attestationServer().id(), kLegacy));
    for (std::size_t i = 0; i < cloud.numServers(); ++i)
        ASSERT_TRUE(
            cloud.setNodeWireContext(cloud.server(i).id(), kLegacy));
    ASSERT_TRUE(cloud.setNodeWireContext("privacy-ca", kLegacy));

    const std::string vid = launchOne(cloud, customer, "vm-c");
    EXPECT_FALSE(attestBytes(cloud, customer, vid).empty());
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

TEST(MixedVersionTest, RollingUpgradeMidAttestation)
{
    // Simulated rolling upgrade: an old-schema (legacy) controller
    // shard is mid-attestation — the AttestForward is already in
    // flight — when the AS and servers flip to the new schema. The
    // in-flight exchange must still settle: the AS decodes the legacy
    // forward (frames self-describe), answers in tagged, and the
    // controller decodes that reply by its frame marker. Then the
    // controller itself upgrades and a second attestation completes
    // all-tagged.
    Cloud cloud(baseConfig());
    Customer &customer = cloud.addCustomer("alice");
    const std::string vid = launchOne(cloud, customer, "vm-d");

    const std::uint64_t requestId =
        customer.runtimeAttestCurrent(vid, proto::allProperties());
    // Let the request reach the controller and the forward leave for
    // the AS, but flip codecs before the report comes back.
    cloud.runFor(msec(50));
    ASSERT_TRUE(cloud.setNodeWireContext(
        cloud.attestationServer().id(), kTagged));
    for (std::size_t i = 0; i < cloud.numServers(); ++i)
        ASSERT_TRUE(
            cloud.setNodeWireContext(cloud.server(i).id(), kTagged));
    ASSERT_TRUE(cloud.setNodeWireContext("privacy-ca", kTagged));

    const bool settled = cloud.runUntil(
        [&] {
            return customer.outcomeFor(requestId).state !=
                   AttestationOutcome::Pending;
        },
        seconds(120));
    ASSERT_TRUE(settled);
    const AttestationOutcome state = customer.outcomeFor(requestId).state;
    EXPECT_TRUE(state == AttestationOutcome::Verified ||
                state == AttestationOutcome::Degraded)
        << "report must verify end to end across the codec flip, got "
        << static_cast<int>(state) << " ("
        << customer.outcomeFor(requestId).reason << ")";

    // Finish the upgrade (controller shard + customer) and attest
    // again: the whole chain now runs tagged.
    ASSERT_TRUE(
        cloud.setNodeWireContext(cloud.controller().id(), kTagged));
    customer.setWireContext(kTagged);
    EXPECT_FALSE(attestBytes(cloud, customer, vid).empty());
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

TEST(MixedVersionTest, V1PeerInteroperatesWithV2Fleet)
{
    // Schema-version skew on top of format skew: a v1 tagged AS
    // (never emits senderBuild) inside a v2 tagged fleet.
    CloudConfig cfg = baseConfig();
    cfg.wire = kTagged;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    ASSERT_TRUE(cloud.setNodeWireContext(
        cloud.attestationServer().id(), kTaggedV1));

    const std::string vid = launchOne(cloud, customer, "vm-e");
    EXPECT_FALSE(attestBytes(cloud, customer, vid).empty());
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

TEST(MixedVersionTest, V2PeerInteroperatesWithTcbPolicy)
{
    // Schema skew across the TCB axis: a v2 tagged server (pre-TCB
    // schema, never emits the field-9 mirror) inside a v3 fleet whose
    // AS runs the minimum-TCB floor. The TcbVersion *measurement*
    // travels inside the measurement set — plain data, not a schema
    // field — so the floor still sees the honest version and passes.
    const proto::WireContext kTaggedV2{proto::WireFormat::Tagged,
                                       proto::kWireV2};
    CloudConfig cfg = baseConfig();
    cfg.wire = kTagged;
    cfg.minimumTcbVersion = 2;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    const std::string vid = launchOne(cloud, customer, "vm-g");
    ASSERT_TRUE(cloud.setNodeWireContext(
        cloud.serverHosting(vid)->id(), kTaggedV2));

    auto rep = cloud.attestOnce(
        customer, vid, {proto::SecurityProperty::RuntimeIntegrity});
    ASSERT_TRUE(rep.isOk()) << rep.errorMessage();
    EXPECT_TRUE(rep.value().report.allHealthy())
        << "v2 peer must still satisfy the v3 minimum-TCB floor";
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

TEST(MixedVersionTest, RollbackVerdictsAgreeAcrossCodecs)
{
    // Codec parity for the rollback axis: the same seeded downgrade
    // attack against a legacy fleet and an all-tagged v3 fleet must
    // produce identical per-property TcbRollback verdicts — the
    // attack and its detection live above the transport encoding.
    auto verdictsFor = [](const proto::WireContext &wire) {
        CloudConfig cfg = baseConfig();
        cfg.wire = wire;
        cfg.minimumTcbVersion = 2;
        Cloud cloud(cfg);
        Customer &customer = cloud.addCustomer("alice");
        const std::string vid = launchOne(cloud, customer, "vm-h");
        sim::FaultPlanConfig plan;
        plan.seed = 0x7CB7;
        plan.rollback.rollbackProbability = 1.0;
        plan.rollback.rollbackVersion = 1;
        plan.activeFrom = cloud.events().now();
        cloud.installFaultPlan(plan);
        auto rep = cloud.attestOnce(
            customer, vid,
            {proto::SecurityProperty::StartupIntegrity,
             proto::SecurityProperty::RuntimeIntegrity});
        EXPECT_TRUE(rep.isOk()) << rep.errorMessage();
        std::vector<std::pair<proto::SecurityProperty,
                              proto::HealthStatus>> verdicts;
        if (rep.isOk()) {
            for (const proto::PropertyResult &pr :
                 rep.value().report.results)
                verdicts.emplace_back(pr.property, pr.status);
        }
        return verdicts;
    };

    const auto legacy = verdictsFor(kLegacy);
    const auto tagged = verdictsFor(kTagged);
    ASSERT_FALSE(legacy.empty());
    EXPECT_EQ(legacy, tagged);
    for (const auto &[property, status] : legacy)
        EXPECT_EQ(status, proto::HealthStatus::TcbRollback)
            << proto::propertyName(property);
}

TEST(MixedVersionTest, TaggedJournalSurvivesCrashRecovery)
{
    // A tagged-format controller journals tagged payloads (record
    // type carries kTaggedJournalBit). After a crash + replay it must
    // still know the VM and answer attestations — and the journal
    // replay must work even though recovery runs before any frame
    // arrives to hint at the format.
    CloudConfig cfg = baseConfig();
    cfg.wire = kTagged;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    const std::string vid = launchOne(cloud, customer, "vm-f");
    EXPECT_FALSE(attestBytes(cloud, customer, vid).empty());

    ASSERT_TRUE(cloud.crashNode(cloud.controller().id()));
    cloud.runFor(seconds(1));
    ASSERT_TRUE(cloud.restartNode(cloud.controller().id()));
    cloud.runFor(seconds(1));

    // Same channel semantics as legacy recovery (see recovery_test):
    // the first post-outage request rides the pre-crash secure channel
    // the controller no longer holds, fails, and resets the channel.
    auto stale = cloud.attestOnce(customer, vid, proto::allProperties(),
                                  seconds(300));
    EXPECT_FALSE(stale.isOk());

    // The retry handshakes fresh and must verify end to end — proof
    // the tagged journal replayed the VM record and counters.
    auto retried = cloud.attestOnce(customer, vid,
                                    proto::allProperties(), seconds(300));
    EXPECT_TRUE(retried.isOk()) << retried.errorMessage();
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

TEST(MixedVersionTest, TaggedFleetIsDeterministic)
{
    // The tagged codec sits on the simulated wire, so its byte sizes
    // feed transfer-time arithmetic: the all-tagged fleet must be as
    // bit-deterministic across same-seed runs as the legacy one.
    auto digestFor = [] {
        CloudConfig cfg = baseConfig();
        cfg.wire = kTagged;
        Cloud cloud(cfg);
        Customer &customer = cloud.addCustomer("alice");
        std::vector<std::string> vids;
        for (int i = 0; i < 2; ++i)
            vids.push_back(launchOne(cloud, customer,
                                     "vm-" + std::to_string(i)));
        for (auto &r :
             cloud.attestMany(customer, vids, proto::allProperties()))
            EXPECT_TRUE(r.isOk()) << r.errorMessage();
        crypto::Sha256 digest;
        for (const VerifiedReport &r : customer.reports())
            digest.update(r.report.encode());
        return std::pair<std::string, std::size_t>{
            toHex(digest.digest()), cloud.events().executed()};
    };

    const auto run = digestFor();
    const auto rerun = digestFor();
    EXPECT_EQ(run.first, rerun.first);
    EXPECT_EQ(run.second, rerun.second);
}

} // namespace
} // namespace monatt::core
