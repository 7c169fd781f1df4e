/**
 * @file
 * Mixed-version wire conformance, end to end: fleets whose nodes
 * encode at different schema versions must agree on every attestation
 * verdict, because decoders skip unknown fields and default missing
 * ones, and quote preimages hash only v1 fields. Covers both
 * directions (old controller + new AS, new controller + old AS), a
 * rolling upgrade that flips the fleet from v1 to v3 mid-attestation,
 * and a v2 peer under the v3 minimum-TCB policy.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cloud.h"

namespace monatt::core
{
namespace
{

const proto::WireContext kV1{proto::kWireV1};
const proto::WireContext kV3{proto::kWireV3};

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

/** One full attestation; returns the verified report's bytes. */
Bytes
attestBytes(Cloud &cloud, Customer &customer, const std::string &vid)
{
    auto rep = cloud.attestOnce(customer, vid, proto::allProperties());
    EXPECT_TRUE(rep.isOk()) << rep.errorMessage();
    if (!rep.isOk())
        return {};
    return rep.value().report.encode();
}

TEST(MixedVersionTest, OldControllerTalksToNewAttestationServer)
{
    // Direction 1: a v1 controller shard and customer, v3 AS + servers
    // + pCA. Missing v2/v3 fields default and the preimages hash only
    // v1 fields, so the chain completes and verifies end to end.
    CloudConfig cfg = baseConfig();
    cfg.wire = kV1;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    const std::string vid = launchOne(cloud, customer, "vm-b");

    ASSERT_TRUE(
        cloud.setNodeWireContext(cloud.attestationServer().id(), kV3));
    for (std::size_t i = 0; i < cloud.numServers(); ++i)
        ASSERT_TRUE(cloud.setNodeWireContext(cloud.server(i).id(), kV3));
    ASSERT_TRUE(cloud.setNodeWireContext("privacy-ca", kV3));

    EXPECT_FALSE(attestBytes(cloud, customer, vid).empty());
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

TEST(MixedVersionTest, NewControllerTalksToOldAttestationServer)
{
    // Direction 2: v3 controller + customer, v1 AS + servers + pCA.
    Cloud cloud(baseConfig());
    Customer &customer = cloud.addCustomer("alice");
    ASSERT_TRUE(
        cloud.setNodeWireContext(cloud.attestationServer().id(), kV1));
    for (std::size_t i = 0; i < cloud.numServers(); ++i)
        ASSERT_TRUE(cloud.setNodeWireContext(cloud.server(i).id(), kV1));
    ASSERT_TRUE(cloud.setNodeWireContext("privacy-ca", kV1));

    const std::string vid = launchOne(cloud, customer, "vm-c");
    EXPECT_FALSE(attestBytes(cloud, customer, vid).empty());
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

TEST(MixedVersionTest, RollingUpgradeMidAttestation)
{
    // Simulated rolling upgrade: an all-v1 fleet is mid-attestation —
    // the AttestForward is already in flight — when the AS, servers
    // and pCA flip to v3. The in-flight exchange must still settle:
    // the AS decodes the v1 forward (no senderBuild) and answers at
    // v3 to a controller still sending v1. Then the controller and
    // customer upgrade too and a second attestation completes all-v3.
    CloudConfig cfg = baseConfig();
    cfg.wire = kV1;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    const std::string vid = launchOne(cloud, customer, "vm-d");

    const std::uint64_t requestId =
        customer.runtimeAttestCurrent(vid, proto::allProperties());
    // Let the request reach the controller and the forward leave for
    // the AS, but flip versions before the report comes back.
    cloud.runFor(msec(50));
    ASSERT_TRUE(
        cloud.setNodeWireContext(cloud.attestationServer().id(), kV3));
    for (std::size_t i = 0; i < cloud.numServers(); ++i)
        ASSERT_TRUE(cloud.setNodeWireContext(cloud.server(i).id(), kV3));
    ASSERT_TRUE(cloud.setNodeWireContext("privacy-ca", kV3));

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
        << "report must verify end to end across the version flip, got "
        << static_cast<int>(state) << " ("
        << customer.outcomeFor(requestId).reason << ")";

    // Finish the upgrade (controller shard + customer) and attest
    // again: the whole chain now runs at v3.
    ASSERT_TRUE(cloud.setNodeWireContext(cloud.controller().id(), kV3));
    customer.setWireContext(kV3);
    EXPECT_FALSE(attestBytes(cloud, customer, vid).empty());
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

TEST(MixedVersionTest, V1PeerInteroperatesWithV2Fleet)
{
    // A v1 AS (never emits senderBuild) inside a v3 fleet.
    Cloud cloud(baseConfig());
    Customer &customer = cloud.addCustomer("alice");
    ASSERT_TRUE(
        cloud.setNodeWireContext(cloud.attestationServer().id(), kV1));

    const std::string vid = launchOne(cloud, customer, "vm-e");
    EXPECT_FALSE(attestBytes(cloud, customer, vid).empty());
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

TEST(MixedVersionTest, V2PeerInteroperatesWithTcbPolicy)
{
    // Schema skew across the TCB axis: a v2 server (pre-TCB schema,
    // never emits the field-9 mirror) inside a v3 fleet whose AS runs
    // the minimum-TCB floor. The TcbVersion *measurement* travels
    // inside the measurement set — plain data, not a schema field —
    // so the floor still sees the honest version and passes.
    const proto::WireContext kV2{proto::kWireV2};
    CloudConfig cfg = baseConfig();
    cfg.minimumTcbVersion = 2;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");
    const std::string vid = launchOne(cloud, customer, "vm-g");
    ASSERT_TRUE(cloud.setNodeWireContext(
        cloud.serverHosting(vid)->id(), kV2));

    auto rep = cloud.attestOnce(
        customer, vid, {proto::SecurityProperty::RuntimeIntegrity});
    ASSERT_TRUE(rep.isOk()) << rep.errorMessage();
    EXPECT_TRUE(rep.value().report.allHealthy())
        << "v2 peer must still satisfy the v3 minimum-TCB floor";
    EXPECT_EQ(customer.stats().reportsRejected, 0u);
}

} // namespace
} // namespace monatt::core
