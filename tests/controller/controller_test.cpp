/**
 * @file
 * Controller internals: the cloud database and the Policy Validation
 * Module (resource + property_filter placement of §3.2.2/§6.1).
 */

#include <gtest/gtest.h>

#include <set>

#include "controller/cloud_controller.h"
#include "controller/database.h"
#include "controller/policy.h"

namespace monatt::controller
{
namespace
{

using proto::SecurityProperty;

ServerRecord
makeServer(const std::string &id, std::uint64_t ramMb,
           std::set<SecurityProperty> caps)
{
    ServerRecord rec;
    rec.id = id;
    rec.capabilities = std::move(caps);
    rec.totalRamMb = ramMb;
    rec.totalDiskGb = 100;
    return rec;
}

std::set<SecurityProperty>
allCaps()
{
    std::set<SecurityProperty> caps;
    for (SecurityProperty p : proto::allProperties())
        caps.insert(p);
    return caps;
}

TEST(DatabaseTest, ServerAndVmCrud)
{
    CloudDatabase db;
    db.addServer(makeServer("s1", 1024, allCaps()));
    ASSERT_NE(db.server("s1"), nullptr);
    EXPECT_EQ(db.server("nope"), nullptr);
    EXPECT_EQ(db.serverIds().size(), 1u);

    VmRecord vm;
    vm.vid = "vm-1";
    vm.serverId = "s1";
    db.addVm(vm);
    ASSERT_NE(db.vm("vm-1"), nullptr);
    EXPECT_EQ(db.vmIds().size(), 1u);
    db.removeVm("vm-1");
    EXPECT_EQ(db.vm("vm-1"), nullptr);
}

TEST(DatabaseTest, AllocationAccounting)
{
    CloudDatabase db;
    db.addServer(makeServer("s1", 1000, allCaps()));
    db.allocate("s1", 400, 10);
    EXPECT_EQ(db.server("s1")->freeRamMb(), 600u);
    EXPECT_EQ(db.server("s1")->freeDiskGb(), 90u);
    db.release("s1", 400, 10);
    EXPECT_EQ(db.server("s1")->freeRamMb(), 1000u);
    // Over-release clamps instead of underflowing.
    db.release("s1", 5000, 5000);
    EXPECT_EQ(db.server("s1")->freeRamMb(), 1000u);
    EXPECT_THROW(db.allocate("nope", 1, 1), std::out_of_range);
}

TEST(DatabaseTest, VmRecordJournalRoundTrip)
{
    VmRecord rec;
    rec.vid = "vm-42";
    rec.name = "web";
    rec.customer = "alice";
    rec.imageName = "cirros";
    rec.flavorName = "small";
    rec.imageSizeMb = 25;
    rec.image = toBytes("image-bytes");
    rec.vcpus = 2;
    rec.ramMb = 512;
    rec.diskGb = 10;
    rec.properties = proto::allProperties();
    rec.serverId = "server-1";
    rec.status = VmStatus::Attesting;
    rec.launchTimer.record("scheduling", 100, 250);
    rec.launchTimer.beginStage("attestation", 400);
    rec.launchAttempts = 2;
    rec.launchedAt = 99;

    auto decoded = proto::decode<VmRecord>(proto::encode(rec));
    ASSERT_TRUE(decoded.isOk()) << decoded.errorMessage();
    const VmRecord out = decoded.take();
    EXPECT_EQ(out.vid, rec.vid);
    EXPECT_EQ(out.customer, rec.customer);
    EXPECT_EQ(out.image, rec.image);
    EXPECT_EQ(out.properties, rec.properties);
    EXPECT_EQ(out.serverId, rec.serverId);
    EXPECT_EQ(out.status, rec.status);
    EXPECT_EQ(out.launchAttempts, rec.launchAttempts);
    EXPECT_EQ(out.launchedAt, rec.launchedAt);
    ASSERT_EQ(out.launchTimer.stages().size(), 1u);
    EXPECT_EQ(out.launchTimer.stages()[0].name, "scheduling");
    ASSERT_TRUE(out.launchTimer.hasOpenStage());
    EXPECT_EQ(out.launchTimer.openStageName(), "attestation");
    EXPECT_EQ(out.launchTimer.openStageStart(), 400);

    // Malformed trailing bytes are an error.
    Bytes tampered = proto::encode(rec);
    tampered.push_back(0xff);
    EXPECT_FALSE(proto::decode<VmRecord>(tampered).isOk());
    EXPECT_FALSE(proto::decode<VmRecord>(toBytes("short")).isOk());
}

TEST(DatabaseTest, ServerRecordJournalRoundTrip)
{
    ServerRecord rec = makeServer("s9", 4096, allCaps());
    rec.totalDiskGb = 250;
    rec.allocatedRamMb = 1024;
    rec.allocatedDiskGb = 30;

    auto decoded = proto::decode<ServerRecord>(proto::encode(rec));
    ASSERT_TRUE(decoded.isOk()) << decoded.errorMessage();
    const ServerRecord out = decoded.take();
    EXPECT_EQ(out.id, rec.id);
    EXPECT_EQ(out.capabilities, rec.capabilities);
    EXPECT_EQ(out.totalRamMb, rec.totalRamMb);
    EXPECT_EQ(out.allocatedRamMb, rec.allocatedRamMb);
    EXPECT_EQ(out.freeDiskGb(), rec.freeDiskGb());

    Bytes truncated = proto::encode(rec);
    truncated.pop_back();
    EXPECT_FALSE(proto::decode<ServerRecord>(truncated).isOk());
}

TEST(PolicyTest, ResourceFilter)
{
    CloudDatabase db;
    db.addServer(makeServer("small", 512, allCaps()));
    db.addServer(makeServer("big", 4096, allCaps()));

    PlacementRequirements req;
    req.ramMb = 1024;
    req.diskGb = 10;
    const auto out = PolicyValidationModule::qualifiedServers(db, req);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "big");
}

TEST(PolicyTest, PropertyFilter)
{
    // §6.1: "we add a new filter: property_filter, to select qualified
    // cloud servers to host VMs based on their customers' security
    // properties".
    CloudDatabase db;
    db.addServer(makeServer("plain", 4096, {}));
    db.addServer(makeServer(
        "integrity-only", 4096,
        {SecurityProperty::StartupIntegrity}));
    db.addServer(makeServer("secure", 4096, allCaps()));

    PlacementRequirements req;
    req.ramMb = 512;
    req.properties = {SecurityProperty::StartupIntegrity,
                      SecurityProperty::CovertChannelFreedom};
    const auto out = PolicyValidationModule::qualifiedServers(db, req);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "secure");
}

TEST(PolicyTest, NoPropertiesMeansAnyServer)
{
    CloudDatabase db;
    db.addServer(makeServer("plain", 4096, {}));
    PlacementRequirements req;
    req.ramMb = 512;
    EXPECT_EQ(PolicyValidationModule::qualifiedServers(db, req).size(),
              1u);
}

TEST(PolicyTest, RanksByFreeRamThenId)
{
    CloudDatabase db;
    db.addServer(makeServer("a", 2048, allCaps()));
    db.addServer(makeServer("b", 4096, allCaps()));
    db.addServer(makeServer("c", 4096, allCaps()));
    db.allocate("b", 1024, 0); // b now has less free than c.

    PlacementRequirements req;
    req.ramMb = 512;
    const auto out = PolicyValidationModule::qualifiedServers(db, req);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], "c"); // Most free RAM.
    EXPECT_EQ(out[1], "b");
    EXPECT_EQ(out[2], "a");
}

TEST(PolicyTest, ExclusionRespected)
{
    CloudDatabase db;
    db.addServer(makeServer("a", 4096, allCaps()));
    db.addServer(makeServer("b", 4096, allCaps()));
    PlacementRequirements req;
    req.ramMb = 512;
    const auto out =
        PolicyValidationModule::qualifiedServers(db, req, {"a"});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "b");
}

TEST(PolicyTest, QualifiesChecksEverything)
{
    const ServerRecord rec = makeServer(
        "s", 1024, {SecurityProperty::StartupIntegrity});
    PlacementRequirements ok;
    ok.ramMb = 512;
    ok.diskGb = 50;
    ok.properties = {SecurityProperty::StartupIntegrity};
    EXPECT_TRUE(PolicyValidationModule::qualifies(rec, ok));

    PlacementRequirements tooBig = ok;
    tooBig.ramMb = 2048;
    EXPECT_FALSE(PolicyValidationModule::qualifies(rec, tooBig));

    PlacementRequirements tooSecure = ok;
    tooSecure.properties.push_back(
        SecurityProperty::CovertChannelFreedom);
    EXPECT_FALSE(PolicyValidationModule::qualifies(rec, tooSecure));
}

TEST(StatusNamesTest, AllDistinct)
{
    std::set<std::string> names;
    for (VmStatus s :
         {VmStatus::Scheduling, VmStatus::Networking, VmStatus::Mapping,
          VmStatus::Spawning, VmStatus::Attesting, VmStatus::Running,
          VmStatus::Suspended, VmStatus::Migrating, VmStatus::Terminated,
          VmStatus::Failed}) {
        names.insert(vmStatusName(s));
    }
    EXPECT_EQ(names.size(), 10u);

    std::set<std::string> policies;
    for (ResponsePolicy p :
         {ResponsePolicy::None, ResponsePolicy::Terminate,
          ResponsePolicy::Suspend, ResponsePolicy::Migrate}) {
        policies.insert(responsePolicyName(p));
    }
    EXPECT_EQ(policies.size(), 4u);
}

} // namespace
} // namespace monatt::controller
