/**
 * @file
 * CloudServer module tests driven over the real network: resource
 * accounting, launch/terminate/suspend/resume command handling,
 * authorization (commands only from the controller, measurement
 * requests only from the cluster attestor), and the Monitor Module's
 * static/windowed split.
 */

#include <gtest/gtest.h>

#include "core/cloud.h"
#include "crypto/sha256.h"
#include "server/monitor_module.h"
#include "workloads/programs.h"

namespace monatt::server
{
namespace
{

using proto::MessageKind;
using proto::SecurityProperty;

struct ServerFixture
{
    core::Cloud cloud;
    core::Customer &alice;
    std::string vid;
    CloudServer *host;

    ServerFixture() : alice(cloud.addCustomer("alice"))
    {
        auto launched = cloud.launchVm(alice, "vm", "fedora", "medium",
                                       proto::allProperties());
        if (!launched.isOk())
            throw std::runtime_error(launched.errorMessage());
        vid = launched.take();
        host = cloud.serverHosting(vid);
    }
};

TEST(CloudServerTest, ResourceAccountingAcrossLifecycle)
{
    ServerFixture f;
    const auto &flavor = server::flavor("medium");
    EXPECT_EQ(f.host->freeRamMb(),
              f.host->config().totalRamMb - flavor.ramMb);
    EXPECT_EQ(f.host->freeDiskGb(),
              f.host->config().totalDiskGb - flavor.diskGb);
    EXPECT_EQ(f.host->vm(f.vid).ramMb, flavor.ramMb);
    EXPECT_EQ(f.host->vmCount(), 1u);

    // Terminate through the controller path (response policy).
    f.cloud.controller().setResponsePolicy(
        f.vid, controller::ResponsePolicy::Terminate);
    f.host->guestOs(f.vid).injectHiddenMalware("rootkit");
    auto report = f.cloud.attestOnce(
        f.alice, f.vid, {SecurityProperty::RuntimeIntegrity});
    ASSERT_TRUE(report.isOk());
    ASSERT_TRUE(f.cloud.runUntil(
        [&] { return f.host->vmCount() == 0; }, seconds(60)));
    EXPECT_EQ(f.host->freeRamMb(), f.host->config().totalRamMb);
    EXPECT_EQ(f.host->freeDiskGb(), f.host->config().totalDiskGb);
}

TEST(CloudServerTest, UnknownVmAccessorsThrow)
{
    ServerFixture f;
    EXPECT_THROW(f.host->vm("no-such-vm"), std::out_of_range);
    EXPECT_THROW(f.host->domainOf("no-such-vm"), std::out_of_range);
    EXPECT_FALSE(f.host->hasVm("no-such-vm"));
}

TEST(CommandAuthorizationTest, ServerIgnoresForeignCommands)
{
    ServerFixture f;
    Rng rng(0xbad);
    const auto rogueKeys = crypto::rsaGenerateKeyPair(512, rng);
    f.cloud.directory().publish("rogue-node", rogueKeys.pub);
    net::SecureEndpoint rogue(f.cloud.network(), "rogue-node", rogueKeys,
                              f.cloud.directory(), toBytes("rogue-seed"));

    proto::VmCommand cmd;
    cmd.vid = f.vid;
    rogue.sendSecure(f.host->id(),
                     proto::packMessage(MessageKind::TerminateVm,
                                        proto::encode(cmd)));
    proto::MeasureRequest mr;
    mr.requestId = 999;
    mr.vid = f.vid;
    mr.rm = {proto::MeasurementType::TaskListVmi};
    mr.nonce3 = {1, 2};
    rogue.sendSecure(f.host->id(),
                     proto::packMessage(MessageKind::MeasureRequest,
                                        proto::encode(mr)));
    f.cloud.runFor(seconds(10));

    // The VM survives and no measurement response went anywhere.
    EXPECT_TRUE(f.host->hasVm(f.vid));
    EXPECT_EQ(rogue.stats().received, 0u);
}

TEST(MonitorModuleTest, StaticVsWindowedClassification)
{
    using proto::MeasurementType;
    EXPECT_FALSE(MonitorModule::isWindowed(MeasurementType::PlatformPcrs));
    EXPECT_FALSE(
        MonitorModule::isWindowed(MeasurementType::VmImageDigest));
    EXPECT_FALSE(MonitorModule::isWindowed(MeasurementType::TaskListVmi));
    EXPECT_FALSE(
        MonitorModule::isWindowed(MeasurementType::AuditLogDigest));
    EXPECT_TRUE(MonitorModule::isWindowed(
        MeasurementType::UsageIntervalHistogram));
    EXPECT_TRUE(MonitorModule::isWindowed(MeasurementType::CpuMeasure));
}

TEST(MonitorModuleTest, CollectStaticThroughServer)
{
    ServerFixture f;
    MonitorModule &monitor = f.host->monitorModule();
    const auto dom = f.host->domainOf(f.vid);

    auto pcrs = monitor.collectStatic(proto::MeasurementType::PlatformPcrs,
                                      dom);
    ASSERT_TRUE(pcrs.isOk());
    EXPECT_EQ(pcrs.value().digest.size(), 64u); // PCR0 || PCR1.
    EXPECT_EQ(pcrs.value().digest,
              core::expectedPlatformDigest(
                  f.cloud.config().hypervisorCode,
                  f.cloud.config().hostOsCode));

    auto image = monitor.collectStatic(
        proto::MeasurementType::VmImageDigest, dom);
    ASSERT_TRUE(image.isOk());
    EXPECT_EQ(image.value().digest,
              crypto::Sha256::hash(server::image("fedora").content));

    auto tasks = monitor.collectStatic(proto::MeasurementType::TaskListVmi,
                                       dom);
    ASSERT_TRUE(tasks.isOk());
    EXPECT_FALSE(tasks.value().strings.empty());

    // Windowed types are refused by the static path.
    EXPECT_FALSE(monitor
                     .collectStatic(proto::MeasurementType::CpuMeasure,
                                    dom)
                     .isOk());
    // Unknown domain.
    EXPECT_FALSE(monitor
                     .collectStatic(proto::MeasurementType::TaskListVmi,
                                    9999)
                     .isOk());
}

TEST(MonitorModuleTest, WindowedCollectionWritesTers)
{
    ServerFixture f;
    MonitorModule &monitor = f.host->monitorModule();
    const auto dom = f.host->domainOf(f.vid);
    f.host->hypervisor().setBehavior(
        dom, 0, std::make_unique<workloads::SpinnerProgram>());

    monitor.beginWindow(dom, f.cloud.events().now());
    f.cloud.runFor(seconds(3));
    auto cpu = monitor.finishWindow(proto::MeasurementType::CpuMeasure,
                                    dom, f.cloud.events().now());
    ASSERT_TRUE(cpu.isOk());
    ASSERT_EQ(cpu.value().values.size(), 1u);
    EXPECT_NEAR(toSeconds(static_cast<SimTime>(cpu.value().values[0])),
                3.0, 0.3);
    EXPECT_EQ(cpu.value().windowLength, seconds(3));

    // The value round-tripped through a Trust Evidence Register bank.
    const std::string bank = MonitorModule::bankName(
        proto::MeasurementType::CpuMeasure, dom);
    EXPECT_TRUE(f.host->trustModule().hasBank(bank));
    EXPECT_EQ(f.host->trustModule().readRegister(bank, 0),
              cpu.value().values[0]);
}

} // namespace
} // namespace monatt::server
