/**
 * @file
 * A clean wire resends nothing. Every Table 1 API (startup, runtime
 * one-shot, periodic and stop) runs on a loss-free fabric with the
 * reliability layer armed, across controller shards, replica groups
 * and AIK reuse limits. Window-free requests (about 0.5 s simulated)
 * go first so each hop's RTT estimate learns the short round trip;
 * windowed ones (about 2.5 s) and mixed ones follow on the same AS.
 * No hop may time out: no resend, no duplicate, no failover, no
 * Unreachable or failed verdict.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>

#include "core/cloud.h"

namespace monatt::core
{
namespace
{

using proto::SecurityProperty;

/** Fixed CPU bursts: both windowed monitors judge this guest healthy
 * (an idle guest leaves them nothing to measure). */
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

struct Shape
{
    int shards;
    int replicas;
    std::uint64_t aikReuseLimit;
};

std::string
shapeName(const ::testing::TestParamInfo<Shape> &info)
{
    return std::to_string(info.param.shards) + "shards_" +
           std::to_string(info.param.replicas) + "replicas_aik" +
           std::to_string(info.param.aikReuseLimit);
}

class CleanWireTest : public ::testing::TestWithParam<Shape>
{
};

TEST_P(CleanWireTest, NoHopResendsAndEveryRequestVerifies)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.controllerShards = GetParam().shards;
    cfg.controllerReplicas = GetParam().replicas;
    cfg.aikReuseLimit = GetParam().aikReuseLimit;
    Cloud cloud(cfg);

    // A passive tap: hellos per directed pair (the endpoint hop) and
    // records sent to the pCA (one per CertRequest, the cert hop).
    std::map<std::pair<std::string, std::string>, int> hellos;
    std::uint64_t certRequestsSent = 0;
    cloud.network().setAdversary(
        [&](const net::Envelope &env) -> std::optional<net::Envelope> {
            if (env.channel == "ssl-hello")
                ++hellos[{env.src, env.dst}];
            else if (env.channel == "data-out" &&
                     env.dst == cloud.privacyCa().id())
                ++certRequestsSent;
            return env;
        });

    Customer &alice = cloud.addCustomer("alice");
    std::vector<std::string> vids;
    for (int i = 0; i < 6; ++i) {
        auto vid = cloud.launchVm(alice, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
        server::CloudServer *host = cloud.serverHosting(vid.value());
        host->hypervisor().setBehavior(host->domainOf(vid.value()), 0,
                                       std::make_unique<SteadyGuest>());
        vids.push_back(vid.value());
    }

    const std::vector<SecurityProperty> windowFree = {
        SecurityProperty::RuntimeIntegrity,
        SecurityProperty::AuditLogIntegrity};
    const std::vector<SecurityProperty> windowed = {
        SecurityProperty::CovertChannelFreedom};
    const std::vector<SecurityProperty> mixed = {
        SecurityProperty::StartupIntegrity,
        SecurityProperty::CpuAvailability,
        SecurityProperty::RuntimeIntegrity};
    const std::vector<std::vector<SecurityProperty>> rounds[] = {
        {windowFree},
        {windowFree, windowed},
        {windowed, mixed, windowFree},
        {proto::allProperties(), windowFree, windowed},
    };

    // One request per VM in flight at a time: a VM keeps one
    // measurement window, and overlapping requests cut it short.
    std::vector<std::uint64_t> oneShots;
    for (const auto &sets : rounds) {
        const std::size_t first = oneShots.size();
        for (std::size_t i = 0; i < vids.size(); ++i) {
            const auto &props = sets[i % sets.size()];
            oneShots.push_back(
                i % 3 == 2 ? alice.startupAttestCurrent(vids[i], props)
                           : alice.runtimeAttestCurrent(vids[i], props));
        }
        ASSERT_TRUE(cloud.runUntil(
            [&] {
                for (std::size_t k = first; k < oneShots.size(); ++k)
                    if (alice.outcomeFor(oneShots[k]).state ==
                        AttestationOutcome::Pending)
                        return false;
                return true;
            },
            seconds(120)));
    }

    // Periodic streams beside each other on the same AS: fixed and
    // random periods, windowed and window-free, then stop them.
    const std::uint64_t fixed =
        alice.runtimeAttestPeriodic(vids[0], windowed, seconds(4));
    const std::uint64_t random =
        alice.runtimeAttestPeriodic(vids[1], windowFree, 0);
    const std::uint64_t mixedStream =
        alice.runtimeAttestPeriodic(vids[2], mixed, seconds(3));
    cloud.runFor(seconds(20));
    alice.stopAttestPeriodic(vids[0], windowed);
    alice.stopAttestPeriodic(vids[1], windowFree);
    alice.stopAttestPeriodic(vids[2], mixed);
    cloud.runFor(seconds(30));
    const std::size_t fixedReports = alice.reportsFor(fixed).size();
    EXPECT_GE(fixedReports, 3u);
    EXPECT_GE(alice.reportsFor(random).size(), 1u);
    EXPECT_GE(alice.reportsFor(mixedStream).size(), 3u);
    cloud.runFor(seconds(30));
    EXPECT_EQ(alice.reportsFor(fixed).size(), fixedReports)
        << "the stopped stream kept reporting";

    for (std::uint64_t id : oneShots) {
        const AttestOutcomeRecord outcome = alice.outcomeFor(id);
        EXPECT_EQ(outcome.state, AttestationOutcome::Verified)
            << "request " << id << ": " << outcome.reason;
    }
    for (const VerifiedReport &r : alice.reports())
        EXPECT_TRUE(r.report.allHealthy()) << "request " << r.requestId;

    // Customer -> controller.
    EXPECT_EQ(alice.stats().requestRetries, 0u);
    EXPECT_EQ(alice.stats().requestsUnreachable, 0u);
    EXPECT_EQ(alice.stats().requestsFailed, 0u);
    // Controller -> AS.
    const controller::ControllerStats cs =
        cloud.controllerFabric().aggregateStats();
    EXPECT_EQ(cs.forwardRetries, 0u);
    EXPECT_EQ(cs.failovers, 0u);
    EXPECT_EQ(cs.attestationsUnreachable, 0u);
    EXPECT_EQ(cs.duplicateAttestRequests, 0u);
    // AS -> server.
    const attestation::AttestationServerStats as =
        cloud.attestationServer().stats();
    EXPECT_EQ(as.measureRetries, 0u);
    EXPECT_EQ(as.measureTimeouts, 0u);
    EXPECT_EQ(as.duplicateForwards, 0u);
    // Server -> pCA: one CertRequest per certificate issued.
    EXPECT_GT(cloud.privacyCa().issued(), 0u);
    EXPECT_EQ(certRequestsSent, cloud.privacyCa().issued());
    // Every secure channel handshook once.
    for (const auto &[pair, count] : hellos)
        EXPECT_EQ(count, 1) << pair.first << " -> " << pair.second;
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, CleanWireTest,
    ::testing::Values(Shape{1, 1, 1}, Shape{1, 1, 16}, Shape{1, 3, 1},
                      Shape{1, 3, 16}, Shape{2, 1, 1}, Shape{2, 1, 16},
                      Shape{2, 3, 1}, Shape{2, 3, 16}),
    shapeName);

} // namespace
} // namespace monatt::core
