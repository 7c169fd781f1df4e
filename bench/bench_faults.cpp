/**
 * @file
 * Reliability under injected faults: attestation success rate, p50/p99
 * end-to-end latency and retry/failover activity across a drop-rate
 * sweep (with a mid-protocol Attestation Server crash at the higher
 * rates). The drop = 0 point is the clean wire, where every request
 * must verify; tests/core/clean_wire_test.cpp checks that no timer
 * fires there.
 *
 * The paper's protocols assume a reliable fabric; this bench
 * characterizes the reliability layer this reproduction adds on top:
 * retransmission with exponential backoff, receive-side dedup, AS
 * failover and terminal verdicts (no request ever hangs).
 *
 * A second leg exercises the TCB-rollback response path: with a
 * minimum-TCB floor armed and the fault plane downgrading part of the
 * fleet, it reports detection latency (attestation issue to the
 * customer receiving a TcbRollback verdict) and how many completed
 * migrations each rolled-back host triggers. Both are simulated,
 * deterministic metrics, gated by scripts/check_bench_regression.py.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/cloud.h"
#include "sim/fault_plan.h"
#include "sim/rollback_faults.h"

using namespace monatt;
using namespace monatt::core;

namespace
{

struct SweepPoint
{
    double drop = 0;
    bool crash = false;
    std::size_t ok = 0;
    std::size_t settled = 0;
    std::size_t total = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    std::uint64_t forwardRetries = 0;
    std::uint64_t failovers = 0;
    std::uint64_t unreachable = 0;
    double simSeconds = 0;
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

CloudConfig
baseConfig()
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.numAttestationServers = 2;
    cfg.seed = 99173;
    return cfg;
}

/** Launch 5 VMs fault-free, then fan out `requests` attestations
 * under the given drop rate (and optional AS crash). */
SweepPoint
runSweepPoint(double drop, bool crash, int requests)
{
    Cloud cloud(baseConfig());
    Customer &customer = cloud.addCustomer("bench-customer");

    std::vector<std::string> vids;
    for (int i = 0; i < 5; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        if (!vid.isOk())
            throw std::runtime_error(vid.errorMessage());
        vids.push_back(vid.take());
    }

    sim::FaultPlanConfig plan;
    plan.seed = 0xFA57;
    plan.faults.dropProbability = drop;
    plan.activeFrom = cloud.events().now();
    if (crash) {
        plan.crashes.push_back(sim::CrashEvent{
            "attestation-server", cloud.events().now() + msec(800),
            cloud.events().now() + seconds(12)});
    }
    cloud.installFaultPlan(plan);

    std::vector<std::string> many;
    many.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i)
        many.push_back(vids[static_cast<std::size_t>(i) % vids.size()]);

    const SimTime issuedAt = cloud.events().now();
    auto results = cloud.attestMany(customer, many,
                                    proto::allProperties(), seconds(600));

    SweepPoint point;
    point.drop = drop;
    point.crash = crash;
    point.total = results.size();
    std::vector<double> latenciesMs;
    for (auto &r : results) {
        if (r.isOk()) {
            ++point.ok;
            ++point.settled;
            latenciesMs.push_back(
                1e3 * toSeconds(r.value().receivedAt - issuedAt));
        } else {
            point.settled += r.errorMessage() != "attestation timed out";
        }
    }
    point.p50Ms = percentile(latenciesMs, 0.50);
    point.p99Ms = percentile(latenciesMs, 0.99);
    point.forwardRetries = cloud.controller().stats().forwardRetries;
    point.failovers = cloud.controller().stats().failovers;
    point.unreachable = cloud.controller().stats().attestationsUnreachable;
    point.simSeconds = toSeconds(cloud.events().now());
    return point;
}

/** Outcome of the TCB-rollback response leg. */
struct RollbackLeg
{
    std::size_t requests = 0;
    std::size_t flagged = 0;        //!< Reports carrying TcbRollback.
    std::size_t rolledServers = 0;  //!< Hosts the plan downgraded.
    std::size_t migrations = 0;     //!< Completed+succeeded migrations.
    std::uint64_t verdicts = 0;     //!< AS-side TcbRollback verdicts.
    double detectP50Ms = 0;
    double detectP99Ms = 0;
    double migrationsPerRollback = 0;
    double simSeconds = 0;
};

/**
 * Launch one VM per server under a minimum-TCB floor, roll back part
 * of the fleet, attest everything and let the controller migrate the
 * victims off the quarantined hosts.
 */
RollbackLeg
runRollbackLeg()
{
    CloudConfig cfg = baseConfig();
    cfg.numServers = 6;
    cfg.seed = 99174;
    cfg.minimumTcbVersion = 2;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("bench-customer");

    std::vector<std::string> vids;
    for (int i = 0; i < cfg.numServers; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        if (!vid.isOk())
            throw std::runtime_error(vid.errorMessage());
        vids.push_back(vid.take());
    }

    sim::FaultPlanConfig plan;
    plan.seed = 0x7CBB;
    plan.rollback.rollbackProbability = 0.4;
    plan.rollback.rollbackVersion = 1;
    plan.activeFrom = cloud.events().now();
    cloud.installFaultPlan(plan);

    // The verdicts are a pure function of (plan seed, node id), so the
    // bench can count the downgraded hosts without peeking at state.
    RollbackLeg leg;
    const sim::RollbackFaultModel model(plan.seed, plan.rollback);
    for (int i = 1; i <= cfg.numServers; ++i)
        leg.rolledServers +=
            model.rollsBack("server-" + std::to_string(i));

    const SimTime issuedAt = cloud.events().now();
    auto results = cloud.attestMany(customer, vids,
                                    proto::allProperties(), seconds(600));
    leg.requests = results.size();
    std::vector<double> detectMs;
    for (auto &r : results) {
        if (!r.isOk())
            continue;
        bool rolled = false;
        for (const auto &pr : r.value().report.results)
            rolled |= pr.status == proto::HealthStatus::TcbRollback;
        if (rolled) {
            ++leg.flagged;
            detectMs.push_back(
                1e3 * toSeconds(r.value().receivedAt - issuedAt));
        }
    }
    leg.detectP50Ms = percentile(detectMs, 0.50);
    leg.detectP99Ms = percentile(detectMs, 0.99);

    // Drain the response plane: every flagged VM must finish its
    // forced migration off the quarantined host.
    cloud.runFor(seconds(60));
    for (const auto &rec : cloud.controller().responseLog())
        leg.migrations += rec.action == controller::ResponsePolicy::Migrate &&
                          rec.completed && rec.succeeded;
    for (std::size_t i = 0; i < cloud.numAttestationServers(); ++i)
        leg.verdicts += cloud.attestationServer(i).stats().tcbRollbackVerdicts;
    leg.migrationsPerRollback =
        leg.rolledServers > 0
            ? static_cast<double>(leg.migrations) /
                  static_cast<double>(leg.rolledServers)
            : 0;
    leg.simSeconds = toSeconds(cloud.events().now());
    return leg;
}

bool
writeFaultsJson(const std::string &path,
                const std::vector<SweepPoint> &sweep,
                const RollbackLeg &rollback)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n  \"benchmark\": \"faults\",\n  \"sweep\": [\n");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const SweepPoint &p = sweep[i];
        std::fprintf(
            f,
            "    {\"drop\": %.2f, \"crash\": %s, \"requests\": %zu, "
            "\"ok\": %zu, \"settled\": %zu, \"success_rate\": %.4f, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"forward_retries\": %llu, \"failovers\": %llu, "
            "\"unreachable\": %llu}%s\n",
            p.drop, p.crash ? "true" : "false", p.total, p.ok, p.settled,
            p.total > 0
                ? static_cast<double>(p.ok) / static_cast<double>(p.total)
                : 0,
            p.p50Ms, p.p99Ms,
            static_cast<unsigned long long>(p.forwardRetries),
            static_cast<unsigned long long>(p.failovers),
            static_cast<unsigned long long>(p.unreachable),
            i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(
        f,
        "  ],\n"
        "  \"rollback\": {\n"
        "    \"requests\": %zu, \"flagged\": %zu, "
        "\"rolled_servers\": %zu,\n"
        "    \"migrations_completed\": %zu, \"as_verdicts\": %llu,\n"
        "    \"sim_detect_p50_ms\": %.3f, \"sim_detect_p99_ms\": %.3f,\n"
        "    \"migrations_per_rollback\": %.4f,\n"
        "    \"sim_seconds\": %.6f\n"
        "  },\n"
        "  \"metadata\": %s\n"
        "}\n",
        rollback.requests, rollback.flagged, rollback.rolledServers,
        rollback.migrations,
        static_cast<unsigned long long>(rollback.verdicts),
        rollback.detectP50Ms, rollback.detectP99Ms,
        rollback.migrationsPerRollback, rollback.simSeconds,
        bench::metadataJson().c_str());
    std::fclose(f);
    return true;
}

} // namespace

int
main()
{
    bench::banner(
        "Reliability sweep",
        "Attestation success rate and latency under injected loss "
        "(50 concurrent requests,\n5 VMs, 2 AS clusters; AS crash + "
        "failover at drop >= 10%).");

    const int requests = 50;
    const std::vector<double> drops = {0.0, 0.01, 0.05, 0.1, 0.3};
    std::vector<SweepPoint> sweep;
    bench::row("drop", {"success", "p50 ms", "p99 ms", "retries",
                        "failovers", "unreach"},
               10, 10);
    bool shapeOk = true;
    for (const double drop : drops) {
        const bool crash = drop >= 0.1;
        SweepPoint p = runSweepPoint(drop, crash, requests);
        sweep.push_back(p);
        bench::row(
            bench::fmt("%.0f%%", 100 * drop) + (crash ? " +crash" : ""),
            {bench::fmt("%.0f%%",
                        100.0 * static_cast<double>(p.ok) /
                            static_cast<double>(p.total)),
             bench::fmt("%.1f", p.p50Ms), bench::fmt("%.1f", p.p99Ms),
             std::to_string(p.forwardRetries),
             std::to_string(p.failovers), std::to_string(p.unreachable)},
            10, 10);
        // Every request must reach a terminal verdict, and a clean
        // wire must lose nothing.
        shapeOk &= p.settled == p.total;
        if (drop == 0.0)
            shapeOk &= p.ok == p.total;
    }

    // TCB-rollback response leg: detection latency and migration
    // yield when part of the fleet boots downgraded firmware.
    std::printf("\nTCB rollback response (6 servers, 40%% rolled back, "
                "floor = 2):\n");
    const RollbackLeg rollback = runRollbackLeg();
    std::printf("  rolled-back hosts: %zu of 6, flagged reports: %zu/%zu, "
                "AS verdicts: %llu\n",
                rollback.rolledServers, rollback.flagged,
                rollback.requests,
                static_cast<unsigned long long>(rollback.verdicts));
    std::printf("  detection latency: p50 %.1f ms, p99 %.1f ms\n",
                rollback.detectP50Ms, rollback.detectP99Ms);
    std::printf("  completed migrations: %zu (%.2f per rolled host)\n",
                rollback.migrations, rollback.migrationsPerRollback);
    // The plan must actually roll hosts back, every victim must be
    // detected, and each quarantined host must shed its VMs.
    shapeOk &= rollback.rolledServers > 0;
    shapeOk &= rollback.flagged > 0;
    shapeOk &= rollback.verdicts > 0;
    shapeOk &= rollback.migrations >= rollback.flagged;

    if (!writeFaultsJson("BENCH_faults.json", sweep, rollback))
        std::printf("\n(could not write BENCH_faults.json)\n");
    else
        std::printf("\nwrote BENCH_faults.json\n");

    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");
    return shapeOk ? 0 : 1;
}
