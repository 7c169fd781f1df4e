/**
 * @file
 * Replicated control plane: what leader failover costs and buys.
 *
 * Two experiments on the same workload (4 servers, 4 VMs, a 16-wide
 * runtime-attestation fan-out):
 *
 *  - Clean wire A/B: controllerReplicas 1 vs 3 with no faults. The
 *    replicated leg pays majority-commit gating (every externally
 *    visible send waits for one follower round-trip), so its simulated
 *    makespan quantifies the steady-state price of fault tolerance.
 *
 *  - Leader kill mid-fan-out: with one replica the shard is simply
 *    gone until the node restarts (journal replay on restart); with
 *    three replicas a follower is elected and answers while the old
 *    leader is still dark. Reports simulated makespan until every
 *    request is verified, plus who leads afterwards.
 *
 * Emits BENCH_failover.json with both experiments and the run
 * metadata block; simulated metrics are deterministic and gated by
 * scripts/check_bench_regression.py in CI.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cloud.h"

using namespace monatt;
using namespace monatt::core;

namespace
{

struct Leg
{
    int replicas = 0;
    int attests = 0;
    int verified = 0;
    double simMakespanSec = 0;
    double attestationsPerSimSec = 0;
    double wallSeconds = 0;
    std::string leader;         //!< Shard leader when the leg ends.
    std::uint64_t round = 0;    //!< Its election round.
    bool recordsIntact = false; //!< Every VmRecord reachable at the end.
};

CloudConfig
baseConfig(int replicas)
{
    CloudConfig cfg;
    cfg.numServers = 4;
    cfg.numAttestationServers = 2;
    cfg.seed = 20260808;
    cfg.controllerShards = 1;
    cfg.controllerReplicas = replicas;
    return cfg;
}

/** Launch 4 VMs, warm one attest round, then run the 16-wide fan-out;
 * optionally crash the shard leader shortly into the fan-out. */
Leg
runLeg(int replicas, bool killLeader, SimTime deadFor)
{
    Cloud cloud(baseConfig(replicas));
    Customer &customer = cloud.addCustomer("bench-customer");

    std::vector<std::string> vids;
    for (int i = 0; i < 4; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        if (!vid.isOk())
            throw std::runtime_error(vid.errorMessage());
        vids.push_back(vid.take());
    }
    for (auto &r :
         cloud.attestMany(customer, vids, proto::allProperties())) {
        if (!r.isOk())
            throw std::runtime_error(r.errorMessage());
    }

    if (killLeader) {
        sim::FaultPlanConfig plan;
        plan.seed = 0xFA110;
        const SimTime crashAt = cloud.events().now() + msec(300);
        plan.crashes.push_back(sim::CrashEvent{
            "cloud-controller", crashAt, crashAt + deadFor});
        cloud.installFaultPlan(plan);
    }

    std::vector<std::string> many;
    for (int i = 0; i < 16; ++i)
        many.push_back(vids[static_cast<std::size_t>(i) % vids.size()]);

    bench::WallTimer timer;
    const SimTime t0 = cloud.events().now();
    Leg leg;
    leg.replicas = replicas;
    for (auto &r : cloud.attestMany(customer, many,
                                    proto::allProperties(),
                                    seconds(600))) {
        ++leg.attests;
        leg.verified += r.isOk();
    }
    leg.simMakespanSec =
        static_cast<double>(cloud.events().now() - t0) / 1e6;
    leg.attestationsPerSimSec =
        leg.simMakespanSec > 0 ? leg.attests / leg.simMakespanSec : 0;
    leg.wallSeconds = timer.elapsedSeconds();

    auto &fab = cloud.controllerFabric();
    leg.leader = fab.leaderOf(0).id();
    leg.round = fab.leaderOf(0).electionRound();
    leg.recordsIntact = true;
    for (const std::string &vid : vids)
        leg.recordsIntact &= fab.ownerOf(vid).database().vm(vid) != nullptr;
    return leg;
}

void
printLeg(const char *name, const Leg &leg)
{
    bench::row(name,
               {std::to_string(leg.replicas),
                std::to_string(leg.verified) + "/" +
                    std::to_string(leg.attests),
                bench::fmt("%.3f", leg.simMakespanSec),
                bench::fmt("%.1f", leg.attestationsPerSimSec),
                leg.leader + " r" + std::to_string(leg.round),
                leg.recordsIntact ? "yes" : "NO"},
               18, 14);
}

void
legJson(std::FILE *f, const char *key, const Leg &leg, bool last)
{
    std::fprintf(
        f,
        "    \"%s\": {\"replicas\": %d, \"attests\": %d, "
        "\"verified\": %d, \"sim_makespan_sec\": %.6f, "
        "\"attestations_per_sim_sec\": %.2f, \"wall_seconds\": %.6f, "
        "\"leader\": \"%s\", \"round\": %llu, \"records_intact\": "
        "%s}%s\n",
        key, leg.replicas, leg.attests, leg.verified, leg.simMakespanSec,
        leg.attestationsPerSimSec, leg.wallSeconds, leg.leader.c_str(),
        static_cast<unsigned long long>(leg.round),
        leg.recordsIntact ? "true" : "false", last ? "" : ",");
}

} // namespace

int
main()
{
    bench::banner(
        "Controller replication & failover",
        "Clean-wire cost of majority-commit replication (replicas 1 vs "
        "3) and the\nmakespan of a 16-wide attestation fan-out when the "
        "shard leader is killed\nmid-flight: journal-replay restart "
        "(replicas=1) vs leader election (replicas=3).");

    bench::row("leg", {"replicas", "verified", "sim makespan s",
                       "attests/sim s", "leader", "intact"},
               18, 14);

    // Clean wire: the price of replication when nothing fails.
    const Leg clean1 = runLeg(1, /*killLeader=*/false, 0);
    printLeg("clean", clean1);
    const Leg clean3 = runLeg(3, /*killLeader=*/false, 0);
    printLeg("clean", clean3);

    // Leader killed mid-fan-out, dark for 60 s either way. With one
    // replica the only path back is the node's own restart + journal
    // replay; with three, a follower takes over within the election
    // timeout and answers while the old leader is still dark.
    const Leg kill1 = runLeg(1, /*killLeader=*/true, seconds(60));
    printLeg("leader kill", kill1);
    const Leg kill3 = runLeg(3, /*killLeader=*/true, seconds(60));
    printLeg("leader kill", kill3);

    const double overhead =
        clean1.simMakespanSec > 0
            ? (clean3.simMakespanSec - clean1.simMakespanSec) /
                  clean1.simMakespanSec
            : 0;
    std::printf("\nclean-wire replication overhead: %.1f%% simulated "
                "makespan\n",
                100.0 * overhead);
    std::printf("leader kill (60 s outage): replicas=1 settles in %.3f "
                "s (restart + replay), replicas=3 in %.3f s "
                "(election)\n",
                kill1.simMakespanSec, kill3.simMakespanSec);

    bool shapeOk = true;
    for (const Leg *leg : {&clean1, &clean3, &kill1, &kill3}) {
        shapeOk &= leg->verified == leg->attests;
        shapeOk &= leg->recordsIntact;
    }
    // The replicated group must survive without the crashed node: its
    // leadership moved past the bootstrap round to a replica.
    shapeOk &= kill3.round >= 2;
    shapeOk &= kill3.leader != "cloud-controller";

    std::FILE *f = std::fopen("BENCH_failover.json", "w");
    if (f != nullptr) {
        std::fprintf(f, "{\n  \"benchmark\": \"bench_failover\",\n"
                        "  \"workload\": \"16-wide attestMany fan-out, "
                        "1 shard, 4 VMs\",\n  \"legs\": {\n");
        legJson(f, "clean_replicas1", clean1, false);
        legJson(f, "clean_replicas3", clean3, false);
        legJson(f, "kill_replicas1_restart", kill1, false);
        legJson(f, "kill_replicas3_election", kill3, true);
        std::fprintf(f,
                     "  },\n  \"clean_sim_overhead\": %.4f,\n"
                     "  \"metadata\": %s\n}\n",
                     overhead, bench::metadataJson().c_str());
        std::fclose(f);
        std::printf("\nwrote BENCH_failover.json\n");
    } else {
        std::printf("\n(could not write BENCH_failover.json)\n");
    }

    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");
    return shapeOk ? 0 : 1;
}
