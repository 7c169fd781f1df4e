/**
 * @file
 * Control-plane sharding throughput.
 *
 * The Cloud Controller is a finite-capacity node: each shard services
 * attestation traffic through a busy-cursor queue, so a concurrent
 * fan-out serializes behind one shard but spreads across many. This
 * bench sweeps shard count x deployment size over the same workload —
 * concurrent runtime attestations of every VM, one fan-out round —
 * and reports *simulated* attestation throughput: total attestations
 * divided by the simulated makespan of the fan-out. Host wall-clock is
 * recorded per cell for reference.
 *
 * Emits BENCH_shards.json: the sweep matrix, an A/B record (1 shard vs
 * 4 shards at the largest deployment; acceptance floor 2x), and the
 * run metadata block. Report digests are included per cell — cells
 * with equal shard count must agree bit-for-bit regardless of the
 * host's thread count.
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cloud.h"
#include "crypto/sha256.h"

using namespace monatt;
using namespace monatt::core;

namespace
{

struct Cell
{
    int shards = 0;
    int servers = 0;
    int attests = 0;
    double simMakespanSec = 0;
    double attestationsPerSimSec = 0;
    double wallSeconds = 0;
    std::string digest;
};

Cell
runCell(int shards, int servers, int vmsPerServer, int fanout)
{
    CloudConfig cfg;
    cfg.numServers = servers;
    cfg.numAttestationServers = 2;
    cfg.seed = 20260806;
    cfg.controllerShards = shards;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("bench-customer");

    std::vector<std::string> vids;
    for (int i = 0; i < servers * vmsPerServer; ++i) {
        auto vid = cloud.launchVm(customer, "vm-" + std::to_string(i),
                                  "cirros", "small",
                                  proto::allProperties());
        if (!vid.isOk())
            throw std::runtime_error(vid.errorMessage());
        vids.push_back(vid.take());
    }

    const std::vector<proto::SecurityProperty> props =
        proto::allProperties();

    // Warm-up round: AVK sessions and verification caches populated,
    // so the timed fan-out measures steady-state service capacity.
    for (auto &r : cloud.attestMany(customer, vids, props)) {
        if (!r.isOk())
            throw std::runtime_error(r.errorMessage());
    }

    // Each VM is attested `fanout` times, all concurrently:
    // the control plane sees far more requests in flight than the
    // per-request pipeline latency can hide, so the makespan tracks
    // the controllers' aggregate service capacity.
    std::vector<std::string> many;
    for (int rep = 0; rep < fanout; ++rep)
        many.insert(many.end(), vids.begin(), vids.end());

    crypto::Sha256 digest;
    bench::WallTimer timer;
    const SimTime t0 = cloud.events().now();
    int attests = 0;
    for (auto &r : cloud.attestMany(customer, many, props)) {
        if (!r.isOk())
            throw std::runtime_error(r.errorMessage());
        digest.update(r.value().report.encode());
        ++attests;
    }

    Cell cell;
    cell.shards = shards;
    cell.servers = servers;
    cell.attests = attests;
    cell.simMakespanSec =
        static_cast<double>(cloud.events().now() - t0) / 1e6;
    cell.attestationsPerSimSec =
        cell.simMakespanSec > 0 ? attests / cell.simMakespanSec : 0;
    cell.wallSeconds = timer.elapsedSeconds();
    cell.digest = toHex(digest.digest());
    return cell;
}

bool
writeJson(const std::string &path, const std::vector<Cell> &cells,
          const Cell &before, const Cell &after)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double speedup =
        before.simMakespanSec > 0 && after.simMakespanSec > 0
            ? before.simMakespanSec / after.simMakespanSec
            : 0;
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"bench_shards\",\n"
                 "  \"workload\": \"attestMany x1 rounds over every "
                 "VM, simulated makespan\",\n"
                 "  \"sweep\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        std::fprintf(f,
                     "    {\"shards\": %d, \"servers\": %d, "
                     "\"attests\": %d, \"sim_makespan_sec\": %.6f, "
                     "\"attestations_per_sim_sec\": %.2f, "
                     "\"wall_seconds\": %.6f, \"digest\": \"%s\"}%s\n",
                     c.shards, c.servers, c.attests, c.simMakespanSec,
                     c.attestationsPerSimSec, c.wallSeconds,
                     c.digest.c_str(),
                     i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"before\": {\"engine\": \"shards=1\", "
                 "\"servers\": %d, \"sim_makespan_sec\": %.6f},\n"
                 "  \"after\": {\"engine\": \"shards=4\", "
                 "\"servers\": %d, \"sim_makespan_sec\": %.6f},\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"metadata\": %s\n"
                 "}\n",
                 before.servers, before.simMakespanSec, after.servers,
                 after.simMakespanSec, speedup,
                 bench::metadataJson().c_str());
    std::fclose(f);
    return true;
}

} // namespace

int
main()
{
    bench::banner(
        "Control-plane sharding",
        "Simulated attestation throughput as the controller splits "
        "into consistent-hash\nshards; each shard is a finite-capacity "
        "service queue, so a concurrent fan-out\nscales with the shard "
        "count.");

    const int vmsPerServer = 3;
    const int fanout = 3;
    const std::vector<int> shardCounts = {1, 2, 4, 8};
    const std::vector<int> serverCounts = {4, 8};

    std::vector<Cell> cells;
    std::printf("\n%-10s", "servers");
    for (int s : shardCounts)
        std::printf(" %11s", ("shards=" + std::to_string(s)).c_str());
    std::printf("   (attestations/sim-sec)\n");

    for (int servers : serverCounts) {
        std::vector<std::string> row;
        for (int shards : shardCounts) {
            Cell cell = runCell(shards, servers, vmsPerServer, fanout);
            row.push_back(
                bench::fmt("%.1f", cell.attestationsPerSimSec));
            cells.push_back(std::move(cell));
        }
        bench::row(std::to_string(servers), row, 10, 11);
    }

    const Cell *before = nullptr;
    const Cell *after = nullptr;
    for (const Cell &c : cells) {
        if (c.servers != serverCounts.back())
            continue;
        if (c.shards == 1)
            before = &c;
        if (c.shards == 4)
            after = &c;
    }
    if (before == nullptr || after == nullptr)
        return 1;

    const double speedup = after->simMakespanSec > 0
                               ? before->simMakespanSec /
                                     after->simMakespanSec
                               : 0;
    std::printf("\nspeedup at %d servers: %.2fx simulated makespan "
                "(shards=1 -> shards=4)\n",
                serverCounts.back(), speedup);
    std::printf("\nexpected shape: makespan shrinks roughly with the "
                "shard count until the\nper-request pipeline latency "
                "(measurement, signing, verification) dominates\n");

    if (!writeJson("BENCH_shards.json", cells, *before, *after))
        return 1;
    std::printf("wrote BENCH_shards.json\n");
    return speedup >= 2.0 ? 0 : 2;
}
