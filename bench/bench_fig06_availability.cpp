/**
 * @file
 * Figure 6: "Performance for CPU Availability Attacks" — relative
 * execution time of the victim's programs (bzip2, hmmer, astar)
 * against co-runner scenarios: Idle, the six cloud services, and the
 * CPU availability attack (CPU_avail).
 *
 * Expected shape (paper): I/O-bound neighbors ~1x, CPU-bound
 * neighbors ~2x (fair share), CPU_avail attack >10x.
 */

#include <cstdio>

#include "bench_util.h"
#include "hypervisor/hypervisor.h"
#include "sim/event_queue.h"
#include "workloads/attacks.h"
#include "workloads/programs.h"
#include "workloads/services.h"

using namespace monatt;
using namespace monatt::workloads;

namespace
{

double
runScenario(const std::string &scenario, SimTime victimWork)
{
    sim::EventQueue events;
    hypervisor::HypervisorConfig cfg;
    cfg.numPCpus = 1; // Attacker and victim share one CPU.
    cfg.hypervisorCode = toBytes("xen");
    cfg.hostOsCode = toBytes("dom0");
    hypervisor::Hypervisor hv(events, cfg);
    tpm::TpmEmulator tpm;
    hv.boot(tpm);

    const auto victim = hv.createDomain("victim", 1, 0, toBytes("v"));
    SimTime completedAt = -1;
    hv.setBehavior(victim, 0,
                   std::make_unique<CpuBoundProgram>(
                       victimWork,
                       [&](SimTime t) { completedAt = t; }));

    if (scenario == "idle") {
        const auto dom = hv.createDomain("idle", 1, 0, toBytes("i"));
        hv.setBehavior(dom, 0, std::make_unique<IdleProgram>());
    } else if (scenario == "cpu_avail") {
        const auto dom = hv.createDomain("attacker", 2, 0, toBytes("a"));
        installAvailabilityAttack(hv, dom);
    } else {
        const auto dom = hv.createDomain(scenario, 1, 0, toBytes("s"));
        hv.setBehavior(dom, 0, makeService(scenario));
    }

    events.run(seconds(180));
    if (completedAt < 0)
        return -1.0;
    return toSeconds(completedAt) / toSeconds(victimWork);
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 6",
        "Relative execution time of victim programs vs co-runner "
        "scenario.\nBaseline = solo runtime on the shared CPU.");

    const std::vector<std::string> scenarios = {
        "idle", "database", "file", "web",
        "app",  "stream",   "mail", "cpu_avail",
    };

    std::vector<std::string> header;
    for (const auto &s : scenarios)
        header.push_back(s);
    bench::row("victim \\ neighbor", header, 18, 9);

    bool shapeOk = true;
    for (const auto &victim : victimPrograms()) {
        std::vector<std::string> cells;
        for (const auto &scenario : scenarios) {
            const double rel = runScenario(scenario, victim.cpuDemand);
            cells.push_back(rel < 0 ? "timeout"
                                    : bench::fmt("%.2fx", rel));
            if (scenario == "idle")
                shapeOk &= rel < 1.1;
            if (scenario == "file" || scenario == "stream" ||
                scenario == "mail") {
                shapeOk &= rel < 1.3;
            }
            if (scenario == "database" || scenario == "web" ||
                scenario == "app") {
                shapeOk &= rel > 1.5 && rel < 2.8;
            }
            if (scenario == "cpu_avail")
                shapeOk &= rel > 10.0;
        }
        bench::row(victim.name, cells, 18, 9);
    }

    std::printf("\nexpected shape: idle/IO-bound ~1x, CPU-bound ~2x "
                "(fair share), CPU_avail >10x\n");
    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");
    return shapeOk ? 0 : 1;
}
