/**
 * @file
 * Figure 7: "Measurements of CPU Availability Vulnerability" —
 * relative CPU usage of attacker and victim under each co-runner
 * scenario, as the VMM Profile Tool measures it and the Availability
 * Property Interpretation (§4.5.3) appraises it.
 */

#include <cstdio>

#include "attestation/interpreters.h"
#include "bench_util.h"
#include "hypervisor/hypervisor.h"
#include "server/monitor_module.h"
#include "sim/event_queue.h"
#include "tpm/trust_module.h"
#include "workloads/attacks.h"
#include "workloads/programs.h"
#include "workloads/services.h"

using namespace monatt;
using namespace monatt::workloads;

namespace
{

struct UsageResult
{
    double attackerShare = 0;
    double victimShare = 0;
    proto::HealthStatus verdict = proto::HealthStatus::Unknown;
};

UsageResult
runScenario(const std::string &scenario)
{
    sim::EventQueue events;
    Rng keyRng(7);
    tpm::TrustModule tm(crypto::rsaGenerateKeyPair(512, keyRng),
                        toBytes("seed"));
    hypervisor::HypervisorConfig cfg;
    cfg.numPCpus = 1;
    cfg.hypervisorCode = toBytes("xen");
    cfg.hostOsCode = toBytes("dom0");
    hypervisor::Hypervisor hv(events, cfg);
    hv.boot(tm.tpmDevice());
    server::MonitorModule monitor(hv, tm);

    const auto victim = hv.createDomain("victim", 1, 0, toBytes("v"));
    hv.setBehavior(victim, 0, std::make_unique<SpinnerProgram>());

    hypervisor::DomainId attacker = -1;
    if (scenario == "idle") {
        attacker = hv.createDomain("idle", 1, 0, toBytes("i"));
        hv.setBehavior(attacker, 0, std::make_unique<IdleProgram>());
    } else if (scenario == "cpu_avail") {
        attacker = hv.createDomain("attacker", 2, 0, toBytes("a"));
        installAvailabilityAttack(hv, attacker);
    } else {
        attacker = hv.createDomain(scenario, 1, 0, toBytes("s"));
        hv.setBehavior(attacker, 0, makeService(scenario));
    }

    // Warm up into steady state, then measure a 10 s window of both
    // domains (the availability testing period of §4.5.2).
    events.run(seconds(2));
    const SimTime windowStart = events.now();
    hv.profiler().startWindow(victim, windowStart);
    monitor.beginWindow(attacker, windowStart);
    events.run(windowStart + seconds(10));

    UsageResult out;
    const SimTime window = events.now() - windowStart;
    hv.profiler().stopWindow(victim, events.now());
    const SimTime victimRun = hv.profiler().windowRuntime(victim);
    out.victimShare =
        static_cast<double>(victimRun) / static_cast<double>(window);

    auto m = monitor.finishWindow(proto::MeasurementType::CpuMeasure,
                                  attacker, events.now());
    out.attackerShare = static_cast<double>(m.value().values[0]) /
                        static_cast<double>(window);

    // Interpret the victim's availability the way the Attestation
    // Server would.
    proto::Measurement victimMeasure;
    victimMeasure.type = proto::MeasurementType::CpuMeasure;
    victimMeasure.values = {static_cast<std::uint64_t>(victimRun)};
    victimMeasure.windowLength = window;
    proto::MeasurementSet set;
    set.items.push_back(victimMeasure);

    attestation::CpuAvailabilityInterpreter interp;
    out.verdict = interp.interpret(set, {}).status;
    return out;
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 7",
        "Relative CPU usage of attacker and victim per scenario "
        "(victim demands 100% CPU),\nwith the availability "
        "interpreter's verdict on the victim.");

    const std::vector<std::string> scenarios = {
        "idle", "database", "file", "web",
        "app",  "stream",   "mail", "cpu_avail",
    };

    std::printf("\n%-12s %12s %12s   %s\n", "neighbor", "attacker CPU",
                "victim CPU", "victim availability verdict");
    bool shapeOk = true;
    for (const auto &scenario : scenarios) {
        const UsageResult r = runScenario(scenario);
        std::printf("%-12s %11.1f%% %11.1f%%   %s\n", scenario.c_str(),
                    100.0 * r.attackerShare, 100.0 * r.victimShare,
                    proto::healthStatusName(r.verdict).c_str());
        if (scenario == "cpu_avail") {
            shapeOk &= r.attackerShare > 0.85 && r.victimShare < 0.10;
            shapeOk &= r.verdict == proto::HealthStatus::Compromised;
        } else if (scenario == "idle") {
            shapeOk &= r.victimShare > 0.95;
        } else {
            shapeOk &= r.verdict == proto::HealthStatus::Healthy;
        }
    }

    std::printf("\nexpected shape: attack starves the victim below 10%% "
                "CPU and is flagged; every\nlegitimate neighbor leaves "
                "the victim at or above its fair share\n");
    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");
    return shapeOk ? 0 : 1;
}
