/**
 * @file
 * Ablation: scheduler defenses against the CPU availability attack.
 *
 * The §4.5.1 attack exploits two mechanisms at once: BOOST-on-wake
 * preemption and the sampled (tick-based) credit debiting that lets a
 * tick-dodging attacker keep its credits while the victim absorbs
 * every debit. This bench quantifies each defense:
 *
 *   - boost off only:   attacker still dodges ticks, stays UNDER
 *                       while the victim sinks OVER — still starves.
 *   - exact accounting: credits are charged for actual consumption —
 *                       the attack collapses to fair sharing, with or
 *                       without BOOST.
 *
 * CloudMonatt's position is detection + response rather than
 * scheduler hardening; this ablation shows why detection matters: the
 * obvious point fix (disable BOOST) does not work.
 */

#include <cstdio>

#include "bench_util.h"
#include "hypervisor/hypervisor.h"
#include "sim/event_queue.h"
#include "workloads/attacks.h"
#include "workloads/programs.h"

using namespace monatt;
using namespace monatt::workloads;

namespace
{

double
attackSlowdown(hypervisor::CreditScheduler::Params sched)
{
    sim::EventQueue events;
    hypervisor::HypervisorConfig cfg;
    cfg.numPCpus = 1;
    cfg.sched = sched;
    cfg.hypervisorCode = toBytes("xen");
    cfg.hostOsCode = toBytes("dom0");
    hypervisor::Hypervisor hv(events, cfg);
    tpm::TpmEmulator tpm;
    hv.boot(tpm);

    const auto victim = hv.createDomain("victim", 1, 0, toBytes("v"));
    const auto attacker = hv.createDomain("attacker", 2, 0,
                                          toBytes("a"));
    SimTime completedAt = -1;
    const SimTime work = seconds(1);
    hv.setBehavior(victim, 0,
                   std::make_unique<CpuBoundProgram>(
                       work, [&](SimTime t) { completedAt = t; }));
    installAvailabilityAttack(hv, attacker);
    events.run(seconds(60));
    return completedAt < 0 ? -1.0
                           : toSeconds(completedAt) / toSeconds(work);
}

} // namespace

int
main()
{
    bench::banner(
        "Ablation: scheduler defenses",
        "Victim slowdown under the CPU availability attack, per "
        "scheduler configuration.");

    struct Config
    {
        const char *name;
        bool boost;
        bool exact;
    };
    const Config configs[] = {
        {"xen default (vulnerable)", true, false},
        {"boost disabled", false, false},
        {"exact accounting", true, true},
        {"both defenses", false, true},
    };

    std::printf("\n%-28s %14s\n", "scheduler", "slowdown");
    double results[4];
    int i = 0;
    for (const Config &c : configs) {
        hypervisor::CreditScheduler::Params params;
        params.boostEnabled = c.boost;
        params.exactAccounting = c.exact;
        const double slowdown = attackSlowdown(params);
        results[i++] = slowdown;
        std::printf("%-28s %13.2fx\n", c.name, slowdown);
    }

    const bool shapeOk = results[0] > 10.0 && results[1] > 5.0 &&
                         results[2] < 3.0 && results[3] < 3.0;
    std::printf("\nexpected shape: default >10x; boost-off alone still "
                ">5x (tick dodging keeps the\nattacker UNDER); exact "
                "accounting collapses the attack to fair sharing\n");
    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");
    return shapeOk ? 0 : 1;
}
