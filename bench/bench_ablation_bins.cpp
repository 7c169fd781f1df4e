/**
 * @file
 * Ablation: covert-channel detection vs Trust Evidence Register count.
 *
 * §4.4.3: "We use 30 bins in our experiment, but a different number
 * can be used to save space or increase accuracy." This bench sweeps
 * the TER bank size and reports whether the detector still separates
 * the covert sender from the benign VM, and the hardware cost (number
 * of registers).
 */

#include <cstdio>

#include "attestation/interpreters.h"
#include "bench_util.h"
#include "common/stats.h"
#include "hypervisor/hypervisor.h"
#include "sim/event_queue.h"
#include "workloads/attacks.h"
#include "workloads/programs.h"

using namespace monatt;
using namespace monatt::workloads;

namespace
{

/** Collect raw usage-interval samples (ms) for covert vs benign. */
std::vector<double>
collectIntervals(bool covert, SimTime duration)
{
    sim::EventQueue events;
    hypervisor::HypervisorConfig cfg;
    cfg.numPCpus = 1;
    cfg.hypervisorCode = toBytes("xen");
    cfg.hostOsCode = toBytes("dom0");
    hypervisor::Hypervisor hv(events, cfg);
    tpm::TpmEmulator tpm;
    hv.boot(tpm);

    hypervisor::DomainId monitored = -1;
    if (covert) {
        const auto receiver = hv.createDomain("receiver", 1, 0,
                                              toBytes("r"));
        monitored = hv.createDomain("sender", 2, 0, toBytes("s"), 1024);
        hv.setBehavior(receiver, 0, std::make_unique<SpinnerProgram>());
        auto message = std::make_shared<CovertMessage>();
        Rng rng(0xdead);
        for (int i = 0; i < 100000; ++i)
            message->bits.push_back(rng.nextBool());
        installCovertSender(hv, monitored, message,
                            CovertChannelParams::detectPreset());
    } else {
        monitored = hv.createDomain("benign", 1, 0, toBytes("b"));
        const auto rival = hv.createDomain("rival", 1, 0, toBytes("v"));
        hv.setBehavior(monitored, 0, std::make_unique<SpinnerProgram>());
        hv.setBehavior(rival, 0, std::make_unique<SpinnerProgram>());
    }

    hv.profiler().startWindow(monitored, events.now());
    events.run(duration);
    hv.profiler().stopWindow(monitored, events.now());
    return hv.profiler().windowIntervals(monitored);
}

/** Re-bin samples into `bins` TERs and classify. */
bool
classify(const std::vector<double> &samples, std::size_t bins)
{
    Histogram h(0.0, 30.0, bins);
    for (double s : samples)
        h.add(s);
    std::vector<std::uint64_t> counts = h.counts();

    attestation::CovertChannelDetectorParams params;
    // Cluster separation is measured in ms (bin centers), so the
    // threshold is bin-count independent; keep defaults.
    attestation::CovertChannelInterpreter detector(params);
    return detector.looksCovert(counts);
}

} // namespace

int
main()
{
    bench::banner(
        "Ablation: TER bin count",
        "Covert-channel detector accuracy vs number of Trust Evidence "
        "Registers\n(paper uses 30; \"a different number can be used to "
        "save space or increase accuracy\").");

    const auto covertSamples = collectIntervals(true, seconds(20));
    const auto benignSamples = collectIntervals(false, seconds(20));

    std::printf("\n%8s %18s %18s %10s\n", "TERs", "covert flagged",
                "benign flagged", "correct");
    bool shapeOk = true;
    for (std::size_t bins : {4u, 6u, 10u, 15u, 20u, 30u, 45u, 60u}) {
        const bool covertFlag = classify(covertSamples, bins);
        const bool benignFlag = classify(benignSamples, bins);
        const bool correct = covertFlag && !benignFlag;
        std::printf("%8zu %18s %18s %10s\n", bins,
                    covertFlag ? "yes" : "no", benignFlag ? "yes" : "no",
                    correct ? "yes" : "NO");
        if (bins >= 10)
            shapeOk &= correct;
    }

    std::printf("\nexpected shape: detection robust at >=10 TERs; very "
                "coarse banks may merge the\ntwo peaks and lose the "
                "signal\n");
    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");
    return shapeOk ? 0 : 1;
}
