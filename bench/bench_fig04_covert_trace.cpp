/**
 * @file
 * Figure 4: "Cross-VM Covert Information Leakage" — the sender VM's
 * CPU usage as observed by the receiver VM, over time, while the
 * covert channel transmits; plus the achieved bandwidth (the paper
 * reports "a high bandwidth of 200 bps").
 */

#include <cmath>
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

struct TraceResult
{
    std::vector<std::pair<double, double>> trace; //!< (t ms, interval ms)
    std::size_t bitsSent = 0;
    std::size_t bitsCorrect = 0;
    double seconds = 0;
};

TraceResult
runTrace(const CovertChannelParams &params, std::size_t numBits)
{
    sim::EventQueue events;
    hypervisor::HypervisorConfig cfg;
    cfg.numPCpus = 1;
    cfg.hypervisorCode = toBytes("xen");
    cfg.hostOsCode = toBytes("dom0");
    hypervisor::Hypervisor hv(events, cfg);
    tpm::TpmEmulator tpm;
    hv.boot(tpm);

    const auto receiver = hv.createDomain("receiver", 1, 0,
                                          toBytes("img-r"));
    const auto sender = hv.createDomain("sender", 2, 0, toBytes("img-s"),
                                        1024);
    hv.setBehavior(receiver, 0, std::make_unique<SpinnerProgram>());

    auto message = std::make_shared<CovertMessage>();
    Rng rng(0x1eaf);
    for (std::size_t i = 0; i < numBits; ++i)
        message->bits.push_back(rng.nextBool());

    // Receiver-side observation: gaps in its own execution == the
    // sender's CPU occupancy intervals. Recorded with timestamps via
    // the profiler's raw interval stream for the sender domain.
    std::vector<std::pair<SimTime, SimTime>> senderRuns;
    SimTime lastEnd = -1;
    hv.scheduler().setRunHook(
        [&](hypervisor::VCpuId, hypervisor::DomainId dom, SimTime start,
            SimTime end) {
            hv.profiler().recordRun(0, dom, start, end);
            if (dom != sender)
                return;
            if (!senderRuns.empty() && senderRuns.back().second == start)
                senderRuns.back().second = end; // Merge contiguous.
            else
                senderRuns.emplace_back(start, end);
            lastEnd = end;
        });

    installCovertSender(hv, sender, message, params);
    const SimTime duration =
        params.framePeriod * static_cast<SimTime>(numBits + 4) + msec(40);
    events.run(duration);

    TraceResult out;
    out.seconds = toSeconds(duration);
    std::vector<double> gaps;
    for (const auto &[start, end] : senderRuns) {
        out.trace.emplace_back(toMillis(start), toMillis(end - start));
        gaps.push_back(toMillis(end - start));
    }
    const std::vector<bool> decoded = decodeFromGaps(gaps, params);
    out.bitsSent = message->nextBit;
    for (std::size_t i = 0;
         i < std::min(decoded.size(), message->bits.size()); ++i) {
        out.bitsCorrect += decoded[i] == message->bits[i];
    }
    return out;
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 4",
        "Cross-VM covert information leakage: sender CPU usage interval "
        "observed by the\nreceiver over time (fast preset), and channel "
        "bandwidth.");

    const CovertChannelParams params = CovertChannelParams::fastPreset();
    const TraceResult res = runTrace(params, 120);

    std::printf("\n%-12s %-18s\n", "time (ms)", "interval (ms)");
    // Print the first 60 observed intervals (one per frame), the
    // series Figure 4 plots.
    const std::size_t n = std::min<std::size_t>(res.trace.size(), 60);
    for (std::size_t i = 0; i < n; ++i) {
        std::printf("%-12.1f %-6.2f  |%s\n", res.trace[i].first,
                    res.trace[i].second,
                    std::string(static_cast<std::size_t>(
                                    res.trace[i].second * 12),
                                '#')
                        .c_str());
    }

    const double grossBps = params.bandwidthBps();
    std::printf("\nframe period            : %.1f ms\n",
                toMillis(params.framePeriod));
    std::printf("bit encoding            : short %.1f ms = 0, long %.1f "
                "ms = 1\n",
                toMillis(params.shortBit), toMillis(params.longBit));
    std::printf("channel bandwidth       : %.0f bps (paper: ~200 bps)\n",
                grossBps);
    std::printf("bits transmitted        : %zu\n", res.bitsSent);
    std::printf("receiver decode accuracy: %.1f %%\n",
                100.0 * static_cast<double>(res.bitsCorrect) /
                    static_cast<double>(res.bitsSent));

    const bool shapeOk = std::abs(grossBps - 200) < 0.5 &&
                         res.bitsSent > 0 &&
                         res.bitsCorrect == res.bitsSent;
    std::printf("\nexpected shape: the paper's ~200 bps channel, every "
                "transmitted bit decoded\nby the receiver\n");
    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");
    return shapeOk ? 0 : 1;
}
