/**
 * @file
 * Figure 10: "Performance Effect of Runtime Attestation" — relative
 * performance of six cloud benchmarks running in a VM while the
 * customer requests periodic runtime attestation at no attestation /
 * 1 min / 10 s / 5 s.
 *
 * Paper: "there is no performance degradation due to the execution of
 * runtime attestation... the measurements are taken during the VM
 * switch — the VMM Profile Tool does not intercept the VM's
 * execution."
 */

#include <cstdio>

#include "bench_util.h"
#include "core/cloud.h"
#include "workloads/services.h"

using namespace monatt;
using namespace monatt::core;

namespace
{

double
runBenchmark(const std::string &service, SimTime attestPeriod)
{
    Cloud cloud;
    Customer &customer = cloud.addCustomer("bench-customer");
    auto vid = cloud.launchVm(customer, "bench-vm", "ubuntu", "large",
                              proto::allProperties());
    if (!vid.isOk())
        throw std::runtime_error(vid.errorMessage());

    server::CloudServer *host = cloud.serverHosting(vid.value());
    auto workload = workloads::makeService(service);
    workloads::ServiceWorkload *probe = workload.get();
    host->hypervisor().setBehavior(host->domainOf(vid.value()), 0,
                                   std::move(workload));

    if (attestPeriod > 0) {
        customer.runtimeAttestPeriodic(
            vid.value(), {proto::SecurityProperty::CpuAvailability},
            attestPeriod);
    }

    const SimTime start = cloud.events().now();
    cloud.runFor(seconds(60));
    (void)start;
    return toSeconds(probe->workDone());
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 10",
        "Relative performance of cloud benchmarks under periodic "
        "runtime attestation\n(no attestation / 1 min / 10 s / 5 s), 60 "
        "s of benchmark execution each.");

    const std::vector<std::string> services = {
        "database", "file", "web", "app", "stream", "mail",
    };
    const std::vector<std::pair<std::string, SimTime>> freqs = {
        {"no attest", 0},
        {"1min", minutes(1)},
        {"10s", seconds(10)},
        {"5s", seconds(5)},
    };

    std::vector<std::string> header;
    for (const auto &[label, period] : freqs)
        header.push_back(label);
    bench::row("benchmark", header, 12, 10);

    bool shapeOk = true;
    for (const auto &service : services) {
        const double baseline = runBenchmark(service, 0);
        std::vector<std::string> cells;
        for (const auto &[label, period] : freqs) {
            const double done =
                period == 0 ? baseline : runBenchmark(service, period);
            const double rel = baseline > 0 ? done / baseline : 0;
            cells.push_back(bench::fmt("%.1f%%", 100.0 * rel));
            shapeOk &= rel > 0.97;
        }
        bench::row(service, cells, 12, 10);
    }

    std::printf("\nexpected shape: ~100%% at every attestation frequency "
                "(non-intrusive collection\nat VM switch); see "
                "bench_ablation_intrusive for the intercepting-monitor "
                "contrast\n");
    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");

    return shapeOk ? 0 : 1;
}
