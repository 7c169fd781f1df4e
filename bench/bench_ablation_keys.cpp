/**
 * @file
 * Ablation: per-session attestation keys vs reusing the identity key.
 *
 * §3.4.2: "A new session-specific key-pair {AVKs, ASKs} is created by
 * the Trust Module whenever an attestation report is needed, so as
 * not to reveal the location of a VM." The anonymity costs a key
 * generation plus a pCA certification round trip per attestation.
 * This bench quantifies that cost by comparing one-shot attestation
 * latency with the session-key machinery at its calibrated cost
 * against a configuration where key generation and certification are
 * free (equivalent to signing with the long-lived identity key).
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/cloud.h"

using namespace monatt;
using namespace monatt::core;

namespace
{

double
attestLatency(const proto::TimingModel &timing,
              proto::SecurityProperty property)
{
    CloudConfig cfg;
    cfg.timing = timing;
    // A fresh AIK on every attestation, so the one-shot attestation
    // below does not reuse the key the launch's startup attestation
    // made.
    cfg.aikReuseLimit = 1;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("bench-customer");
    auto vid = cloud.launchVm(customer, "vm", "cirros", "small",
                              proto::allProperties());
    if (!vid.isOk())
        throw std::runtime_error(vid.errorMessage());

    const SimTime start = cloud.events().now();
    auto report = cloud.attestOnce(customer, vid.value(), {property});
    if (!report.isOk())
        throw std::runtime_error(report.errorMessage());
    return toSeconds(report.value().receivedAt - start);
}

} // namespace

int
main()
{
    bench::banner(
        "Ablation: session attestation keys",
        "One-shot attestation latency with per-session {AVKs, ASKs} + "
        "pCA certification\n(anonymous attester, the paper's design) vs "
        "reusing the identity key directly.");

    proto::TimingModel withAik;          // Paper design.
    proto::TimingModel withoutAik;       // Identity-key signing.
    withoutAik.aikGeneration = 0;
    withoutAik.pcaProcessing = 0;

    std::printf("\n%-26s %16s %16s %10s\n", "property",
                "session key (s)", "identity key (s)", "delta");
    std::vector<double> deltas;
    for (proto::SecurityProperty p : proto::allProperties()) {
        const double with = attestLatency(withAik, p);
        const double without = attestLatency(withoutAik, p);
        deltas.push_back(with - without);
        std::printf("%-26s %16.3f %16.3f %9.3fs\n",
                    proto::propertyName(p).c_str(), with, without,
                    with - without);
    }

    std::printf("\nexpected shape: the anonymity feature costs a fixed "
                "few hundred ms per\nattestation (AIK generation + pCA "
                "round trip), independent of the property;\nruntime "
                "properties are dominated by the measurement window "
                "instead\n");
    bool shapeOk = deltas.front() > 0;
    for (double delta : deltas)
        shapeOk &= std::abs(delta - deltas.front()) < 1e-3;
    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");
    return shapeOk ? 0 : 1;
}
