/**
 * @file
 * Figure 9: "Performance for VM launching" — per-stage launch time
 * (scheduling, networking, block_device_mapping, spawning,
 * attestation) for three images (cirros, fedora, ubuntu) x three
 * flavors (small, medium, large). The paper: "the overhead of the
 * Attestation stage is about 20%, which is acceptable".
 */

#include <cstdio>

#include "bench_util.h"
#include "core/cloud.h"
#include "server/catalog.h"

using namespace monatt;
using namespace monatt::core;

namespace
{

struct LaunchBreakdown
{
    double scheduling = 0;
    double networking = 0;
    double mapping = 0;
    double spawning = 0;
    double attestation = 0;

    double
    total() const
    {
        return scheduling + networking + mapping + spawning + attestation;
    }
};

LaunchBreakdown
launchOnce(const std::string &image, const std::string &flavor)
{
    Cloud cloud;
    Customer &customer = cloud.addCustomer("bench-customer");
    auto vid = cloud.launchVm(customer, image + "-" + flavor, image,
                              flavor, proto::allProperties());
    if (!vid.isOk())
        throw std::runtime_error("launch failed: " + vid.errorMessage());

    const auto *rec = cloud.controller().database().vm(vid.value());
    LaunchBreakdown out;
    out.scheduling = toSeconds(rec->launchTimer.durationOf("scheduling"));
    out.networking = toSeconds(rec->launchTimer.durationOf("networking"));
    out.mapping = toSeconds(rec->launchTimer.durationOf("mapping"));
    out.spawning = toSeconds(rec->launchTimer.durationOf("spawning"));
    out.attestation =
        toSeconds(rec->launchTimer.durationOf("attestation"));
    return out;
}

} // namespace

int
main()
{
    bench::banner(
        "Figure 9",
        "VM launch time breakdown (seconds) per stage, for 3 images x "
        "3 flavors.\nNew CloudMonatt stage: attestation (after "
        "spawning).");

    std::printf("\n%-16s %10s %10s %10s %10s %11s %8s %7s\n",
                "image-flavor", "schedule", "network", "mapping",
                "spawning", "attestation", "total", "att%");

    bool shapeOk = true;
    double worstOverhead = 0;
    for (const char *image : {"cirros", "fedora", "ubuntu"}) {
        for (const char *flavor : {"small", "medium", "large"}) {
            const LaunchBreakdown b = launchOnce(image, flavor);
            const double overhead = 100.0 * b.attestation / b.total();
            worstOverhead = std::max(worstOverhead, overhead);
            std::printf("%-16s %10.2f %10.2f %10.2f %10.2f %11.2f %8.2f "
                        "%6.1f%%\n",
                        (std::string(image) + "-" + flavor).c_str(),
                        b.scheduling, b.networking, b.mapping,
                        b.spawning, b.attestation, b.total(), overhead);
            shapeOk &= overhead > 5.0 && overhead < 35.0;
            shapeOk &= b.total() > 1.5 && b.total() < 8.0;
        }
    }

    std::printf("\nexpected shape: total 2-6 s growing with image/flavor; "
                "attestation overhead ~20%%\n");
    std::printf("worst attestation overhead: %.1f%%\n", worstOverhead);
    std::printf("shape check: %s\n", shapeOk ? "PASS" : "FAIL");

    return shapeOk ? 0 : 1;
}
