/**
 * @file
 * Receive-side dedup caches must stay bounded: the controller's relay
 * cache, the Attestation Server's report cache and the pCA's
 * issued-certificate cache all evict FIFO at their configured
 * capacity, in deterministic insertion order — a long-running cloud
 * never grows them without bound, and which retransmissions can still
 * be answered idempotently is a pure function of the request history.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cloud.h"

namespace monatt::core
{
namespace
{

TEST(DedupCacheBoundsTest, AllCachesEvictFifoAtConfiguredCapacity)
{
    constexpr std::size_t kCap = 4;
    CloudConfig cfg;
    cfg.numServers = 2;
    cfg.seed = 654321;
    cfg.aikReuseLimit = 1; // Fresh pCA certification per round.
    cfg.dedupCacheCapacity = kCap;
    Cloud cloud(cfg);
    Customer &customer = cloud.addCustomer("alice");

    auto vid = cloud.launchVm(customer, "vm-0", "cirros", "small",
                              proto::allProperties());
    ASSERT_TRUE(vid.isOk()) << vid.errorMessage();
    const std::string v = vid.take();

    // Far more one-shot rounds than any cache can hold.
    for (int i = 0; i < 3 * static_cast<int>(kCap); ++i) {
        auto r = cloud.attestOnce(customer, v, proto::allProperties());
        ASSERT_TRUE(r.isOk()) << r.errorMessage();
    }

    // Controller relay cache: capped, FIFO, strictly increasing
    // customer request ids — i.e. exactly the most recent requests.
    const auto relayIds = cloud.controller().relayCacheRequestIds();
    EXPECT_EQ(cloud.controller().relayCacheSize(), kCap);
    ASSERT_EQ(relayIds.size(), kCap);
    EXPECT_TRUE(std::is_sorted(relayIds.begin(), relayIds.end()));
    EXPECT_LT(relayIds.front(), relayIds.back());

    // AS report cache: same bound and ordering over attest ids.
    const auto reportIds =
        cloud.attestationServer().reportCacheRequestIds();
    EXPECT_EQ(cloud.attestationServer().reportCacheSize(), kCap);
    ASSERT_EQ(reportIds.size(), kCap);
    EXPECT_TRUE(std::is_sorted(reportIds.begin(), reportIds.end()));

    // pCA issued-cert cache: capped, and with one fresh session per
    // round the retained labels are the most recent sessions.
    const auto labels = cloud.privacyCa().issuedCacheLabels();
    EXPECT_EQ(cloud.privacyCa().issuedCacheSize(), kCap);
    ASSERT_EQ(labels.size(), kCap);
    EXPECT_EQ(std::set<std::string>(labels.begin(), labels.end()).size(),
              kCap)
        << "evicted labels must not linger";
}

TEST(DedupCacheBoundsTest, EvictionOrderIsDeterministic)
{
    auto run = [] {
        CloudConfig cfg;
        cfg.numServers = 2;
        cfg.seed = 654321;
        cfg.aikReuseLimit = 1;
        cfg.dedupCacheCapacity = 3;
        Cloud cloud(cfg);
        Customer &customer = cloud.addCustomer("alice");
        auto vid = cloud.launchVm(customer, "vm-0", "cirros", "small",
                                  proto::allProperties());
        EXPECT_TRUE(vid.isOk());
        const std::string v = vid.take();
        for (int i = 0; i < 9; ++i) {
            auto r =
                cloud.attestOnce(customer, v, proto::allProperties());
            EXPECT_TRUE(r.isOk()) << r.errorMessage();
        }
        return std::tuple{cloud.controller().relayCacheRequestIds(),
                          cloud.attestationServer()
                              .reportCacheRequestIds(),
                          cloud.privacyCa().issuedCacheLabels()};
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace monatt::core
