/**
 * @file
 * The retransmit exchange on a fake clock: timeouts are plain numbers,
 * no EventQueue runs. Covers the RTT estimator, the budget, remainder
 * backoff and its persistence on the hop, Karn's rule and give-up.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/exchange.h"

namespace monatt::sim
{
namespace
{

using Expiry = Exchange::Expiry;

/** Fixed 1 s remainder RTO, three resends; a hop that passes an
 * estimator adapts once it is sampled. */
RetryPolicy
policy()
{
    return {seconds(1), 3, msec(200), seconds(30)};
}

// --- RTT estimator (RFC 6298 shape) -----------------------------------

TEST(RttEstimatorTest, FirstSampleSeedsSrttAndVariance)
{
    RttEstimator est;
    EXPECT_EQ(est.samples, 0u);
    est.addSample(msec(100));
    EXPECT_EQ(est.samples, 1u);
    EXPECT_EQ(est.srtt, msec(100));
    EXPECT_EQ(est.rttvar, msec(50));
}

TEST(RttEstimatorTest, EwmaConvergesOnSteadyRtt)
{
    RttEstimator est;
    for (int i = 0; i < 64; ++i)
        est.addSample(msec(80));
    EXPECT_EQ(est.srtt, msec(80));
    // Constant RTT: the variance EWMA decays toward zero.
    EXPECT_LT(est.rttvar, msec(1));
}

TEST(RttEstimatorTest, TracksRttShifts)
{
    RttEstimator est;
    for (int i = 0; i < 32; ++i)
        est.addSample(msec(10));
    const SimTime fastSrtt = est.srtt;
    for (int i = 0; i < 64; ++i)
        est.addSample(msec(200));
    EXPECT_GT(est.srtt, fastSrtt);
    EXPECT_GT(est.srtt, msec(150));
}

TEST(RttEstimatorTest, NegativeSamplesIgnored)
{
    RttEstimator est;
    est.addSample(-msec(5));
    EXPECT_EQ(est.samples, 0u);
}

// --- Exchange ---------------------------------------------------------

TEST(ExchangeTest, BudgetIsAddedOncePerAttempt)
{
    Exchange ex;
    ex.arm(seconds(5), seconds(2));
    EXPECT_EQ(ex.timeout(policy()), seconds(2) + seconds(1));
    ASSERT_EQ(ex.expire(policy()), Expiry::Resend);
    EXPECT_EQ(ex.timeout(policy()), seconds(2) + seconds(2));
    ASSERT_EQ(ex.expire(policy()), Expiry::Resend);
    EXPECT_EQ(ex.timeout(policy()), seconds(2) + seconds(4));
}

TEST(ExchangeTest, BackoffDoublesOnlyTheRemainderUpToItsCap)
{
    RetryPolicy p = policy();
    p.retryLimit = 10;
    RttEstimator hop;
    hop.addSample(msec(100)); // Remainder RTO 2·100 + 4·50 = 400 ms.
    Exchange ex;
    ex.arm(0, seconds(2));
    for (int attempt = 0; attempt <= 10; ++attempt) {
        const int shift = std::min(attempt, Exchange::kMaxBackoff);
        EXPECT_EQ(ex.timeout(p, &hop), seconds(2) + (msec(400) << shift))
            << "attempt " << attempt;
        EXPECT_EQ(ex.attempts(), attempt);
        ex.expire(p);
    }
}

TEST(ExchangeTest, CleanReplySamplesTheRemainder)
{
    RttEstimator hop;
    Exchange ex;
    ex.arm(seconds(1), seconds(2));
    ex.reply(seconds(1) + seconds(2) + msec(30), &hop);
    EXPECT_EQ(hop.samples, 1u);
    EXPECT_EQ(hop.srtt, msec(30));
    // A second reply (a periodic stream's next report) is no sample.
    ex.reply(seconds(9), &hop);
    EXPECT_EQ(hop.samples, 1u);
}

TEST(ExchangeTest, NegativeRemainderClampsToZero)
{
    RttEstimator hop;
    Exchange ex;
    ex.arm(0, seconds(2)); // The reply beat the budget.
    ex.reply(msec(1500), &hop);
    EXPECT_EQ(hop.samples, 1u);
    EXPECT_EQ(hop.srtt, 0);
    EXPECT_EQ(hop.rttvar, 0);
    // The remainder RTO then sits at the adaptive floor.
    Exchange next;
    next.arm(seconds(3), seconds(2));
    EXPECT_EQ(next.timeout(policy(), &hop), seconds(2) + msec(200));
}

TEST(ExchangeTest, KarnReplyAfterResendYieldsNoSample)
{
    RttEstimator hop;
    Exchange resent;
    resent.arm(0);
    ASSERT_EQ(resent.expire(policy()), Expiry::Resend);
    resent.reply(msec(1500), &hop);
    EXPECT_EQ(hop.samples, 0u);

    // A restart (failover) gives a fresh retry budget, but the reply
    // still cannot be matched to one send.
    Exchange failedOver;
    failedOver.arm(0);
    ASSERT_EQ(failedOver.expire(policy()), Expiry::Resend);
    failedOver.restart();
    EXPECT_EQ(failedOver.attempts(), 0);
    failedOver.reply(seconds(2), &hop);
    EXPECT_EQ(hop.samples, 0u);
}

TEST(ExchangeTest, BackedOffRtoPersistsUntilAValidSample)
{
    RttEstimator hop;
    hop.addSample(msec(100)); // Remainder RTO 400 ms.

    // An exchange times out twice, then its reply is no sample.
    Exchange first;
    first.arm(0, seconds(2));
    EXPECT_EQ(first.timeout(policy(), &hop), seconds(2) + msec(400));
    first.expire(policy(), &hop);
    EXPECT_EQ(first.timeout(policy(), &hop), seconds(2) + msec(800));
    first.expire(policy(), &hop);
    first.reply(seconds(6), &hop);
    EXPECT_EQ(hop.samples, 1u);
    EXPECT_EQ(hop.backoff, 2);

    // Later exchanges start from the backed-off remainder, and double
    // it further when they time out too...
    Exchange second;
    second.arm(seconds(7), seconds(2));
    EXPECT_EQ(second.timeout(policy(), &hop), seconds(2) + msec(1600));
    second.expire(policy(), &hop);
    EXPECT_EQ(second.timeout(policy(), &hop), seconds(2) + msec(3200));
    second.reply(seconds(12), &hop);
    Exchange third;
    third.arm(seconds(13), seconds(2));
    EXPECT_EQ(third.timeout(policy(), &hop), seconds(2) + msec(3200));

    // ...until one is answered without a resend: its sample clears it.
    third.reply(seconds(13) + seconds(2) + msec(100), &hop);
    EXPECT_EQ(hop.samples, 2u);
    EXPECT_EQ(hop.backoff, 0);
    Exchange fourth;
    fourth.arm(seconds(16), seconds(2));
    EXPECT_EQ(fourth.timeout(policy(), &hop),
              seconds(2) + 2 * hop.srtt + 4 * hop.rttvar);
}

TEST(ExchangeTest, ConcurrentTimeoutsBackOffTheHopOnce)
{
    // Sixteen exchanges armed together time out together: the hop's
    // backoff is the one their attempts reached, not one step each.
    RttEstimator hop;
    hop.addSample(msec(100));
    std::vector<Exchange> many(16);
    for (Exchange &ex : many) {
        ex.arm(0, seconds(2));
        ex.timeout(policy(), &hop);
    }
    for (Exchange &ex : many)
        ASSERT_EQ(ex.expire(policy(), &hop), Expiry::Resend);
    EXPECT_EQ(hop.backoff, 1);
    for (Exchange &ex : many)
        EXPECT_EQ(ex.timeout(policy(), &hop), seconds(2) + msec(800));
}

TEST(ExchangeTest, GiveUpIsReportedOnce)
{
    Exchange ex;
    ex.arm(0);
    ex.timer = 42;
    EXPECT_EQ(ex.expire(policy()), Expiry::Resend);
    EXPECT_EQ(ex.timer, 0u);
    EXPECT_EQ(ex.expire(policy()), Expiry::Resend);
    EXPECT_EQ(ex.expire(policy()), Expiry::Resend);
    EXPECT_EQ(ex.attempts(), 3);
    EXPECT_EQ(ex.expire(policy()), Expiry::GiveUp);
    EXPECT_EQ(ex.expire(policy()), Expiry::Idle);
    EXPECT_EQ(ex.expire(policy()), Expiry::Idle);
    EXPECT_EQ(ex.attempts(), 3);
}

TEST(ExchangeTest, AnsweredOrUnarmedExpiryIsIdle)
{
    Exchange unarmed;
    EXPECT_EQ(unarmed.expire(policy()), Expiry::Idle);

    Exchange answered;
    answered.arm(0);
    answered.reply(msec(5));
    EXPECT_EQ(answered.expire(policy()), Expiry::Idle);
    EXPECT_EQ(answered.attempts(), 0);
}

} // namespace
} // namespace monatt::sim
