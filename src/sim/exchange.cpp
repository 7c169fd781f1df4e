#include "sim/exchange.h"

#include <algorithm>

namespace monatt::sim
{

void
RttEstimator::addSample(SimTime rtt)
{
    if (rtt < 0)
        return;
    if (samples == 0) {
        srtt = rtt;
        rttvar = rtt / 2;
    } else {
        const SimTime delta = srtt > rtt ? srtt - rtt : rtt - srtt;
        rttvar = (3 * rttvar + delta) / 4;
        srtt = (7 * srtt + rtt) / 8;
    }
    ++samples;
    backoff = 0;
}

void
Exchange::arm(SimTime now, SimTime serviceBudget)
{
    sentAt = now;
    budget = serviceBudget;
    attempt = 0;
    resent = false;
    state = State::Waiting;
}

void
Exchange::restart()
{
    attempt = 0;
    resent = true;
    state = State::Waiting;
}

SimTime
Exchange::timeout(const RetryPolicy &policy, const RttEstimator *hop)
{
    SimTime rto = policy.rto;
    if (hop != nullptr && policy.adaptive && hop->samples > 0)
        rto = std::min(std::max(2 * hop->srtt + 4 * hop->rttvar,
                                policy.minRto),
                       policy.maxRto);
    shift = std::min(std::max(attempt, hop != nullptr ? hop->backoff : 0),
                     kMaxBackoff);
    return budget + (rto << shift);
}

Exchange::Expiry
Exchange::expire(const RetryPolicy &policy, RttEstimator *hop)
{
    timer = 0;
    if (state != State::Waiting)
        return Expiry::Idle;
    // Keep the backed-off RTO for the hop's later exchanges (RFC 6298
    // 5.5 and Karn): their replies are the only samples that can
    // correct a stale estimate, so they must not time out on it too.
    if (hop != nullptr)
        hop->backoff =
            std::max(hop->backoff, std::min(shift + 1, kMaxBackoff));
    if (attempt >= policy.retryLimit) {
        state = State::Spent;
        return Expiry::GiveUp;
    }
    ++attempt;
    resent = true;
    return Expiry::Resend;
}

void
Exchange::reply(SimTime now, RttEstimator *hop)
{
    timer = 0;
    if (state == State::Waiting && !resent && hop != nullptr)
        hop->addSample(std::max<SimTime>(now - sentAt - budget, 0));
    state = State::Idle;
}

} // namespace monatt::sim
