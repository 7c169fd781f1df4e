/**
 * @file
 * One request waiting for one reply, with its retransmit timer.
 *
 * Every request hop (customer -> controller, controller -> AS, AS ->
 * server, server -> pCA, and the endpoint's hello) runs this loop. The
 * exchange keeps its state and arithmetic and nothing else: the owner
 * sends, schedules timeout() on its own EventQueue, calls expire() when
 * the timer fires and reply() when the answer arrives, and decides what
 * an expiry means (resend, fail over or give up). DESIGN.md §11 has the
 * timeout rule: budget + remainder RTO, only the remainder sampled and
 * backed off.
 */

#ifndef MONATT_SIM_EXCHANGE_H
#define MONATT_SIM_EXCHANGE_H

#include <cstdint>

#include "common/time_types.h"
#include "sim/event_queue.h"

namespace monatt::sim
{

/**
 * One hop's RTT estimate (RFC 6298 shape, integer microseconds): the
 * first sample sets srtt = rtt, rttvar = rtt / 2; later ones
 * rttvar = (3·rttvar + |srtt − rtt|) / 4, srtt = (7·srtt + rtt) / 8.
 */
struct RttEstimator
{
    SimTime srtt = 0;
    SimTime rttvar = 0;
    std::uint64_t samples = 0;
    /** Backoff exponent a timeout left on the hop; later exchanges
     * start from it until the next valid sample clears it. */
    int backoff = 0;

    void addSample(SimTime rtt);
};

/** Retransmit budget of one hop. A hop adapts exactly when it passes
 * an RttEstimator: its remainder RTO then follows the estimate once
 * sampled, clamped to [minRto, maxRto]. */
struct RetryPolicy
{
    SimTime rto = 0;    //!< Fixed remainder RTO (before any sample).
    int retryLimit = 0; //!< Resends before the exchange gives up.
    SimTime minRto = 0; //!< Floor for the adaptive RTO.
    SimTime maxRto = 0; //!< Ceiling for the adaptive RTO.
};

/** One outstanding request; see the file comment. */
class Exchange
{
  public:
    enum class Expiry
    {
        Resend, //!< Resend and re-arm: the resend is already counted.
        GiveUp, //!< Retry limit reached: fail over or give up.
        Idle,   //!< Nothing outstanding (answered or already given up).
    };

    /** Largest backoff exponent: the remainder RTO grows at most 64x. */
    static constexpr int kMaxBackoff = 6;

    /** Arm on the first send at `now`, asking `budget` of simulated
     * service time of the receiver. */
    void arm(SimTime now, SimTime budget = 0);

    /** Fresh retry budget (a failover). The reply can no longer be
     * matched to one send, so it yields no RTT sample. */
    void restart();

    /**
     * Delay until the current attempt times out: budget + (remainder
     * RTO << max(attempts, hop backoff)). `hop` is nullptr on a
     * fixed-RTO hop. Call once per attempt.
     */
    SimTime timeout(const RetryPolicy &policy,
                    const RttEstimator *hop = nullptr);

    /**
     * The attempt timed out (or the owner cut it short): leaves its
     * backoff on `hop`, then Resend while the policy allows one, GiveUp
     * once, Idle afterwards. Clears `timer`.
     */
    Expiry expire(const RetryPolicy &policy, RttEstimator *hop = nullptr);

    /**
     * The reply arrived at `now`: feeds `hop` the remainder (RTT −
     * budget, clamped at zero) unless the exchange was resent (Karn).
     * Clears `timer`; the owner cancels it first.
     */
    void reply(SimTime now, RttEstimator *hop = nullptr);

    /** Resends since arm() or restart(). */
    int attempts() const { return attempt; }

    /** The owner's pending timer, 0 when none. */
    EventId timer = 0;

  private:
    enum class State
    {
        Idle,
        Waiting,
        Spent,
    };

    SimTime sentAt = 0;
    SimTime budget = 0;
    int attempt = 0;
    int shift = 0;       //!< Backoff exponent of the current attempt.
    bool resent = false; //!< Karn: no sample once true.
    State state = State::Idle;
};

} // namespace monatt::sim

#endif // MONATT_SIM_EXCHANGE_H
