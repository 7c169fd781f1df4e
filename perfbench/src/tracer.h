/**
 * @file
 * Outside-in attribution of wall time to the modules of the stack.
 *
 * The tracer never reaches into the program. The closed loop times
 * every EventQueue::runOne() call, and a pass-through
 * Network::setAdversary hook reports which node sent during that
 * event: one event is one entity's handler, so the sender names the
 * module whose code ran. An event that sends nothing but settles a
 * request is the customer's; any other silent event (hypervisor ticks,
 * timers, deliveries that only update state) is charged to sim.timer.
 * Issuing a request runs the customer's code outside runOne(), so the
 * loop reports those calls as customer time too.
 *
 * Spans (entity, channel, start, end) stay in memory and are written
 * once, at exit, as Chrome trace-event JSON that Perfetto opens
 * offline.
 */

#ifndef MONATT_PERFBENCH_TRACER_H
#define MONATT_PERFBENCH_TRACER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/network.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** The modules wall time is attributed to. */
enum class Module : std::uint8_t
{
    Server,
    AttestationServer,
    PrivacyCa,
    Controller,
    Customer,
    Timer,
    Count,
};

/** Metric-name stem of a module (e.g. "attestation.as"). */
const char *moduleName(Module m);

/** Module of a node id, by the ids core::Cloud assigns. */
Module moduleOf(const std::string &nodeId);

class Tracer
{
  public:
    /** Installs the pass-through hook on `network`; samples the depth
     * of `events` after every event. */
    Tracer(monatt::net::Network &network,
           const monatt::sim::EventQueue &events, std::size_t maxSpans);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    void
    beginEvent()
    {
        sent_ = false; // Sends outside an event were the customer's.
        eventStart_ = Clock::now();
    }
    void endEvent();
    /** The event just ended settled at least one request. */
    void markCompleted();
    /** Customer code run outside the event loop (request issue). */
    void customerWork(Clock::time_point start, Clock::time_point end);

    /** Seconds of wall time attributed to each module. */
    double selfSeconds(Module m) const
    {
        return selfSeconds_[static_cast<std::size_t>(m)];
    }

    std::uint64_t events() const { return events_; }
    std::uint64_t timerEvents() const { return timerEvents_; }
    std::uint64_t messages() const { return messages_; }
    std::uint64_t wireBytes() const { return wireBytes_; }
    /** Bytes exchanged between two controller replicas. */
    std::uint64_t replicationBytes() const { return replicationBytes_; }
    /** Mean number of pending events after an event ran. */
    std::size_t meanQueueDepth() const
    {
        return events_ > 0 ? static_cast<std::size_t>(queueDepthSum_ /
                                                      events_)
                           : 0;
    }

    /** Write the spans as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        double startUs;
        double durationUs;
        std::uint32_t entity;
        std::uint16_t channel;
        Module module;
    };

    void onSend(const monatt::net::Envelope &env);
    static std::uint32_t intern(std::vector<std::string> &table,
                                std::map<std::string, std::uint32_t> &index,
                                const std::string &name);
    /** Keep a span unless the cap is reached; its index, or
     * spans_.size() when dropped. */
    std::size_t addSpan(Clock::time_point start, Clock::time_point end,
                        std::uint32_t entity, std::uint16_t channel,
                        Module m);

    monatt::net::Network &network_;
    const monatt::sim::EventQueue &queue_;
    std::size_t maxSpans_;
    Clock::time_point origin_;
    Clock::time_point eventStart_;

    // The event in flight.
    bool sent_ = false;
    std::uint32_t sender_ = 0;
    std::uint16_t senderChannel_ = 0;
    Module senderModule_ = Module::Timer;

    // The event that ended last, for markCompleted().
    bool lastWasTimer_ = false;
    double lastSeconds_ = 0;
    std::size_t lastSpan_ = 0;

    std::array<double, static_cast<std::size_t>(Module::Count)>
        selfSeconds_{};
    std::uint64_t events_ = 0;
    std::uint64_t timerEvents_ = 0;
    std::uint64_t messages_ = 0;
    std::uint64_t wireBytes_ = 0;
    std::uint64_t replicationBytes_ = 0;
    std::uint64_t queueDepthSum_ = 0;

    std::vector<Span> spans_;
    std::uint64_t droppedSpans_ = 0;
    std::vector<std::string> entities_;
    std::map<std::string, std::uint32_t> entityIndex_;
    std::vector<std::string> channels_;
    std::map<std::string, std::uint32_t> channelIndex_;
    std::uint32_t customerEntity_ = 0;
    std::uint32_t simEntity_ = 0;
};

} // namespace perfbench

#endif // MONATT_PERFBENCH_TRACER_H
