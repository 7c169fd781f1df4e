#include "tracer.h"

#include <cstdio>

namespace perfbench
{

namespace
{

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

} // namespace

const char *
moduleName(Module m)
{
    switch (m) {
      case Module::Server:
        return "server";
      case Module::AttestationServer:
        return "attestation.as";
      case Module::PrivacyCa:
        return "attestation.pca";
      case Module::Controller:
        return "controller";
      case Module::Customer:
        return "core.customer";
      case Module::Timer:
      case Module::Count:
        break;
    }
    return "sim.timer";
}

Module
moduleOf(const std::string &nodeId)
{
    if (startsWith(nodeId, "server-"))
        return Module::Server;
    if (startsWith(nodeId, "attestation-server"))
        return Module::AttestationServer;
    if (nodeId == "privacy-ca")
        return Module::PrivacyCa;
    if (startsWith(nodeId, "cloud-controller") ||
        startsWith(nodeId, "controller-shard-"))
        return Module::Controller;
    return Module::Customer;
}

Tracer::Tracer(monatt::net::Network &network,
               const monatt::sim::EventQueue &events, std::size_t maxSpans)
    : network_(network), queue_(events), maxSpans_(maxSpans),
      origin_(Clock::now())
{
    channels_.push_back("");
    customerEntity_ = intern(entities_, entityIndex_, "customer");
    simEntity_ = intern(entities_, entityIndex_, "sim");
    network_.setAdversary([this](const monatt::net::Envelope &env) {
        onSend(env);
        return std::optional<monatt::net::Envelope>(env);
    });
}

Tracer::~Tracer()
{
    network_.setAdversary(nullptr);
}

std::uint32_t
Tracer::intern(std::vector<std::string> &table,
               std::map<std::string, std::uint32_t> &index,
               const std::string &name)
{
    const auto [it, inserted] =
        index.emplace(name, static_cast<std::uint32_t>(table.size()));
    if (inserted)
        table.push_back(name);
    return it->second;
}

void
Tracer::onSend(const monatt::net::Envelope &env)
{
    ++messages_;
    const std::size_t bytes = env.wireSize();
    wireBytes_ += bytes;
    const Module from = moduleOf(env.src);
    if (from == Module::Controller && moduleOf(env.dst) == Module::Controller)
        replicationBytes_ += bytes;
    if (sent_)
        return;
    sent_ = true;
    senderModule_ = from;
    sender_ = intern(entities_, entityIndex_, env.src);
    senderChannel_ = static_cast<std::uint16_t>(
        intern(channels_, channelIndex_, env.channel));
}

void
Tracer::endEvent()
{
    const Clock::time_point end = Clock::now();
    const Module m = sent_ ? senderModule_ : Module::Timer;
    selfSeconds_[static_cast<std::size_t>(m)] +=
        std::chrono::duration<double>(end - eventStart_).count();
    ++events_;
    queueDepthSum_ += queue_.pending();
    if (!sent_)
        ++timerEvents_;
    lastWasTimer_ = !sent_;
    lastSeconds_ = std::chrono::duration<double>(end - eventStart_).count();
    lastSpan_ = addSpan(eventStart_, end, sent_ ? sender_ : simEntity_,
                        sent_ ? senderChannel_ : std::uint16_t{0}, m);
    sent_ = false;
}

void
Tracer::markCompleted()
{
    // A silent event that settled a request delivered the customer's
    // reply: move it from sim.timer to the customer.
    if (!lastWasTimer_)
        return;
    lastWasTimer_ = false;
    selfSeconds_[static_cast<std::size_t>(Module::Timer)] -= lastSeconds_;
    selfSeconds_[static_cast<std::size_t>(Module::Customer)] +=
        lastSeconds_;
    --timerEvents_;
    if (lastSpan_ < spans_.size()) {
        spans_[lastSpan_].module = Module::Customer;
        spans_[lastSpan_].entity = customerEntity_;
    }
}

void
Tracer::customerWork(Clock::time_point start, Clock::time_point end)
{
    selfSeconds_[static_cast<std::size_t>(Module::Customer)] +=
        std::chrono::duration<double>(end - start).count();
    addSpan(start, end, customerEntity_, 0, Module::Customer);
}

std::size_t
Tracer::addSpan(Clock::time_point start, Clock::time_point end,
                std::uint32_t entity, std::uint16_t channel, Module m)
{
    if (spans_.size() >= maxSpans_) {
        ++droppedSpans_;
        return spans_.size();
    }
    using Micros = std::chrono::duration<double, std::micro>;
    spans_.push_back({Micros(start - origin_).count(),
                      Micros(end - start).count(), entity, channel, m});
    return spans_.size() - 1;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                    "{\"dropped_spans\": %llu}, \"traceEvents\": [\n",
                 static_cast<unsigned long long>(droppedSpans_));
    // One track per module, then the spans.
    for (std::size_t m = 0; m < static_cast<std::size_t>(Module::Count);
         ++m) {
        std::fprintf(f,
                     "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, \"name\": "
                     "\"thread_name\", \"args\": {\"name\": \"%s\"}}\n",
                     m == 0 ? "" : ",", m,
                     moduleName(static_cast<Module>(m)));
    }
    for (const Span &s : spans_) {
        std::fprintf(f,
                     ",{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"name\": "
                     "\"%s\", \"cat\": \"%s\", \"ts\": %.3f, \"dur\": "
                     "%.3f}\n",
                     static_cast<unsigned>(s.module),
                     entities_[s.entity].c_str(),
                     channels_[s.channel].c_str(), s.startUs, s.durationUs);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
