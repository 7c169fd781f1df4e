/**
 * @file
 * Several hypervisors sharing one EventQueue, pinned by a golden
 * digest: every vCPU's statistics and credits, every profiler window,
 * every completion time and the queue's own clock and event count.
 *
 * The scenario mixes everything a host simulates — spinners, services,
 * both attack programs (IPI boosts), a CPU-bound program with a
 * completion callback, pause and resume — and drives it with global
 * events that land on the same instants as the scheduler ticks, some
 * scheduled before the tick they tie with and some after. A change to
 * how host timers are ordered against each other or against global
 * events shows up here as a digest move.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "hypervisor/hypervisor.h"
#include "sim/event_queue.h"
#include "tpm/tpm_emulator.h"
#include "workloads/attacks.h"
#include "workloads/programs.h"
#include "workloads/services.h"

namespace monatt::hypervisor
{
namespace
{

// Captured before scheduler timers left the global event heap; the
// host-local timers must reproduce it bit for bit.
constexpr const char *kGoldenMultiHostDigest =
    "c24a7a6f5daf3d7bcf97264aae5ae99d86b591689b3deef0bca9e4514bb3241b";

void
absorbU64(crypto::Sha256 &digest, std::uint64_t v)
{
    Bytes b;
    for (int i = 0; i < 8; ++i)
        b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    digest.update(b);
}

void
absorbStats(crypto::Sha256 &digest, const CreditScheduler &sched,
            VCpuId vcpu)
{
    const VCpuStats &s = sched.stats(vcpu);
    absorbU64(digest, static_cast<std::uint64_t>(s.runtime));
    absorbU64(digest, s.wakes);
    absorbU64(digest, s.boosts);
    absorbU64(digest, s.preemptions);
    absorbU64(digest, s.dispatches);
    absorbU64(digest, s.ticksAbsorbed);
    absorbU64(digest, static_cast<std::uint64_t>(sched.credits(vcpu)));
    absorbU64(digest, static_cast<std::uint64_t>(sched.state(vcpu)));
}

struct Host
{
    std::unique_ptr<Hypervisor> hv;
    std::unique_ptr<tpm::TpmEmulator> tpm;
    std::vector<DomainId> domains;
};

Host
makeHost(sim::EventQueue &events, int pcpus, bool exactAccounting)
{
    HypervisorConfig cfg;
    cfg.numPCpus = pcpus;
    cfg.sched.exactAccounting = exactAccounting;
    cfg.hypervisorCode = toBytes("xen");
    cfg.hostOsCode = toBytes("dom0");
    Host h;
    h.hv = std::make_unique<Hypervisor>(events, cfg);
    h.tpm = std::make_unique<tpm::TpmEmulator>();
    h.hv->boot(*h.tpm);
    return h;
}

std::string
multiHostDigest()
{
    using namespace workloads;
    sim::EventQueue events;
    crypto::Sha256 samples;
    std::vector<SimTime> completions;

    // Host 0: a spinner and a database service on pCPU 0, the
    // availability attack and a CPU-bound victim on pCPU 1.
    Host h0 = makeHost(events, 2, false);
    const DomainId spin0 = h0.hv->createDomain("spin", 1, 0, toBytes("a"));
    const DomainId db0 = h0.hv->createDomain("db", 1, 0, toBytes("b"));
    const DomainId attacker0 =
        h0.hv->createDomain("attacker", 2, 1, toBytes("c"));
    const DomainId victim0 =
        h0.hv->createDomain("victim", 1, 1, toBytes("d"));
    h0.hv->setBehavior(spin0, 0, std::make_unique<SpinnerProgram>());
    h0.hv->setBehavior(db0, 0, makeService("database"));
    installAvailabilityAttack(*h0.hv, attacker0);
    h0.hv->setBehavior(victim0, 0,
                       std::make_unique<CpuBoundProgram>(
                           msec(800), [&](SimTime t) {
                               completions.push_back(t);
                           }));
    h0.domains = {spin0, db0, attacker0, victim0};

    // Host 1: a covert-channel sender against a spinning receiver on
    // pCPU 0, two services on pCPU 1.
    Host h1 = makeHost(events, 2, false);
    const DomainId receiver1 =
        h1.hv->createDomain("receiver", 1, 0, toBytes("e"));
    const DomainId sender1 =
        h1.hv->createDomain("sender", 2, 0, toBytes("f"), 1024);
    const DomainId web1 = h1.hv->createDomain("web", 1, 1, toBytes("g"));
    const DomainId file1 = h1.hv->createDomain("file", 1, 1, toBytes("h"));
    h1.hv->setBehavior(receiver1, 0, std::make_unique<SpinnerProgram>());
    auto message = std::make_shared<CovertMessage>();
    Rng bits(0xb175);
    for (int i = 0; i < 48; ++i)
        message->bits.push_back(bits.nextBool());
    installCovertSender(*h1.hv, sender1, message,
                        CovertChannelParams::detectPreset());
    h1.hv->setBehavior(web1, 0, makeService("web"));
    h1.hv->setBehavior(file1, 0, makeService("file"));
    h1.domains = {receiver1, sender1, web1, file1};

    // Host 2: exact accounting, one pCPU, a repeating CPU-bound
    // program against a mail service and a spinner.
    Host h2 = makeHost(events, 1, true);
    const DomainId loop2 = h2.hv->createDomain("loop", 1, 0, toBytes("i"));
    const DomainId mail2 = h2.hv->createDomain("mail", 1, 0, toBytes("j"));
    const DomainId spin2 = h2.hv->createDomain("spin", 1, 0, toBytes("k"));
    h2.hv->setBehavior(loop2, 0,
                       std::make_unique<CpuBoundProgram>(
                           msec(120),
                           [&](SimTime t) { completions.push_back(t); },
                           /*repeat=*/true));
    h2.hv->setBehavior(mail2, 0, makeService("mail"));
    h2.hv->setBehavior(spin2, 0, std::make_unique<SpinnerProgram>());
    h2.domains = {loop2, mail2, spin2};

    Host *hosts[] = {&h0, &h1, &h2};

    // A global event reading every host's scheduler state; each
    // sample at a tick instant either precedes or follows the tick.
    auto sample = [&] {
        absorbU64(samples, static_cast<std::uint64_t>(events.now()));
        for (Host *h : hosts) {
            const CreditScheduler &s = h->hv->scheduler();
            for (DomainId d : h->domains) {
                for (VCpuId v : h->hv->domain(d).vcpus) {
                    absorbU64(samples,
                              static_cast<std::uint64_t>(s.credits(v)));
                    absorbU64(samples, static_cast<std::uint64_t>(
                                           s.stats(v).runtime));
                }
            }
            for (int p = 0; p < h->hv->numPCpus(); ++p)
                absorbU64(samples, static_cast<std::uint64_t>(
                                       s.pcpuBusyTime(p)));
        }
    };
    // Scheduled up front: earlier in sequence than the tick each ties
    // with.
    for (int k = 1; k <= 120; ++k)
        events.schedule(msec(10) * k, sample);
    // A self-rescheduling chain: later in sequence than the tick.
    std::function<void()> chain = [&] {
        sample();
        if (events.now() < msec(1190))
            events.scheduleAfter(msec(5), chain);
    };
    events.schedule(msec(5), chain);

    // Profiler windows opened and closed by global events on tick
    // instants, both before and after the tick in sequence.
    events.schedule(msec(100), [&] {
        h0.hv->profiler().startWindow(victim0, events.now());
        h1.hv->profiler().startWindow(receiver1, events.now());
        h2.hv->profiler().startWindow(loop2, events.now());
    });
    events.schedule(msec(245), [&] {
        events.schedule(msec(250), [&] {
            h0.hv->profiler().startWindow(db0, events.now());
            h1.hv->profiler().startWindow(sender1, events.now());
            h2.hv->profiler().startWindow(mail2, events.now());
        });
    });
    events.schedule(msec(600), [&] {
        h0.hv->profiler().stopWindow(victim0, events.now());
        h1.hv->profiler().stopWindow(receiver1, events.now());
    });
    events.schedule(msec(895), [&] {
        events.schedule(msec(900), [&] {
            h0.hv->profiler().stopWindow(db0, events.now());
            h1.hv->profiler().stopWindow(sender1, events.now());
            h2.hv->profiler().stopWindow(loop2, events.now());
        });
    });

    // Pause and resume by global events on tick instants.
    events.schedule(msec(200), [&] { h0.hv->pauseDomain(db0); });
    events.schedule(msec(345), [&] {
        events.schedule(msec(350), [&] { h0.hv->resumeDomain(db0); });
    });
    events.schedule(msec(300), [&] { h1.hv->pauseDomain(sender1); });
    events.schedule(msec(420), [&] { h1.hv->resumeDomain(sender1); });

    // Between runs, from outside the event loop.
    events.run(msec(400));
    h2.hv->pauseDomain(spin2);
    events.run(msec(450));
    h2.hv->resumeDomain(spin2);
    events.run(msec(1200));

    // The scenario exercises what it claims to.
    EXPECT_GE(completions.size(), 4u);
    EXPECT_GT(message->nextBit, 10u);
    EXPECT_GT(h0.hv->scheduler().stats(h0.hv->domain(attacker0).vcpus[1])
                  .boosts,
              0u);
    EXPECT_FALSE(h1.hv->profiler().windowIntervals(sender1).empty());
    EXPECT_FALSE(h0.hv->profiler().windowIntervals(db0).empty());

    crypto::Sha256 digest;
    digest.update(samples.digest());
    for (Host *h : hosts) {
        const CreditScheduler &s = h->hv->scheduler();
        for (DomainId d : h->domains) {
            for (VCpuId v : h->hv->domain(d).vcpus)
                absorbStats(digest, s, v);
            const VmmProfileTool &prof = h->hv->profiler();
            absorbU64(digest,
                      static_cast<std::uint64_t>(prof.windowRuntime(d)));
            absorbU64(digest, static_cast<std::uint64_t>(
                                  prof.windowLength(d, events.now())));
            absorbU64(digest,
                      static_cast<std::uint64_t>(prof.totalRuntime(d)));
            for (double ms : prof.windowIntervals(d))
                absorbU64(digest,
                          static_cast<std::uint64_t>(ms * 1000.0 + 0.5));
        }
        for (int p = 0; p < h->hv->numPCpus(); ++p)
            absorbU64(digest,
                      static_cast<std::uint64_t>(s.pcpuBusyTime(p)));
    }
    for (SimTime t : completions)
        absorbU64(digest, static_cast<std::uint64_t>(t));
    absorbU64(digest, message->nextBit);
    absorbU64(digest, static_cast<std::uint64_t>(events.now()));
    absorbU64(digest, events.executed());
    return toHex(digest.digest());
}

TEST(MultiHostTest, GuestCpuMatchesGolden)
{
    EXPECT_EQ(multiHostDigest(), kGoldenMultiHostDigest)
        << "guest-CPU simulation of hosts sharing one event queue must "
           "stay bit-identical";
}

TEST(MultiHostTest, GuestCpuIsDeterministic)
{
    EXPECT_EQ(multiHostDigest(), multiHostDigest());
}

} // namespace
} // namespace monatt::hypervisor
