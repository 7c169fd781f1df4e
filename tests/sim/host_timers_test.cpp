/**
 * @file
 * Host timers: exact (when, seq) order against global events, cancel
 * and re-arm, the drain contract of runOne() and run(until), the rule
 * that host code never schedules global events, handlers that throw,
 * and a randomized check of the fire order against a reference.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/host_timers.h"

namespace monatt::sim
{
namespace
{

/** A host that logs "<name>:<timer>@<now>" for every fire. */
class LogHost : public HostTimers
{
  public:
    LogHost(EventQueue &queue, std::string name,
            std::vector<std::string> &log)
        : HostTimers(queue), queue(queue), name(std::move(name)), log(log)
    {
    }

    std::function<void(TimerId)> onFire;

  protected:
    void
    onTimer(TimerId id) override
    {
        log.push_back(name + ":" + std::to_string(id) + "@" +
                      std::to_string(queue.now()));
        if (onFire)
            onFire(id);
    }

  private:
    EventQueue &queue;
    std::string name;
    std::vector<std::string> &log;
};

TEST(HostTimersTest, SameInstantOrderFollowsSequence)
{
    EventQueue q;
    std::vector<std::string> log;
    LogHost a(q, "a", log);
    LogHost b(q, "b", log);
    q.schedule(usec(10), [&] { log.push_back("early"); });
    a.arm(0, usec(10));
    q.schedule(usec(10), [&] { log.push_back("late"); });
    b.arm(7, usec(10));
    q.runAll();
    EXPECT_EQ(log, (std::vector<std::string>{"early", "a:0@10", "late",
                                             "b:7@10"}));
    EXPECT_EQ(q.executed(), 4u);
}

TEST(HostTimersTest, DisarmAndRearm)
{
    EventQueue q;
    std::vector<std::string> log;
    LogHost h(q, "h", log);
    h.arm(1, usec(20));
    h.arm(2, usec(10));
    EXPECT_TRUE(h.armed(2));
    h.disarm(2);
    EXPECT_FALSE(h.armed(2));
    h.disarm(2);  // Already disarmed: no-op.
    h.disarm(99); // Never armed: no-op.
    h.arm(3, usec(5));
    h.arm(1, usec(5)); // Re-arm replaces, with a later sequence.
    q.runAll();
    EXPECT_EQ(log, (std::vector<std::string>{"h:3@5", "h:1@5"}));
    EXPECT_FALSE(h.armed(1));
    EXPECT_EQ(q.executed(), 2u);
}

TEST(HostTimersTest, TimerMayRearmItselfFromItsHandler)
{
    EventQueue q;
    std::vector<std::string> log;
    LogHost h(q, "h", log);
    h.onFire = [&](HostTimers::TimerId id) {
        if (q.now() < usec(30))
            h.arm(id, q.now() + usec(10));
    };
    h.arm(0, usec(10));
    q.run(usec(100));
    EXPECT_EQ(log,
              (std::vector<std::string>{"h:0@10", "h:0@20", "h:0@30"}));
}

TEST(HostTimersTest, RunUntilDrainsThroughUntilInclusive)
{
    EventQueue q;
    std::vector<std::string> log;
    LogHost h(q, "h", log);
    h.arm(0, usec(10));
    h.arm(1, usec(20));
    h.arm(2, usec(30));
    q.schedule(usec(15), [&] { log.push_back("global"); });
    EXPECT_EQ(q.run(usec(20)), 3u);
    EXPECT_EQ(log, (std::vector<std::string>{"h:0@10", "global",
                                             "h:1@20"}));
    EXPECT_EQ(q.now(), usec(20));
    EXPECT_TRUE(h.armed(2));
}

TEST(HostTimersTest, RunOneWithoutGlobalEventStepsEarliestHostTimer)
{
    EventQueue q;
    std::vector<std::string> log;
    LogHost a(q, "a", log);
    LogHost b(q, "b", log);
    a.arm(0, usec(30));
    b.arm(0, usec(10));
    b.arm(1, usec(20));
    // Global-only introspection: host timers are not reported.
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.nextEventTime(), kTimeNever);
    ASSERT_TRUE(q.runOne());
    EXPECT_EQ(log, (std::vector<std::string>{"b:0@10"}));
    ASSERT_TRUE(q.runOne());
    ASSERT_TRUE(q.runOne());
    EXPECT_EQ(log, (std::vector<std::string>{"b:0@10", "b:1@20",
                                             "a:0@30"}));
    EXPECT_FALSE(q.runOne());
    EXPECT_EQ(q.executed(), 3u);
}

TEST(HostTimersTest, RunOneDrainsBeforeTheNextGlobalEvent)
{
    EventQueue q;
    std::vector<std::string> log;
    LogHost a(q, "a", log);
    LogHost b(q, "b", log);
    q.schedule(usec(50), [&] { log.push_back("global"); });
    a.arm(0, usec(10));
    a.arm(1, usec(40));
    b.arm(0, usec(20));
    b.arm(1, usec(60));

    // One step drains every host timer due before the global event,
    // host by host: the clock steps back from a's 40 to b's 20, then
    // settles on the latest time fired.
    ASSERT_TRUE(q.runOne());
    EXPECT_EQ(log, (std::vector<std::string>{"a:0@10", "a:1@40",
                                             "b:0@20"}));
    EXPECT_EQ(q.now(), usec(40));
    EXPECT_EQ(q.pending(), 1u);

    ASSERT_TRUE(q.runOne());
    EXPECT_EQ(log.back(), "global");
    EXPECT_EQ(q.now(), usec(50));
    EXPECT_EQ(q.executed(), 4u);
}

TEST(HostTimersTest, HostTimerSchedulingGloballyIsRejected)
{
    EventQueue q;
    std::vector<std::string> log;
    LogHost h(q, "h", log);
    h.onFire = [&](HostTimers::TimerId) {
        q.scheduleAfter(usec(1), [] {});
    };
    h.arm(0, usec(10));
    EXPECT_THROW(q.runAll(), std::logic_error);
    EXPECT_EQ(q.pending(), 0u);
    // The rejection leaves the queue usable from global code.
    bool ran = false;
    q.scheduleAfter(usec(1), [&] { ran = true; });
    q.runAll();
    EXPECT_TRUE(ran);
}

TEST(HostTimersTest, HandlerThatArmsThenThrowsLeavesItsTimerFired)
{
    // The fired timer is gone before its handler runs, so a handler
    // that arms another timer and then throws leaves the same state as
    // one that returned: its own timer disarmed, the new one armed.
    EventQueue q;
    std::vector<std::string> log;
    LogHost h(q, "h", log);
    h.arm(0, usec(10));
    h.arm(1, usec(30));
    h.arm(2, usec(20));
    h.onFire = [&](HostTimers::TimerId id) {
        if (id == 0) {
            h.arm(3, usec(25));
            throw std::runtime_error("handler failed");
        }
    };
    q.schedule(usec(40), [&] { log.push_back("global"); });
    EXPECT_THROW(q.runOne(), std::runtime_error);
    EXPECT_FALSE(h.armed(0));
    EXPECT_TRUE(h.armed(1));
    EXPECT_TRUE(h.armed(2));
    EXPECT_TRUE(h.armed(3));
    EXPECT_EQ(q.now(), usec(10));
    EXPECT_EQ(q.executed(), 1u);

    q.runAll();
    EXPECT_EQ(log, (std::vector<std::string>{"h:0@10", "h:2@20", "h:3@25",
                                             "h:1@30", "global"}));
    EXPECT_EQ(q.executed(), 5u);
    EXPECT_FALSE(h.armed(3));
}

TEST(HostTimersTest, HandlerThatThrowsWithoutArmingLeavesItsTimerFired)
{
    EventQueue q;
    std::vector<std::string> log;
    LogHost h(q, "h", log);
    h.arm(0, usec(10));
    h.arm(1, usec(30));
    h.arm(2, usec(20));
    h.onFire = [&](HostTimers::TimerId id) {
        if (id == 0 && q.now() == usec(10))
            throw std::runtime_error("handler failed");
    };
    // No global event: runOne() steps the earliest host timer.
    EXPECT_THROW(q.runOne(), std::runtime_error);
    EXPECT_FALSE(h.armed(0));
    EXPECT_TRUE(h.armed(1));
    EXPECT_TRUE(h.armed(2));
    EXPECT_EQ(q.now(), usec(10));
    EXPECT_EQ(q.executed(), 1u);

    // The timer can be armed again, and the rest fire in key order.
    h.arm(0, usec(20));
    q.runAll();
    EXPECT_EQ(log, (std::vector<std::string>{"h:0@10", "h:2@20", "h:0@20",
                                             "h:1@30"}));
    EXPECT_EQ(q.executed(), 4u);
}

/** (when, seq): the order one global heap would fire in. */
struct Key
{
    SimTime when;
    std::uint64_t seq;

    auto operator<=>(const Key &) const = default;
};

class RandomHost;

/**
 * Several hosts plus a stream of global events, all making random
 * arm, disarm and re-arm calls from their handlers, with same-instant
 * ties. The model mirrors the queue's sequence counter (every arm and
 * schedule draws one), so it knows each pending key, and it checks
 * every fire against the reference order: a host timer fires first
 * among its host's armed timers and the pending global events, and a
 * global event fires first among everything pending.
 */
class RandomFleet
{
  public:
    static constexpr int kHosts = 4;
    static constexpr HostTimers::TimerId kIds = 6;

    explicit RandomFleet(std::uint64_t seed);

    void run();

    EventQueue queue;
    std::size_t fires = 0;

    void onHostFire(int host, HostTimers::TimerId id);

  private:
    void arm(int host, HostTimers::TimerId id, SimTime when);
    void disarm(int host, HostTimers::TimerId id);
    void scheduleGlobal(SimTime when);
    void onGlobal(Key key);
    /** Random arms and disarms on `host`, as host or global code. */
    void poke(int host);
    SimTime later();
    static bool spend(int &budget);
    void checkArmed(int host) const;

    std::vector<std::unique_ptr<RandomHost>> hosts;
    std::vector<std::map<HostTimers::TimerId, Key>> armedKeys;
    std::set<Key> globals;
    std::uint64_t seq = 0;
    // The global stream ends first, so host timers then step alone.
    int globalBudget = 400;
    int hostBudget = 2000;
    Rng rng;
};

class RandomHost : public HostTimers
{
  public:
    RandomHost(RandomFleet &fleet, int index)
        : HostTimers(fleet.queue), fleet(fleet), index(index)
    {
    }

  protected:
    void onTimer(TimerId id) override { fleet.onHostFire(index, id); }

  private:
    RandomFleet &fleet;
    int index;
};

RandomFleet::RandomFleet(std::uint64_t seed) : armedKeys(kHosts), rng(seed)
{
    for (int h = 0; h < kHosts; ++h)
        hosts.push_back(std::make_unique<RandomHost>(*this, h));
}

SimTime
RandomFleet::later()
{
    // Small steps, a third of them zero: many same-instant ties.
    static constexpr SimTime kSteps[] = {0, 0, 1, 2, 3, 5};
    return queue.now() + kSteps[rng.nextBounded(std::size(kSteps))];
}

bool
RandomFleet::spend(int &budget)
{
    if (budget == 0)
        return false;
    --budget;
    return true;
}

void
RandomFleet::arm(int host, HostTimers::TimerId id, SimTime when)
{
    hosts[host]->arm(id, when);
    armedKeys[host][id] = Key{when, ++seq};
}

void
RandomFleet::disarm(int host, HostTimers::TimerId id)
{
    hosts[host]->disarm(id);
    armedKeys[host].erase(id);
}

void
RandomFleet::scheduleGlobal(SimTime when)
{
    const Key key{when, ++seq};
    queue.schedule(when, [this, key] { onGlobal(key); });
    globals.insert(key);
}

void
RandomFleet::checkArmed(int host) const
{
    for (HostTimers::TimerId id = 0; id < kIds; ++id)
        EXPECT_EQ(hosts[host]->armed(id), armedKeys[host].count(id) != 0)
            << "host " << host << " timer " << id;
}

void
RandomFleet::poke(int host)
{
    const int ops = static_cast<int>(rng.nextBounded(3));
    for (int i = 0; i < ops; ++i) {
        const auto id =
            static_cast<HostTimers::TimerId>(rng.nextBounded(kIds));
        if (!rng.nextBool(0.7))
            disarm(host, id);
        else if (spend(hostBudget))
            arm(host, id, later());
    }
}

void
RandomFleet::onHostFire(int host, HostTimers::TimerId id)
{
    ++fires;
    const auto it = armedKeys[host].find(id);
    ASSERT_NE(it, armedKeys[host].end()) << "fired a disarmed timer";
    const Key key = it->second;
    EXPECT_EQ(queue.now(), key.when);
    for (const auto &[other, k] : armedKeys[host])
        EXPECT_LE(key, k) << "host " << host << " fired " << id
                          << " before " << other;
    if (!globals.empty()) {
        EXPECT_LT(key, *globals.begin()) << "host timer after a global";
    }
    armedKeys[host].erase(it);
    checkArmed(host);

    // Re-arm the fired timer from its own handler, then poke others.
    if (rng.nextBool(0.6) && spend(hostBudget))
        arm(host, id, later());
    poke(host);
    checkArmed(host);
}

void
RandomFleet::onGlobal(Key key)
{
    ++fires;
    EXPECT_EQ(queue.now(), key.when);
    ASSERT_EQ(*globals.begin(), key) << "global events out of order";
    for (int h = 0; h < kHosts; ++h)
        for (const auto &[id, k] : armedKeys[h])
            EXPECT_LT(key, k) << "host " << h << " timer " << id
                              << " was due before a global event";
    globals.erase(globals.begin());

    poke(static_cast<int>(rng.nextBounded(kHosts)));
    if (spend(globalBudget))
        scheduleGlobal(later());
    if (rng.nextBool(0.3) && spend(globalBudget))
        scheduleGlobal(later());
}

void
RandomFleet::run()
{
    for (int h = 0; h < kHosts; ++h)
        for (HostTimers::TimerId id = 0; id < kIds; id += 2)
            arm(h, id, later());
    for (int i = 0; i < 4; ++i)
        scheduleGlobal(later());
    // Through a bound first (run(until) drains through it inclusive),
    // then to quiescence: once the global stream ends, runOne() steps
    // host timers alone.
    queue.run(usec(40));
    for (int h = 0; h < kHosts; ++h)
        for (const auto &[id, k] : armedKeys[h])
            EXPECT_GT(k.when, usec(40)) << "run(until) left a timer due";
    queue.runAll();
    for (int h = 0; h < kHosts; ++h) {
        EXPECT_TRUE(armedKeys[h].empty());
        checkArmed(h);
    }
    EXPECT_TRUE(globals.empty());
    EXPECT_EQ(queue.executed(), fires);
}

TEST(HostTimersTest, RandomArmsFireInReferenceOrder)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        RandomFleet fleet(seed);
        fleet.run();
        EXPECT_GT(fleet.fires, 400u);
    }
}

TEST(HostTimersTest, ArmingInThePastThrows)
{
    EventQueue q;
    std::vector<std::string> log;
    LogHost h(q, "h", log);
    q.run(usec(100));
    EXPECT_THROW(h.arm(0, usec(50)), std::invalid_argument);
    EXPECT_FALSE(h.armed(0));
}

TEST(HostTimersTest, DestroyedHostLeavesTheQueue)
{
    EventQueue q;
    std::vector<std::string> log;
    {
        LogHost h(q, "h", log);
        h.arm(0, usec(10));
    }
    EXPECT_FALSE(q.runOne());
    EXPECT_TRUE(log.empty());
}

} // namespace
} // namespace monatt::sim
