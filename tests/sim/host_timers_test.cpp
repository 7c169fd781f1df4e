/**
 * @file
 * Host timers: exact (when, seq) order against global events, cancel
 * and re-arm, the drain contract of runOne() and run(until), and the
 * rule that host code never schedules global events.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

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
