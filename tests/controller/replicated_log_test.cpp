/**
 * @file
 * ReplicatedLog driven through a fake Io: no Network, no EventQueue.
 *
 * Each fake host keeps one journaled counter and answers "the
 * customer" with a LaunchResponse per handler; a small world delivers
 * datagrams in FIFO order and fires the earliest due timer. Three
 * replicas elect a leader and commit at a majority, the cursor stalls
 * with two of three down, a deposed leader drops its gated output, and
 * a primary cut off at boot leaves no second leader in its round.
 * A group of one releases its staged sends at the commit point (journal
 * on or off), never arms a timer or sends a control message, and leads
 * again at once after a restart.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "controller/replicated_log.h"

namespace monatt::controller
{
namespace
{

using proto::MessageKind;

/** The fake host's one journal record: its counter. */
struct CountRecord
{
    std::uint64_t value = 0;

    static constexpr auto fields()
    {
        return std::tuple{
            proto::field(&CountRecord::value, 1, "value").always()};
    }
};

constexpr std::uint16_t kCount = 1;

struct World;

/** A fake host around the log under test. */
struct Replica : ReplicatedLog::Io
{
    Replica(World &w, std::string name, std::vector<std::string> group,
            bool primary, bool durable)
        : world(w), id(std::move(name)),
          journal(
              id, durable, {},
              [this] {
                  proto::Snapshot snap;
                  snap.add(kCount, CountRecord{count});
                  return snap;
              },
              [this](const sim::JournalRecord &rec) {
                  if (auto r = proto::decode<CountRecord>(rec.payload))
                      count = r.value().value;
              }),
          log(id, std::move(group), {}, primary, journal, *this)
    {
        log.start();
    }

    /** A handler body: mutate, journal, answer the customer. */
    void work()
    {
        ++count;
        journal.append(kCount, CountRecord{count});
        proto::LaunchResponse resp;
        resp.requestId = count;
        resp.vid = id;
        log.output("customer",
                   proto::pack(MessageKind::LaunchResponse, resp));
    }

    /** One whole event handler: work, then the commit point. */
    void handle();

    void crash()
    {
        up = false;
        journal.crash();
        count = 0;
        log.crash();
    }

    void restart();

    // ReplicatedLog::Io
    void send(const std::string &peer, Bytes packed) override;
    void resetPeer(const std::string &) override {}
    void armTimer(ReplicaTimer timer, SimTime delay) override;
    void cancelTimer(ReplicaTimer timer) override { due.erase(timer); }
    void becameLeader() override
    {
        ++leaderCalls;
        journal.recover();
    }
    void steppedDown() override
    {
        ++stepDowns;
        journal.fence();
        count = 0;
    }

    World &world;
    std::string id;
    std::uint64_t count = 0; //!< Volatile state, rebuilt from the journal.
    proto::DurableLog journal;
    ReplicatedLog log;
    bool up = true;
    std::map<ReplicaTimer, SimTime> due; //!< Armed timers.
    int arms = 0;
    int controlSends = 0;
    int leaderCalls = 0;
    int stepDowns = 0;
};

struct Datagram
{
    std::string from;
    std::string to;
    Bytes packed;
};

/** Datagrams in FIFO order, timers by due time, nothing else. */
struct World
{
    SimTime now = 0;
    std::map<std::string, std::unique_ptr<Replica>> nodes;
    std::deque<Datagram> inFlight;
    std::set<std::string> cut; //!< Replicas whose links are down.
    std::vector<proto::LaunchResponse> outputs; //!< Released sends.

    Replica &add(const std::string &id, std::vector<std::string> group,
                 bool primary, bool durable = true)
    {
        auto node = std::make_unique<Replica>(*this, id, std::move(group),
                                              primary, durable);
        return *(nodes[id] = std::move(node));
    }

    Replica &at(const std::string &id) { return *nodes.at(id); }

    /** Deliver everything in flight, including what deliveries send. */
    void deliver()
    {
        while (!inFlight.empty()) {
            Datagram d = std::move(inFlight.front());
            inFlight.pop_front();
            Replica &to = at(d.to);
            if (!to.up || cut.count(d.from) != 0 || cut.count(d.to) != 0)
                continue;
            auto msg = proto::unpackMessage(d.packed);
            ASSERT_TRUE(msg.isOk());
            to.log.receive(d.from, msg.value().kind, msg.value().body, now);
        }
    }

    /** Advance `duration`: deliver, then fire the earliest due timer. */
    void runFor(SimTime duration)
    {
        const SimTime until = now + duration;
        for (;;) {
            deliver();
            Replica *next = nullptr;
            ReplicaTimer which = ReplicaTimer::Heartbeat;
            SimTime when = until + 1;
            for (auto &[id, node] : nodes) {
                for (const auto &[timer, at] : node->due) {
                    if (node->up && at < when) {
                        next = node.get();
                        which = timer;
                        when = at;
                    }
                }
            }
            if (next == nullptr)
                break;
            now = when;
            next->due.erase(which);
            next->log.timerFired(which);
        }
        now = until;
    }
};

void
Replica::handle()
{
    work();
    log.commit(world.now);
}

void
Replica::restart()
{
    up = true;
    log.restart(world.now);
}

void
Replica::send(const std::string &peer, Bytes packed)
{
    auto msg = proto::unpackMessage(packed);
    ASSERT_TRUE(msg.isOk());
    if (msg.value().kind == MessageKind::LaunchResponse) {
        auto resp = proto::decode<proto::LaunchResponse>(msg.value().body);
        ASSERT_TRUE(resp.isOk());
        world.outputs.push_back(resp.take());
        return;
    }
    ++controlSends;
    world.inFlight.push_back({id, peer, std::move(packed)});
}

void
Replica::armTimer(ReplicaTimer timer, SimTime delay)
{
    ++arms;
    due[timer] = world.now + delay;
}

const std::vector<std::string> kGroup{"a", "b", "c"};

// --- Groups of three ---------------------------------------------------

TEST(ReplicatedLogTest, ThreeReplicasElectALeaderAndCommitAtMajority)
{
    World world;
    for (const std::string &id : kGroup)
        world.add(id, kGroup, /*primary=*/false);
    world.runFor(seconds(5));

    std::vector<Replica *> leaders, followers;
    for (const std::string &id : kGroup)
        (world.at(id).log.leading() ? leaders : followers)
            .push_back(&world.at(id));
    ASSERT_EQ(leaders.size(), 1u) << "exactly one leader is elected";
    Replica &leader = *leaders.front();
    EXPECT_GE(leader.log.round(), 1u);
    EXPECT_EQ(leader.leaderCalls, 1);
    for (const Replica *f : followers)
        EXPECT_EQ(f->log.role(), ReplicaRole::Follower);

    // One follower goes dark; the other plus the leader are a majority.
    followers.front()->crash();
    Replica &live = *followers.back();
    leader.handle();
    const std::uint64_t lsn = leader.journal.store().lastDurableLsn();
    EXPECT_LT(leader.log.committedLsn(), lsn);
    EXPECT_TRUE(world.outputs.empty())
        << "output waits for a majority copy of its records";

    world.deliver();
    EXPECT_EQ(live.journal.store().lastDurableLsn(), lsn);
    EXPECT_EQ(leader.log.committedLsn(), lsn);
    ASSERT_EQ(world.outputs.size(), 1u);
    EXPECT_EQ(world.outputs[0].requestId, 1u);
    EXPECT_EQ(world.outputs[0].vid, leader.id);
}

TEST(ReplicatedLogTest, CursorStallsWithTwoOfThreeDown)
{
    World world;
    Replica &a = world.add("a", kGroup, /*primary=*/true);
    Replica &b = world.add("b", kGroup, false);
    Replica &c = world.add("c", kGroup, false);
    b.crash();
    c.crash();

    for (int i = 0; i < 5; ++i)
        a.handle();
    world.runFor(seconds(10));
    EXPECT_EQ(a.journal.store().lastDurableLsn(), 5u);
    EXPECT_EQ(a.log.committedLsn(), 0u);
    EXPECT_TRUE(world.outputs.empty());
    EXPECT_TRUE(a.log.leading()) << "two dead followers depose nobody";

    // One follower back restores the majority: the gate drains in order.
    b.restart();
    world.runFor(seconds(1));
    EXPECT_EQ(b.journal.store().lastDurableLsn(), 5u);
    EXPECT_EQ(a.log.committedLsn(), 5u);
    ASSERT_EQ(world.outputs.size(), 5u);
    for (std::size_t i = 0; i < world.outputs.size(); ++i)
        EXPECT_EQ(world.outputs[i].requestId, i + 1);
}

TEST(ReplicatedLogTest, DeposedLeaderDropsItsGatedOutput)
{
    World world;
    Replica &a = world.add("a", kGroup, /*primary=*/true);
    Replica &b = world.add("b", kGroup, false);
    Replica &c = world.add("c", kGroup, false);

    // The followers learn the round-1 leader; then it is cut off, and
    // still executes and gates its output.
    world.runFor(seconds(1));
    world.cut.insert("a");
    a.handle();
    EXPECT_EQ(a.journal.store().lastDurableLsn(), 1u);

    // The majority side times out and elects a round-2 leader.
    world.runFor(seconds(10));
    ASSERT_NE(b.log.leading(), c.log.leading());
    Replica &successor = b.log.leading() ? b : c;
    EXPECT_EQ(successor.log.round(), 2u);
    EXPECT_TRUE(a.log.leading()) << "the cut-off leader has heard nothing";

    // Healed: the successor's stream deposes the old leader, whose
    // gated reply and never-committed record are both dropped.
    world.cut.clear();
    world.runFor(seconds(5));
    EXPECT_EQ(a.log.role(), ReplicaRole::Follower);
    EXPECT_EQ(a.log.round(), 2u);
    EXPECT_EQ(a.stepDowns, 1);
    EXPECT_EQ(a.journal.store().lastDurableLsn(),
              successor.journal.store().lastDurableLsn());
    EXPECT_TRUE(world.outputs.empty())
        << "a deposed leader must never release its reign's output";
}

TEST(ReplicatedLogTest, PartitionAtBootElectsNoSecondRoundOneLeader)
{
    // The primary boots as the round-1 leader and is cut off before
    // its first heartbeat reaches anyone. The other two elect a
    // leader among themselves, which must not be a second round-1
    // leader: a replica that later hears both would accept either
    // stream.
    World world;
    Replica &a = world.add("a", kGroup, /*primary=*/true);
    world.cut.insert("a");
    Replica &b = world.add("b", kGroup, false);
    Replica &c = world.add("c", kGroup, false);
    world.runFor(seconds(10));

    ASSERT_TRUE(a.log.leading());
    ASSERT_NE(b.log.leading(), c.log.leading());
    const Replica &successor = b.log.leading() ? b : c;
    EXPECT_NE(successor.log.round(), a.log.round())
        << "two replicas lead round " << a.log.round();
}

// --- A group of one ----------------------------------------------------

TEST(ReplicatedLogTest, GroupOfOneReleasesStagedSendsAtTheCommitPoint)
{
    for (const bool durable : {true, false}) {
        SCOPED_TRACE(durable ? "journal on" : "journal off");
        World world;
        Replica &solo = world.add("solo", {"solo"}, true, durable);
        solo.work();
        EXPECT_TRUE(world.outputs.empty()) << "staged until the commit";
        solo.log.commit(world.now);
        ASSERT_EQ(world.outputs.size(), 1u);
        EXPECT_EQ(solo.log.committedLsn(), durable ? 1u : 0u);

        solo.handle();
        EXPECT_EQ(world.outputs.size(), 2u);
    }
}

TEST(ReplicatedLogTest, GroupOfOneArmsNoTimerAndSendsNoControlMessage)
{
    World world;
    Replica &solo = world.add("solo", {"solo"}, true);
    for (int i = 0; i < 3; ++i)
        solo.handle();
    solo.crash();
    solo.restart();
    solo.handle();
    world.runFor(seconds(30));

    EXPECT_EQ(solo.arms, 0);
    EXPECT_EQ(solo.controlSends, 0);
    EXPECT_EQ(world.outputs.size(), 4u);
}

TEST(ReplicatedLogTest, GroupOfOneLeadsAgainAtOnceAfterRestart)
{
    World world;
    Replica &solo = world.add("solo", {"solo"}, true);
    for (int i = 0; i < 3; ++i)
        solo.handle();
    EXPECT_EQ(solo.log.round(), 1u);

    solo.crash();
    EXPECT_EQ(solo.log.role(), ReplicaRole::Follower);
    EXPECT_EQ(solo.count, 0u);

    // No time passes: its own vote is a majority, so the restart wins
    // a fresh round on the spot and replays the journal.
    solo.restart();
    EXPECT_TRUE(solo.log.leading());
    EXPECT_EQ(solo.log.round(), 2u);
    EXPECT_EQ(solo.leaderCalls, 1);
    EXPECT_EQ(solo.count, 3u);

    solo.handle();
    ASSERT_EQ(world.outputs.size(), 4u);
    EXPECT_EQ(world.outputs.back().requestId, 4u);
}

} // namespace
} // namespace monatt::controller
