/**
 * @file
 * The replication protocol of a controller replica group, sans IO.
 *
 * Every controller shard is a replica group — a group of one included —
 * and ReplicatedLog is the only code that streams the journal, acks it,
 * gates output on it or runs elections. It owns the group's
 * ReplicaLedger (the majority commit cursor), its ElectionState, journal
 * streaming, snapshot install and follower adopt, the staged-send output
 * gate, the heartbeat and election timers, pre-vote and NotLeader
 * redirects.
 *
 * The log touches no network and no event queue. Its inputs are the
 * four replication messages, the two timer fires, the host's commit
 * point, crash and restart; its outputs go through Io: sends, peer
 * resets, timer arms and cancels, and two callbacks. "Became leader"
 * makes the host replay its DurableLog and re-arm its work; "stepped
 * down" makes it fence and drop its volatile state. A test drives the
 * log with a fake Io (tests/controller/replicated_log_test.cpp).
 *
 * Output commit: every externally visible send a handler makes is
 * staged, tagged at the handler's commit point with the journal LSN the
 * handler made durable, and released once that LSN is durable on a
 * majority. A non-leader drops its sends: only the leader speaks.
 *
 * Group of one: the own-majority rule. A candidacy whose own vote is a
 * majority wins at once, so a restarted replica leads again without
 * waiting out an election timeout, and a leader whose own copy is a
 * majority commits at its own durable LSN — its staged sends leave at
 * the handler's commit point, also at LSN 0 when the journal is off. It
 * has nobody to feed or to keep from campaigning, so it arms no timer
 * and sends no control message.
 */

#ifndef MONATT_CONTROLLER_REPLICATED_LOG_H
#define MONATT_CONTROLLER_REPLICATED_LOG_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "controller/election.h"
#include "proto/durable_log.h"
#include "proto/messages.h"

namespace monatt::controller
{

/**
 * Per-follower ack cursors + the majority commit rule: a record at LSN
 * L is committed once a strict majority of the group (leader included)
 * holds L durably, i.e. the commit LSN is the majority-th largest of
 * {leader's durable LSN} ∪ {follower acks}. With two of three replicas
 * down the cursor can never advance.
 */
class ReplicaLedger
{
  public:
    ReplicaLedger() = default;

    /** @param followers All group members except the leader. */
    explicit ReplicaLedger(std::vector<std::string> followers)
    {
        reset(std::move(followers));
    }

    /** Forget all progress (leadership change / restart). */
    void reset(std::vector<std::string> followers)
    {
        acks_.clear();
        for (std::string &f : followers)
            acks_[std::move(f)] = 0;
    }

    /** Record a cumulative ack; acks never move backwards. */
    void recordAck(const std::string &follower, std::uint64_t lastLsn)
    {
        std::uint64_t &cursor = acks_[follower];
        cursor = std::max(cursor, lastLsn);
    }

    /** Highest LSN `follower` has acknowledged (0 when unknown). */
    std::uint64_t ackOf(const std::string &follower) const
    {
        const auto it = acks_.find(follower);
        return it == acks_.end() ? 0 : it->second;
    }

    /** Majority-durable cursor for a group of `groupSize` replicas whose
     * leader holds `leaderLsn`; 0 until a majority holds anything. */
    std::uint64_t commitLsn(std::uint64_t leaderLsn,
                            std::size_t groupSize) const;

  private:
    std::map<std::string, std::uint64_t> acks_;
};

/** The two timers a replica runs. */
enum class ReplicaTimer
{
    Heartbeat,
    Election,
};

/** One replica's share of its group's replication protocol. */
class ReplicatedLog
{
  public:
    /** Everything the log asks of its host. */
    class Io
    {
      public:
        virtual ~Io() = default;
        /** Put a packed message on the wire to `peer` now. */
        virtual void send(const std::string &peer, Bytes packed) = 0;
        /** Drop the channel to `peer`; the next send re-handshakes. */
        virtual void resetPeer(const std::string &peer) = 0;
        /** Call timerFired(timer) after `delay`, replacing any pending
         * timer of that kind. */
        virtual void armTimer(ReplicaTimer timer, SimTime delay) = 0;
        virtual void cancelTimer(ReplicaTimer timer) = 0;
        /** Won leadership: replay the DurableLog into live state and
         * re-arm in-flight work (its sends stage through output()). */
        virtual void becameLeader() = 0;
        /** Deposed: fence every callback of the old reign and drop the
         * volatile state the new leader now owns. */
        virtual void steppedDown() = 0;
    };

    /**
     * @param group   Every replica id, index 0 = the shard's base id.
     * @param primary Boot as the round-1 leader (replica 0), so a
     *                freshly built group needs no election.
     * @param journal The host's journal; the log streams and mirrors it.
     * @param wire    Schema version the host encodes at.
     */
    ReplicatedLog(std::string self, std::vector<std::string> group,
                  ElectionTuning tuning, bool primary,
                  proto::DurableLog &journal,
                  const proto::WireContext &wire, Io &io);

    // --- Inputs --------------------------------------------------------

    /** Arm the boot timer (call once the host is fully built). */
    void start()
    {
        if (leading())
            armHeartbeat();
        else
            armElectionTimer();
    }

    /** A ReplicateEntries/Ack or VoteRequest/Grant from `from`.
     * @return False when `kind` is not a replication message. */
    bool receive(const std::string &from, proto::MessageKind kind,
                 const Bytes &body, SimTime now);

    void timerFired(ReplicaTimer timer)
    {
        if (timer == ReplicaTimer::Heartbeat)
            heartbeat();
        else
            electionTimeout();
    }

    /** The host's commit point, at the end of every event handler:
     * sync, stream, checkpoint, then release what a majority holds. */
    void commit(SimTime now);

    /** Power cut: drop volatile replication state, rejoin as follower. */
    void crash();

    /** Verify the journal mirror and rejoin: as a follower awaiting the
     * leader's stream, or at once as leader when its own vote is a
     * majority. */
    void restart(SimTime now);

    /** Stage an externally visible send for the output gate; a
     * non-leader drops it. */
    void output(const std::string &peer, Bytes packed)
    {
        if (leading())
            staged.push_back({0, peer, std::move(packed)});
    }

    /** Answer a customer request that reached a non-leader. */
    void redirect(const std::string &customer, std::uint64_t requestId,
                  bool isLaunch);

    // --- State -----------------------------------------------------------

    bool leading() const { return election.role() == ReplicaRole::Leader; }
    ReplicaRole role() const { return election.role(); }
    std::uint64_t round() const { return election.round(); }
    /** Majority-durable output cursor. */
    std::uint64_t committedLsn() const { return commitLsn_; }
    /** The shard's base id (replica 0's id). */
    const std::string &groupId() const { return election.group().front(); }

  private:
    struct Send
    {
        std::uint64_t lsn = 0; //!< Gate LSN (0 while staged).
        std::string peer;
        Bytes packed;
    };

    template <typename M>
    void sendTo(const std::string &peer, proto::MessageKind kind,
                const M &msg)
    {
        io.send(peer, proto::packFor(wire, kind, msg));
    }

    bool isMember(const std::string &node) const;
    bool ownVoteIsMajority() const { return election.majority() == 1; }

    void onEntries(const std::string &from, const Bytes &body, SimTime now);
    void onAck(const std::string &from, const Bytes &body);
    void onVoteRequest(const std::string &from, const Bytes &body,
                       SimTime now);
    void onVoteGrant(const std::string &from, const Bytes &body,
                     SimTime now);

    void heartbeat();
    void electionTimeout();
    /** Run for round + 1 (a pre-vote majority, or a group of one). */
    void campaign(SimTime now);
    void becomeLeader(SimTime now);
    void stepDown();
    void dropVolatile();

    void armHeartbeat();
    void armElectionTimer();

    /** Stream the journal suffix (or the snapshot) to one follower. */
    void streamTo(const std::string &follower);
    /** Recompute the majority cursor; release gated sends up to it. */
    void advanceCommit();

    ElectionState election;
    std::vector<std::string> followers; //!< Group members but self.
    proto::DurableLog &journal;
    const proto::WireContext &wire;
    Io &io;

    ReplicaLedger ledger;      //!< Leader-side follower ack cursors.
    std::string knownLeader;   //!< Best-known leader (redirect hint).
    std::uint64_t commitLsn_ = 0;      //!< Majority-durable cursor.
    std::uint64_t lastStreamedLsn = 0; //!< Leader stream high-water.
    /** Round that produced the last durable journal entry (leader: its
     * own round on sync; follower: the streaming leader's). */
    std::uint64_t mirrorRound = 0;
    /** Consecutive heartbeats per follower without a ReplicateAck. A
     * restarted follower loses its channel keys and rejects records
     * sealed under the old ones, so after kSilentBeatLimit silent beats
     * the leader resets the channel and re-handshakes. */
    std::map<std::string, int> followerSilence;
    static constexpr int kSilentBeatLimit = 3;
    /** When we last accepted the leader's stream. Contact within
     * electionTimeoutMin denies pre-vote probes, so a replica that is
     * merely resyncing after a restart never deposes a live leader. */
    SimTime lastLeaderContact = 0;
    std::vector<Send> staged; //!< This handler's sends, pre-commit.
    std::deque<Send> gate;    //!< FIFO awaiting majority ack of lsn.
};

} // namespace monatt::controller

#endif // MONATT_CONTROLLER_REPLICATED_LOG_H
