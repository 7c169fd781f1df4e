/**
 * @file
 * Deterministic leader election for a controller replica group.
 *
 * Each replica runs the classic leader / potential-leader / follower
 * state machine over monotone round numbers:
 *
 *  - A follower that misses heartbeats for its election timeout
 *    becomes a potential leader: it bumps the round, votes for
 *    itself, and solicits votes from the group.
 *  - A voter grants at most one vote per round, and only to a
 *    candidate whose mirrored journal is at least as up to date as
 *    its own — compared first by the round that produced the last
 *    mirrored entry, then by LSN — so a deposed leader's divergent,
 *    never-committed tail can never win.
 *  - A candidate collecting a majority (counting itself) becomes the
 *    leader for that round; everyone who observes a higher round
 *    steps down to follower.
 *
 * Timeouts are *deterministic*: each replica's timeout for a given
 * round is the configured minimum plus an FNV-1a hash of (replica id,
 * round) modulo the window. Distinct replicas thus never tie, the
 * same replica never picks the same point twice in a row, and a fixed
 * seed always elects the same leader in the same number of rounds —
 * the property tests/controller/election_test.cpp pins.
 *
 * ElectionState is pure bookkeeping: it owns no timers and sends no
 * messages. ReplicatedLog drives it from its timer fires and the
 * replication message handlers.
 */

#ifndef MONATT_CONTROLLER_ELECTION_H
#define MONATT_CONTROLLER_ELECTION_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/time_types.h"

namespace monatt::controller
{

/** Replica role in the group's consensus state machine. */
enum class ReplicaRole
{
    Follower,
    PotentialLeader,
    Leader,
};

/** Election timing knobs (per CloudControllerConfig). */
struct ElectionTuning
{
    /** Leader → follower heartbeat / replication cadence. */
    SimTime heartbeatInterval = msec(500);
    /** Election timeout window: [min, max). Must satisfy min < max
     *  and min well above the heartbeat interval. */
    SimTime electionTimeoutMin = msec(1500);
    SimTime electionTimeoutMax = msec(3000);
};

/** Per-replica election bookkeeping; see file header. */
class ElectionState
{
  public:
    ElectionState() = default;

    /**
     * @param self  This replica's node id.
     * @param group All replica ids in the group, index 0 = primary.
     */
    ElectionState(std::string self, std::vector<std::string> group,
                  ElectionTuning tuning);

    ReplicaRole role() const { return role_; }
    std::uint64_t round() const { return round_; }
    const std::string &self() const { return self_; }
    std::size_t groupSize() const { return group_.size(); }
    const std::vector<std::string> &group() const { return group_; }
    const ElectionTuning &tuning() const { return tuning_; }

    /** Votes needed to win: strict majority of the group. */
    std::size_t majority() const { return group_.size() / 2 + 1; }

    /**
     * Deterministic election timeout for (self, round + 1): min +
     * fnv(self, round + 1) % (max - min).
     */
    SimTime electionTimeout() const;

    /**
     * Seed the group: every replica starts in round 1 with its vote
     * spent on the primary, which starts as the round-1 leader so a
     * freshly built group needs no election. No other replica can
     * then win round 1, even if the primary's heartbeats never arrive.
     */
    void bootstrap(bool primary);

    /**
     * Become a candidate for the next round, voting for self.
     * @return True when the own vote is already a majority (a group of
     *         one): the replica is leader at once.
     */
    bool startCandidacy();

    /**
     * Begin a pre-vote probe for round() + 1: no round is bumped and
     * no vote is spent, so a probe that fails (or whose initiator is
     * simply out of touch) disturbs nothing. Counts self.
     */
    void startPrevote();

    /**
     * Pre-vote rule, side-effect free: would we vote for this
     * candidate if it ran for `candRound`? The caller additionally
     * denies while it has recent leader contact — the check that
     * keeps a resyncing replica from disrupting a live group.
     */
    bool considerPrevote(std::uint64_t candRound,
                         std::uint64_t candLastLogRound,
                         std::uint64_t candLastLsn,
                         std::uint64_t ownLastLogRound,
                         std::uint64_t ownLastLsn) const;

    /**
     * Record a pre-vote granted by `voter` for round() + 1. Returns
     * true when this completes a majority: the caller should then
     * open a real candidacy with startCandidacy().
     */
    bool recordPrevote(const std::string &voter);

    /**
     * Vote rule: grant iff the candidate's round is beyond anything
     * this replica voted in AND the candidate's log is at least as up
     * to date as ours (by lastLogRound, then LSN). A granted vote
     * adopts the candidate's round.
     */
    bool considerVote(std::uint64_t candRound,
                      std::uint64_t candLastLogRound,
                      std::uint64_t candLastLsn,
                      std::uint64_t ownLastLogRound,
                      std::uint64_t ownLastLsn);

    /**
     * Record a vote granted by `voter` for `round`. Returns true when
     * this vote completes a majority and the replica just became
     * leader (exactly once per round).
     */
    bool recordVote(const std::string &voter, std::uint64_t round);

    /**
     * A message from `leaderId` at `round` proves a leader exists.
     * Adopts the round and steps down to follower if the round is at
     * least ours and we are not that leader. Returns true if the
     * round or role changed.
     */
    bool observeLeader(const std::string &leaderId, std::uint64_t round);

    /** Adopt a higher round seen in any message; step down. */
    bool observeRound(std::uint64_t round);

    /** Reset to follower at the current round (restart path). */
    void resetToFollower();

  private:
    /** Promote on a majority of votes; true exactly when it promotes. */
    bool tally();

    std::string self_;
    std::vector<std::string> group_;
    ElectionTuning tuning_;
    ReplicaRole role_ = ReplicaRole::Follower;
    std::uint64_t round_ = 0;
    std::uint64_t votedRound_ = 0; //!< Highest round we voted in.
    std::set<std::string> votes_;  //!< Voters for our candidacy.
    std::set<std::string> prevotes_; //!< Pre-voters for round_ + 1.
};

/** Replica id for (base shard id, replica index): index 0 keeps the
 *  base id, replica r > 0 appends "-replica-r". */
std::string replicaId(const std::string &baseId, int index);

} // namespace monatt::controller

#endif // MONATT_CONTROLLER_ELECTION_H
