#include "controller/election.h"

namespace monatt::controller
{

namespace
{

/** FNV-1a over (id, round) for the deterministic timeout jitter. */
std::uint64_t
fnvIdRound(const std::string &id, std::uint64_t round)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : id)
        h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
    for (int i = 0; i < 8; ++i) {
        h = (h ^ (round & 0xff)) * 0x100000001b3ULL;
        round >>= 8;
    }
    return h;
}

} // namespace

ElectionState::ElectionState(std::string self,
                             std::vector<std::string> group,
                             ElectionTuning tuning)
    : self_(std::move(self)), group_(std::move(group)), tuning_(tuning)
{
}

SimTime
ElectionState::electionTimeout() const
{
    const SimTime window =
        tuning_.electionTimeoutMax > tuning_.electionTimeoutMin
            ? tuning_.electionTimeoutMax - tuning_.electionTimeoutMin
            : 1;
    const std::uint64_t jitter =
        fnvIdRound(self_, round_ + 1) %
        static_cast<std::uint64_t>(window);
    return tuning_.electionTimeoutMin +
           static_cast<SimTime>(jitter);
}

void
ElectionState::bootstrap(bool primary)
{
    round_ = 1;
    votedRound_ = 1;
    role_ = primary ? ReplicaRole::Leader : ReplicaRole::Follower;
    votes_.clear();
    prevotes_.clear();
}

bool
ElectionState::startCandidacy()
{
    ++round_;
    votedRound_ = round_;
    role_ = ReplicaRole::PotentialLeader;
    votes_.clear();
    prevotes_.clear();
    votes_.insert(self_);
    return tally();
}

bool
ElectionState::tally()
{
    if (votes_.size() < majority())
        return false;
    role_ = ReplicaRole::Leader;
    return true;
}

void
ElectionState::startPrevote()
{
    prevotes_.clear();
    prevotes_.insert(self_);
}

bool
ElectionState::considerPrevote(std::uint64_t candRound,
                               std::uint64_t candLastLogRound,
                               std::uint64_t candLastLsn,
                               std::uint64_t ownLastLogRound,
                               std::uint64_t ownLastLsn) const
{
    if (candRound <= round_)
        return false;
    return candLastLogRound > ownLastLogRound ||
           (candLastLogRound == ownLastLogRound &&
            candLastLsn >= ownLastLsn);
}

bool
ElectionState::recordPrevote(const std::string &voter)
{
    if (role_ == ReplicaRole::Leader)
        return false;
    prevotes_.insert(voter);
    return prevotes_.size() >= majority();
}

bool
ElectionState::considerVote(std::uint64_t candRound,
                            std::uint64_t candLastLogRound,
                            std::uint64_t candLastLsn,
                            std::uint64_t ownLastLogRound,
                            std::uint64_t ownLastLsn)
{
    if (candRound < round_ || candRound <= votedRound_)
        return false;
    const bool upToDate =
        candLastLogRound > ownLastLogRound ||
        (candLastLogRound == ownLastLogRound &&
         candLastLsn >= ownLastLsn);
    if (!upToDate) {
        // Still adopt the round so our next candidacy outbids it.
        observeRound(candRound);
        return false;
    }
    round_ = candRound;
    votedRound_ = candRound;
    role_ = ReplicaRole::Follower;
    votes_.clear();
    prevotes_.clear();
    return true;
}

bool
ElectionState::recordVote(const std::string &voter, std::uint64_t round)
{
    if (role_ != ReplicaRole::PotentialLeader || round != round_)
        return false;
    votes_.insert(voter);
    return tally();
}

bool
ElectionState::observeLeader(const std::string &leaderId,
                             std::uint64_t round)
{
    if (round < round_ || leaderId == self_)
        return false;
    const bool changed =
        round > round_ || role_ != ReplicaRole::Follower;
    round_ = round;
    if (role_ != ReplicaRole::Follower) {
        role_ = ReplicaRole::Follower;
        votes_.clear();
        prevotes_.clear();
    }
    return changed;
}

bool
ElectionState::observeRound(std::uint64_t round)
{
    if (round <= round_)
        return false;
    round_ = round;
    if (role_ != ReplicaRole::Follower) {
        role_ = ReplicaRole::Follower;
        votes_.clear();
        prevotes_.clear();
    }
    return true;
}

void
ElectionState::resetToFollower()
{
    role_ = ReplicaRole::Follower;
    votes_.clear();
    prevotes_.clear();
}

std::string
replicaId(const std::string &baseId, int index)
{
    if (index <= 0)
        return baseId;
    return baseId + "-replica-" + std::to_string(index);
}

} // namespace monatt::controller
