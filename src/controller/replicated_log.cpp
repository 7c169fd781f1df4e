#include "controller/replicated_log.h"

#include <algorithm>

#include "common/logging.h"

namespace monatt::controller
{

using proto::MessageKind;

std::uint64_t
ReplicaLedger::commitLsn(std::uint64_t leaderLsn,
                         std::size_t groupSize) const
{
    std::vector<std::uint64_t> cursors;
    cursors.reserve(acks_.size() + 1);
    cursors.push_back(leaderLsn);
    for (const auto &[follower, lsn] : acks_)
        cursors.push_back(lsn);
    std::sort(cursors.begin(), cursors.end(),
              std::greater<std::uint64_t>());
    const std::size_t needed = groupSize / 2 + 1;
    if (cursors.size() < needed)
        return 0;
    return cursors[needed - 1];
}

ReplicatedLog::ReplicatedLog(std::string self,
                             std::vector<std::string> group,
                             ElectionTuning tuning, bool primary,
                             proto::DurableLog &journal,
                             const proto::WireContext &wire, Io &io)
    : election(std::move(self), std::move(group), tuning),
      journal(journal), wire(wire), io(io)
{
    for (const std::string &id : election.group()) {
        if (id != election.self())
            followers.push_back(id);
    }
    if (primary)
        election.bootstrapLeader();
    knownLeader = groupId();
    ledger.reset(followers);
}

bool
ReplicatedLog::isMember(const std::string &node) const
{
    const std::vector<std::string> &group = election.group();
    return std::find(group.begin(), group.end(), node) != group.end();
}

bool
ReplicatedLog::receive(const std::string &from, MessageKind kind,
                       const Bytes &body, SimTime now)
{
    switch (kind) {
      case MessageKind::ReplicateEntries:
        onEntries(from, body, now);
        return true;
      case MessageKind::ReplicateAck:
        onAck(from, body);
        return true;
      case MessageKind::VoteRequest:
        onVoteRequest(from, body, now);
        return true;
      case MessageKind::VoteGrant:
        onVoteGrant(from, body, now);
        return true;
      default:
        return false;
    }
}

void
ReplicatedLog::redirect(const std::string &customer,
                        std::uint64_t requestId, bool isLaunch)
{
    proto::NotLeader redirect;
    redirect.requestId = requestId;
    redirect.isLaunch = isLaunch;
    // Only hint at a *different* replica; an empty hint tells the
    // customer to fall back to its retransmission rotation.
    redirect.leaderId = knownLeader == election.self() ? "" : knownLeader;
    redirect.round = election.round();
    sendTo(customer, MessageKind::NotLeader, redirect);
}

void
ReplicatedLog::commit(SimTime now)
{
    // Followers sync their mirror in onEntries and must never
    // checkpoint here: their in-memory state is empty, so a snapshot
    // would wipe the mirrored journal. (They stage nothing: output()
    // drops their sends, and losing the lead drops the staged ones.)
    if (journal.replaying() || !leading())
        return;
    if (journal.sync())
        mirrorRound = election.round();
    // Everything this handler staged is gated on the records it just
    // made durable (LSN 0 when the journal is off).
    const std::uint64_t gateLsn = journal.store().lastDurableLsn();
    for (Send &s : staged) {
        s.lsn = gateLsn;
        gate.push_back(std::move(s));
    }
    staged.clear();
    // Stream before checkpointing so followers receive the tail as
    // records; a checkpoint first would force a snapshot install.
    if (journal.store().lastDurableLsn() > lastStreamedLsn) {
        for (const std::string &follower : followers)
            streamTo(follower);
        lastStreamedLsn = journal.store().lastDurableLsn();
    }
    journal.checkpointIfDue(now);
    advanceCommit();
}

void
ReplicatedLog::advanceCommit()
{
    commitLsn_ = std::max(
        commitLsn_, ledger.commitLsn(journal.store().lastDurableLsn(),
                                     election.groupSize()));
    while (!gate.empty() && gate.front().lsn <= commitLsn_) {
        Send send = std::move(gate.front());
        gate.pop_front();
        io.send(send.peer, std::move(send.packed));
    }
}

void
ReplicatedLog::streamTo(const std::string &follower)
{
    const sim::StableStore &disk = journal.store();
    proto::ReplicateEntries msg;
    msg.round = election.round();
    msg.leaderId = election.self();
    msg.commitLsn = commitLsn_;
    std::uint64_t from = ledger.ackOf(follower);
    if (from < disk.snapshotLsn()) {
        // The follower is behind our last checkpoint: the records it
        // misses no longer exist as records, ship the snapshot.
        msg.hasSnapshot = true;
        msg.snapshot = disk.snapshotBytes();
        msg.snapshotLsn = disk.snapshotLsn();
        from = msg.snapshotLsn;
    }
    msg.prevLsn = from;
    disk.forEachDurableSince(from, [&msg](const sim::JournalRecord &rec) {
        msg.records.push_back({rec.lsn, rec.type, rec.payload});
    });
    sendTo(follower, MessageKind::ReplicateEntries, msg);
}

void
ReplicatedLog::onEntries(const std::string &from, const Bytes &body,
                         SimTime now)
{
    if (!isMember(from))
        return;
    auto decoded = proto::decode<proto::ReplicateEntries>(body);
    if (!decoded)
        return;
    const proto::ReplicateEntries &msg = decoded.value();
    if (msg.leaderId != from || msg.round < election.round())
        return;
    lastLeaderContact = now;

    const bool wasLeader = leading();
    if (election.observeLeader(msg.leaderId, msg.round) && wasLeader)
        stepDown();
    knownLeader = msg.leaderId;
    armElectionTimer();

    sim::StableStore &disk = journal.store();
    if (msg.hasSnapshot &&
        (msg.round > mirrorRound || msg.snapshotLsn > disk.lastDurableLsn())) {
        disk.installSnapshot(msg.snapshot, msg.snapshotLsn);
    } else if (!msg.hasSnapshot && msg.round > mirrorRound &&
               disk.lastDurableLsn() > msg.prevLsn) {
        // A new leader's log is authoritative: drop any suffix the old
        // leader streamed to us but never got committed.
        disk.truncateTo(msg.prevLsn);
    }

    // Adopt the contiguous prefix of the streamed tail in one batch.
    // Track the expected LSN locally: adopted records sit in the
    // buffered tail until the sync below, so re-reading
    // lastDurableLsn() mid-loop would adopt one record per message.
    std::vector<sim::JournalRecord> adopted;
    std::uint64_t next = disk.lastDurableLsn() + 1;
    for (const proto::ReplicatedRecord &rec : msg.records) {
        if (rec.lsn < next)
            continue; // duplicate from a retransmission
        if (rec.lsn > next)
            break; // gap: wait for the leader's next (re)stream
        adopted.push_back({rec.lsn, rec.type, rec.payload});
        ++next;
    }
    disk.adoptMany(std::move(adopted));
    journal.sync();
    mirrorRound = msg.round;
    if (msg.commitLsn > commitLsn_)
        commitLsn_ = std::min(msg.commitLsn, disk.lastDurableLsn());

    proto::ReplicateAck ack;
    ack.round = msg.round;
    ack.lastLsn = disk.lastDurableLsn();
    sendTo(from, MessageKind::ReplicateAck, ack);
}

void
ReplicatedLog::onAck(const std::string &from, const Bytes &body)
{
    if (!isMember(from))
        return;
    auto decoded = proto::decode<proto::ReplicateAck>(body);
    if (!decoded)
        return;
    followerSilence[from] = 0;
    const proto::ReplicateAck &msg = decoded.value();
    if (!leading() || msg.round != election.round())
        return;
    ledger.recordAck(from, msg.lastLsn);
    if (msg.lastLsn < journal.store().lastDurableLsn())
        streamTo(from);
    advanceCommit();
}

void
ReplicatedLog::onVoteRequest(const std::string &from, const Bytes &body,
                             SimTime now)
{
    if (!isMember(from))
        return;
    auto decoded = proto::decode<proto::VoteRequest>(body);
    if (!decoded)
        return;
    const proto::VoteRequest &msg = decoded.value();
    const std::uint64_t ownLsn = journal.store().lastDurableLsn();
    if (msg.prevote) {
        // A probe costs nothing to deny. Deny while the group
        // demonstrably has a leader — we are it, or we heard from it
        // within the minimum election timeout — so only a majority
        // that genuinely lost its leader can open an election.
        if (leading())
            return;
        if (lastLeaderContact != 0 &&
            now - lastLeaderContact < election.tuning().electionTimeoutMin)
            return;
        if (!election.considerPrevote(msg.round, msg.lastLogRound,
                                      msg.lastLsn, mirrorRound, ownLsn))
            return;
        io.resetPeer(from);
        proto::VoteGrant grant;
        grant.round = msg.round;
        grant.prevote = true;
        sendTo(from, MessageKind::VoteGrant, grant);
        return;
    }
    const bool wasLeader = leading();
    const bool granted = election.considerVote(
        msg.round, msg.lastLogRound, msg.lastLsn, mirrorRound, ownLsn);
    if (wasLeader && !leading())
        stepDown();
    if (!granted)
        return;
    knownLeader.clear();
    armElectionTimer();
    // The candidate may have restarted since we last talked to it, in
    // which case it cannot open records sealed under the old session;
    // elections are rare enough to afford a fresh handshake per grant.
    io.resetPeer(from);
    proto::VoteGrant grant;
    grant.round = msg.round;
    sendTo(from, MessageKind::VoteGrant, grant);
}

void
ReplicatedLog::onVoteGrant(const std::string &from, const Bytes &body,
                           SimTime now)
{
    if (!isMember(from))
        return;
    auto decoded = proto::decode<proto::VoteGrant>(body);
    if (!decoded)
        return;
    const proto::VoteGrant &msg = decoded.value();
    if (msg.prevote) {
        if (leading() || msg.round != election.round() + 1)
            return;
        if (election.recordPrevote(from))
            campaign(now);
        return;
    }
    if (election.recordVote(from, msg.round))
        becomeLeader(now);
}

void
ReplicatedLog::heartbeat()
{
    if (!leading())
        return;
    // The heartbeat doubles as retransmission: each follower gets the
    // suffix past its last ack (or a snapshot), and its re-ack repairs
    // any cursor state lost to the network.
    for (const std::string &follower : followers) {
        if (++followerSilence[follower] >= kSilentBeatLimit) {
            // No ack for several beats: the follower likely restarted
            // and cannot open records sealed under the old session.
            io.resetPeer(follower);
            followerSilence[follower] = 0;
        }
        streamTo(follower);
    }
    armHeartbeat();
}

void
ReplicatedLog::electionTimeout()
{
    if (leading())
        return;
    // Probe first: a candidacy only opens once a majority signals it
    // could win (pre-vote). The probe spends no round, so a replica
    // that is simply out of touch — resyncing after a restart, or cut
    // off by a lossy link — keeps probing harmlessly instead of
    // deposing a live leader with ever-higher rounds.
    election.startPrevote();
    proto::VoteRequest req;
    req.round = election.round() + 1;
    req.lastLogRound = mirrorRound;
    req.lastLsn = journal.store().lastDurableLsn();
    req.prevote = true;
    for (const std::string &peer : followers)
        sendTo(peer, MessageKind::VoteRequest, req);
    armElectionTimer();
}

void
ReplicatedLog::campaign(SimTime now)
{
    const bool won = election.startCandidacy();
    knownLeader.clear();
    if (won) {
        becomeLeader(now); // own-majority rule: nobody else to ask
        return;
    }
    MONATT_LOG(Info, "repl")
        << election.self() << ": starting election round "
        << election.round();
    proto::VoteRequest req;
    req.round = election.round();
    req.lastLogRound = mirrorRound;
    req.lastLsn = journal.store().lastDurableLsn();
    for (const std::string &peer : followers)
        sendTo(peer, MessageKind::VoteRequest, req);
    armElectionTimer();
}

void
ReplicatedLog::becomeLeader(SimTime now)
{
    MONATT_LOG(Info, "repl")
        << election.self() << ": elected leader of " << groupId()
        << " in round " << election.round();
    io.cancelTimer(ReplicaTimer::Election);
    knownLeader = election.self();
    commitLsn_ = 0;
    gate.clear();
    staged.clear();
    ledger.reset(followers);
    followerSilence.clear();
    // The host replays the journal into live state and re-drives
    // in-flight work; those (re)sends stage here and leave once a
    // majority mirrors the recovery checkpoint.
    io.becameLeader();
    mirrorRound = election.round();
    lastStreamedLsn = journal.store().lastDurableLsn();
    commit(now);
    for (const std::string &follower : followers)
        streamTo(follower);
    armHeartbeat();
}

void
ReplicatedLog::stepDown()
{
    MONATT_LOG(Info, "repl")
        << election.self() << ": stepping down to follower in round "
        << election.round();
    io.steppedDown();
    dropVolatile();
    armElectionTimer();
}

void
ReplicatedLog::dropVolatile()
{
    io.cancelTimer(ReplicaTimer::Heartbeat);
    io.cancelTimer(ReplicaTimer::Election);
    staged.clear();
    gate.clear();
    commitLsn_ = 0;
    lastStreamedLsn = 0;
    followerSilence.clear();
}

void
ReplicatedLog::crash()
{
    dropVolatile();
    lastLeaderContact = 0;
    election.resetToFollower();
}

void
ReplicatedLog::restart(SimTime now)
{
    // Verify the mirror before rejoining: the outage may have torn or
    // rotted the journal. Healing truncates the bad suffix, so the next
    // ack reports the verified horizon and the leader re-streams the
    // damaged range (a snapshot install if the snapshot seal failed).
    journal.verifyMirror();
    election.resetToFollower();
    ledger.reset(followers);
    if (ownVoteIsMajority())
        campaign(now);
    else
        armElectionTimer();
}

void
ReplicatedLog::armHeartbeat()
{
    // A leader whose own copy is a majority has nobody to feed.
    if (!ownVoteIsMajority())
        io.armTimer(ReplicaTimer::Heartbeat,
                    election.tuning().heartbeatInterval);
}

void
ReplicatedLog::armElectionTimer()
{
    io.armTimer(ReplicaTimer::Election, election.electionTimeout());
}

} // namespace monatt::controller
