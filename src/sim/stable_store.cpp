#include "sim/stable_store.h"

#include <iterator>

#include "common/crc32c.h"

namespace monatt::sim
{

namespace
{

/** FNV-1a 64-bit, folded over a byte range. */
std::uint64_t
fnvBytes(std::uint64_t h, const std::uint8_t *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ULL;
    return h;
}

std::uint64_t
fnvU64(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
    {
        h = (h ^ (v & 0xff)) * 0x100000001b3ULL;
        v >>= 8;
    }
    return h;
}

/** XOR mask used to corrupt a stored CRC so it cannot verify. */
constexpr std::uint32_t kCrcSpoil = 0xA5A5A5A5u;

} // namespace

StableStore::StableStore(std::string nodeId) : nodeId(std::move(nodeId)) {}

std::uint32_t
StableStore::frameCrc(const JournalRecord &rec)
{
    std::uint32_t c = crc32cU64(0, rec.lsn);
    c = crc32cU64(c, rec.type);
    return crc32c(c, rec.payload.data(), rec.payload.size());
}

std::uint32_t
StableStore::snapshotCrc(const Bytes &snap, std::uint64_t coveredLsn)
{
    std::uint32_t c = crc32cU64(0, coveredLsn);
    return crc32c(c, snap.data(), snap.size());
}

StableStore::Frame
StableStore::seal(JournalRecord rec)
{
    Frame frame;
    frame.crc = frameCrc(rec);
    frame.rec = std::move(rec);
    return frame;
}

std::uint64_t
StableStore::append(std::uint16_t type, Bytes payload)
{
    JournalRecord rec;
    rec.lsn = nextLsn++;
    rec.type = type;
    rec.payload = std::move(payload);
    const std::uint64_t prev = chainTail();
    buffered.push_back(seal(std::move(rec)));
    buffered.back().prevLsn = prev;
    ++counters.appends;
    return buffered.back().rec.lsn;
}

std::uint64_t
StableStore::appendMany(std::uint16_t type, std::vector<Bytes> payloads)
{
    if (payloads.empty())
        return 0;
    ++counters.appendBatches;
    counters.appends += payloads.size();
    buffered.reserve(buffered.size() + payloads.size());
    for (Bytes &payload : payloads)
    {
        JournalRecord rec;
        rec.lsn = nextLsn++;
        rec.type = type;
        rec.payload = std::move(payload);
        const std::uint64_t prev = chainTail();
        buffered.push_back(seal(std::move(rec)));
        buffered.back().prevLsn = prev;
    }
    return buffered.back().rec.lsn;
}

void
StableStore::sync()
{
    ++counters.syncs;
    for (const Frame &frame : buffered)
        journalBytes_ += frame.rec.payload.size();
    durable.insert(durable.end(),
                   std::make_move_iterator(buffered.begin()),
                   std::make_move_iterator(buffered.end()));
    buffered.clear();
}

void
StableStore::checkpoint(Bytes snap)
{
    ++counters.checkpoints;
    snapshot = std::move(snap);
    snapshotValid = true;
    snapshotRotted = false;
    snapshotLsn_ = nextLsn - 1;
    snapshotCrc_ = snapshotCrc(snapshot, snapshotLsn_);
    // The snapshot captures current in-memory state, which already
    // includes any buffered mutations — both journals are superseded.
    durable.clear();
    buffered.clear();
    journalBytes_ = 0;
}

void
StableStore::crash()
{
    if (faults != nullptr)
    {
        crashWithFaults();
        return;
    }
    ++counters.crashes;
    counters.recordsLost += buffered.size();
    buffered.clear();
}

void
StableStore::rotFrame(Frame &frame)
{
    // Flip one byte of the frame: a payload byte, or — when the draw
    // lands past the payload (always, for empty payloads) — a byte of
    // the stored CRC, so even a zero-length record cannot verify.
    const std::size_t span = frame.rec.payload.size() + 4;
    const std::size_t idx =
        faults->corruptByte(nodeId, frame.rec.lsn, span);
    if (idx < frame.rec.payload.size())
        frame.rec.payload[idx] ^= 0xA5;
    else
        frame.crc ^= 0xA5u << (8 * (idx - frame.rec.payload.size()));
    frame.rotted = true;
    ++counters.recordsRotted;
}

void
StableStore::crashWithFaults()
{
    ++counters.crashes;

    // Torn tail-write: walk the un-synced page cache in LSN order.
    // A prefix of it may have reached the platter before the power
    // cut; the prefix ends at the first record that misses.
    std::size_t i = 0;
    for (; i < buffered.size(); ++i)
    {
        if (!faults->tailPersists(nodeId, buffered[i].rec.lsn))
            break;
        journalBytes_ += buffered[i].rec.payload.size();
        durable.push_back(std::move(buffered[i]));
        ++counters.recordsTornPersisted;
    }

    // The boundary record may land half-written: payload torn in the
    // middle, frame CRC unable to verify.
    if (i < buffered.size())
    {
        Frame &boundary = buffered[i];
        if (faults->halfWrites(nodeId, boundary.rec.lsn))
        {
            boundary.rec.payload.resize(boundary.rec.payload.size() / 2);
            boundary.crc ^= kCrcSpoil;
            journalBytes_ += boundary.rec.payload.size();
            durable.push_back(std::move(boundary));
            ++counters.recordsHalfWritten;
        }
        else
        {
            ++counters.recordsLost;
        }
        ++i;
    }

    // Lost-sync reordering: a record past the boundary may persist
    // out of order, leaving an LSN gap in front of it that replay
    // cannot bridge.
    for (; i < buffered.size(); ++i)
    {
        Frame &orphan = buffered[i];
        if (faults->reorderPersists(nodeId, orphan.rec.lsn))
        {
            journalBytes_ += orphan.rec.payload.size();
            durable.push_back(std::move(orphan));
            ++counters.recordsReordered;
        }
        else
        {
            ++counters.recordsLost;
        }
    }
    buffered.clear();

    // Media bit-rot over the outage. The verdict for a (node, LSN)
    // never changes, so the per-frame `rotted` guard is what keeps a
    // second crash from flipping the corruption back out.
    for (Frame &frame : durable)
        if (!frame.rotted && faults->rots(nodeId, frame.rec.lsn))
            rotFrame(frame);

    if (snapshotValid && !snapshotRotted &&
        faults->snapshotRots(nodeId, snapshotLsn_))
    {
        const std::size_t span = snapshot.size() + 4;
        const std::size_t idx =
            faults->corruptByte(nodeId, snapshotLsn_, span);
        if (idx < snapshot.size())
            snapshot[idx] ^= 0xA5;
        else
            snapshotCrc_ ^= 0xA5u << (8 * (idx - snapshot.size()));
        snapshotRotted = true;
        ++counters.snapshotsRotted;
    }
}

StableStore::HealSummary
StableStore::heal()
{
    HealSummary summary;

    // The snapshot seal first: the journal is a delta on top of the
    // snapshot, so a corrupt base makes every journal frame
    // unusable no matter how intact. Dropping both resets the store
    // to a fresh disk; a replica mirror in this state acks LSN 0 and
    // the leader re-streams from scratch.
    if (snapshotValid &&
        snapshotCrc(snapshot, snapshotLsn_) != snapshotCrc_)
    {
        summary.snapshotQuarantined = true;
        summary.truncatedRecords += durable.size();
        ++counters.snapshotsQuarantined;
        counters.recordsTruncated += durable.size();
        snapshot.clear();
        snapshotValid = false;
        snapshotRotted = false;
        snapshotCrc_ = 0;
        snapshotLsn_ = 0;
        durable.clear();
        journalBytes_ = 0;
        return summary;
    }

    // Longest verified prefix: every frame must checksum AND chain
    // onto the record actually in front of it. LSN *values* may skip
    // (records lost to an earlier crash burn LSNs, and the writer
    // knowingly chained past them) — what must hold is that each
    // frame's back-pointer names the surviving predecessor. A reorder
    // orphan back-points at its lost sync-mate instead, so the chain
    // breaks exactly at real corruption.
    std::size_t keep = 0;
    std::uint64_t prev = snapshotLsn_;
    while (keep < durable.size())
    {
        const Frame &frame = durable[keep];
        if (frame.prevLsn != prev || frameCrc(frame.rec) != frame.crc)
            break;
        prev = frame.rec.lsn;
        ++keep;
    }

    if (keep == durable.size())
        return summary;

    // Classify the dropped suffix: a frame is *quarantined* when it
    // is itself unusable (bad CRC, or a broken back-pointer) and
    // *truncated* when it is intact but stranded behind a bad frame.
    for (std::size_t i = keep; i < durable.size(); ++i)
    {
        const Frame &frame = durable[i];
        const std::uint64_t prevLsn =
            i == 0 ? snapshotLsn_ : durable[i - 1].rec.lsn;
        const bool crcOk = frameCrc(frame.rec) == frame.crc;
        const bool contiguous = frame.prevLsn == prevLsn;
        if (!crcOk || !contiguous)
        {
            ++summary.quarantinedRecords;
            ++counters.recordsQuarantined;
        }
        else
        {
            ++summary.truncatedRecords;
            ++counters.recordsTruncated;
        }
        journalBytes_ -= frame.rec.payload.size();
    }
    durable.resize(keep);
    // nextLsn never regresses on heal: LSNs handed out before the
    // crash must not be reissued for different records.
    return summary;
}

StableStore::RecoveryImage
StableStore::replay()
{
    const HealSummary summary = heal();
    RecoveryImage image;
    image.hasSnapshot = snapshotValid;
    image.snapshot = snapshot;
    image.records.reserve(durable.size());
    for (const Frame &frame : durable)
        image.records.push_back(frame.rec);
    image.clean = summary.clean();
    image.quarantinedRecords = summary.quarantinedRecords;
    image.truncatedRecords = summary.truncatedRecords;
    image.snapshotQuarantined = summary.snapshotQuarantined;
    counters.recordsReplayed += image.records.size();
    return image;
}

StableStore::HealSummary
StableStore::verifyDurable()
{
    return heal();
}

std::vector<JournalRecord>
StableStore::durableSince(std::uint64_t lsn) const
{
    std::vector<JournalRecord> records;
    for (auto it = firstAfter(lsn); it != durable.end(); ++it)
        records.push_back(it->rec);
    return records;
}

void
StableStore::adoptMany(std::vector<JournalRecord> records)
{
    if (records.empty())
        return;
    ++counters.appendBatches;
    counters.appends += records.size();
    nextLsn = records.back().lsn + 1;
    buffered.reserve(buffered.size() + records.size());
    for (JournalRecord &rec : records)
    {
        const std::uint64_t prev = chainTail();
        buffered.push_back(seal(std::move(rec)));
        buffered.back().prevLsn = prev;
    }
}

void
StableStore::installSnapshot(Bytes snap, std::uint64_t lsn)
{
    ++counters.checkpoints;
    snapshot = std::move(snap);
    snapshotValid = true;
    snapshotRotted = false;
    snapshotLsn_ = lsn;
    snapshotCrc_ = snapshotCrc(snapshot, snapshotLsn_);
    nextLsn = lsn + 1;
    durable.clear();
    buffered.clear();
    journalBytes_ = 0;
}

void
StableStore::truncateTo(std::uint64_t lsn)
{
    buffered.clear();
    while (!durable.empty() && durable.back().rec.lsn > lsn)
    {
        journalBytes_ -= durable.back().rec.payload.size();
        durable.pop_back();
    }
    nextLsn = lastDurableLsn() + 1;
}

std::uint64_t
StableStore::digest() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = fnvBytes(h,
                 reinterpret_cast<const std::uint8_t *>(nodeId.data()),
                 nodeId.size());
    h = fnvU64(h, snapshotValid ? 1 : 0);
    if (snapshotValid)
        h = fnvBytes(h, snapshot.data(), snapshot.size());
    for (const Frame &frame : durable)
    {
        h = fnvU64(h, frame.rec.lsn);
        h = fnvU64(h, frame.rec.type);
        h = fnvBytes(h, frame.rec.payload.data(),
                     frame.rec.payload.size());
    }
    return h;
}

} // namespace monatt::sim
