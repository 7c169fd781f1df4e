/**
 * @file
 * Unit costs of each layer, measured by replaying its public functions
 * on inputs shaped like the workload's: key sizes from the deployment,
 * payload, queue-depth and record sizes observed in the traced run,
 * and the message mix of one operation in the configured wire format.
 */

#ifndef MONATT_PERFBENCH_REPLAY_H
#define MONATT_PERFBENCH_REPLAY_H

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "proto/wire_schema.h"

namespace perfbench
{

class Fleet;

/** Inputs of the replays. */
struct ReplayShape
{
    std::size_t aikBits = 512;
    std::size_t identityKeyBits = 512;
    std::size_t hopPayloadBytes = 0;    //!< Mean datagram size.
    std::size_t queueDepth = 0;         //!< Mean pending events.
    std::size_t journalRecordBytes = 0; //!< Mean journal record size.
    monatt::proto::WireContext wire;
    /** Framed messages of one operation (the observed mix). */
    std::vector<monatt::Bytes> frames;
};

/** Per-operation costs of each layer. */
struct UnitCosts
{
    double keygenMs = 0;        //!< rsaGenerateKeyPair at aikBits.
    double signUs = 0;          //!< rsaSign through a private context.
    double verifyUs = 0;        //!< rsaVerify through a public context.
    double recordUs = 0;        //!< SecureChannel seal + open.
    double codecUs = 0;         //!< Unpack + decode + encode + pack.
    double eventNs = 0;         //!< EventQueue schedule + runOne.
    double journalAppendUs = 0; //!< StableStore append + sync.
};

/**
 * Framed messages one attestation of the fleet's workload sends, built
 * from the fleet's own VMs, reports and measurements; with controller
 * replicas, plus one replication round of a `journalRecordBytes`
 * record.
 */
std::vector<monatt::Bytes> operationFrames(Fleet &fleet,
                                           std::size_t journalRecordBytes);

UnitCosts replayUnitCosts(const ReplayShape &shape, std::uint64_t seed);

} // namespace perfbench

#endif // MONATT_PERFBENCH_REPLAY_H
