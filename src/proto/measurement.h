/**
 * @file
 * Measurements: what the Monitor Module collects and the Trust Module
 * signs.
 *
 * §4.1: "The Attestation Server has a mapping of security property P
 * to measurements M. This gives a list of measurements M that can
 * indicate the security health with respect to the specified property
 * P." A `MeasurementType` names one collectable quantity; a
 * `Measurement` is one collected instance; a `MeasurementSet` is the
 * M of Figure 3, whose declared encoding (proto/wire_schema.h) is the
 * exact bytes hashed into the quote Q3 = H(Vid || rM || M || N3).
 */

#ifndef MONATT_PROTO_MEASUREMENT_H
#define MONATT_PROTO_MEASUREMENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/time_types.h"
#include "proto/property.h"
#include "proto/wire_schema.h"

namespace monatt::proto
{

/** Collectable measurement kinds (the rM vocabulary). */
enum class MeasurementType : std::uint8_t
{
    PlatformPcrs = 1,         //!< Hypervisor + host-OS PCR values.
    VmImageDigest = 2,        //!< SHA-256 of the VM image as launched.
    TaskListVmi = 3,          //!< Task list via VM introspection.
    TaskListGuest = 4,        //!< Task list as the guest reports it.
    UsageIntervalHistogram = 5, //!< 30 TERs of CPU-usage intervals.
    CpuMeasure = 6,           //!< Virtual runtime in the window.
    AuditLogDigest = 7,       //!< Hash-chain head + entry count.

    /**
     * The platform's firmware TCB version (values[0]), measured at
     * boot like the PCRs and covered by the signed quote Q3. The AS
     * requests it alongside any property when its minimum-TCB policy
     * is armed, so a rolled-back host cannot omit it silently.
     */
    TcbVersion = 8,
};

/** Human-readable measurement-type name. */
std::string measurementTypeName(MeasurementType t);

/** One collected measurement. */
struct Measurement
{
    MeasurementType type{};
    std::vector<std::string> strings;     //!< Task lists.
    std::vector<std::uint64_t> values;    //!< TER / counter values.
    Bytes digest;                         //!< Hash-valued payloads.
    SimTime windowLength = 0;             //!< Collection window.

    bool operator==(const Measurement &o) const = default;

    static constexpr auto fields()
    {
        using M = Measurement;
        return std::tuple{
            field(&M::type, 1, "type").always(),
            field(&M::strings, 2, "strings").atMost(100000),
            field(&M::values, 3, "values").atMost(1000000),
            field(&M::digest, 4, "digest"),
            field(&M::windowLength, 5, "windowLength"),
        };
    }
};

/** The measurement vector M of Figure 3. */
struct MeasurementSet
{
    std::vector<Measurement> items;

    /** Find a measurement by type; nullptr when absent. */
    const Measurement *find(MeasurementType t) const;

    bool operator==(const MeasurementSet &o) const = default;

    static constexpr auto fields()
    {
        return std::tuple{
            field(&MeasurementSet::items, 1, "items").atMost(1000)};
    }
};

/**
 * The requested-measurements list rM of Figure 3. It travels (and is
 * hashed into Q3) as a packed varint list: encodePacked(rm).
 */
using MeasurementRequestList = std::vector<MeasurementType>;

/** Decode bound on rM's length. */
inline constexpr std::size_t kMaxRequestList = 100;

/**
 * The property→measurement mapping of §4.1 (what the Attestation
 * Server asks a cloud server to collect for a given property).
 */
MeasurementRequestList measurementsForProperty(SecurityProperty p);

/** True when a measurement is taken over a runtime window (§4.4). */
bool isWindowed(MeasurementType t);

/** True when any property needs a windowed measurement. */
bool measuresWindow(const std::vector<SecurityProperty> &properties);

} // namespace monatt::proto

#endif // MONATT_PROTO_MEASUREMENT_H
