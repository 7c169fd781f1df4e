/**
 * @file
 * Security properties and health verdicts.
 *
 * §4: "A healthy VM satisfies the security properties the customer
 * requested for his leased VM." The four properties here are the
 * paper's four case studies; the architecture treats the set as open
 * (the Attestation Server's interpreter registry in
 * attestation/interpreters.h accepts new entries), matching §4.1's
 * "CloudMonatt is flexible enough to support a variety of detection
 * mechanisms".
 */

#ifndef MONATT_PROTO_PROPERTY_H
#define MONATT_PROTO_PROPERTY_H

#include <cstdint>
#include <string>
#include <vector>

namespace monatt::proto
{

/** The security properties a customer can request monitoring for. */
enum class SecurityProperty : std::uint8_t
{
    StartupIntegrity = 1,       //!< §4.2: platform + VM image hashes.
    RuntimeIntegrity = 2,       //!< §4.3: VMI task-list cross-check.
    CovertChannelFreedom = 3,   //!< §4.4: CPU usage-interval analysis.
    CpuAvailability = 4,        //!< §4.5: SLA CPU-share verification.

    /**
     * Extension beyond the paper's four case studies, built on the
     * "logging, auditing and provenance mechanisms" §4 says the
     * architecture can integrate: the guest's append-only audit log
     * is measured as a hash chain; the Attestation Server compares
     * successive measurements to detect truncation or rewriting.
     */
    AuditLogIntegrity = 5,
};

/** All defined properties. */
const std::vector<SecurityProperty> &allProperties();

/** Decode bound on a property list's length. */
inline constexpr std::size_t kMaxProperties = 64;

/** Human-readable property name. */
std::string propertyName(SecurityProperty p);

/** The appraisal outcome for one property. */
enum class HealthStatus : std::uint8_t
{
    Healthy = 0,      //!< Property held over the measured window.
    Compromised = 1,  //!< Property violated.
    Unknown = 2,      //!< Could not be determined (e.g. no data).

    /**
     * The evidence itself is stale: the host's firmware TCB version
     * is below the verifier's minimum-TCB floor, or the quote was a
     * replay of pre-upgrade measurements ("Insecure Until Proven
     * Updated", Buhren et al.). Distinct from Compromised — the
     * measured content may look healthy, but a downgraded TCB cannot
     * be trusted to have measured honestly.
     */
    TcbRollback = 3,
};

/** Human-readable status name. */
std::string healthStatusName(HealthStatus s);

} // namespace monatt::proto

#endif // MONATT_PROTO_PROPERTY_H
