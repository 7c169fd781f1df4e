/**
 * @file
 * The Property Interpretation Module's interpreters (§4).
 *
 * Each interpreter closes the semantic gap for one security property:
 * it receives the raw measurements M collected on the cloud server
 * plus the Attestation Server's reference data, and renders a
 * HealthStatus the customer can understand. The registry is open —
 * "the CloudMonatt architecture is flexible and allows the
 * integration of an arbitrary number of security properties and
 * monitoring mechanisms" — so new properties plug in by registering
 * an interpreter and a property→measurement mapping.
 */

#ifndef MONATT_ATTESTATION_INTERPRETERS_H
#define MONATT_ATTESTATION_INTERPRETERS_H

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "proto/measurement.h"
#include "proto/messages.h"

namespace monatt::attestation
{

/** Per-server reference data (known-good platform configuration). */
struct ServerReference
{
    Bytes expectedPlatformDigest; //!< PCR0 || PCR1 for pristine software.
};

/**
 * Minimum-TCB policy (DESIGN.md §18): the appraiser refuses evidence
 * produced by firmware older than one fleet-wide floor version,
 * turning a rollback/downgrade attack into an explicit TcbRollback
 * verdict instead of a trusted-looking Healthy one. The floor applies
 * to every property; 0 disarms the policy. A verified response
 * carrying *no* TCB version measurement is treated as below-floor —
 * absence of evidence is how a pre-upgrade host looks, and trusting
 * it would let an attacker strip the field.
 */
struct TcbPolicy
{
    std::uint64_t fleetFloor = 0;

    bool enabled() const { return fleetFloor > 0; }
};

/** Everything an interpreter may consult. */
struct InterpretationContext
{
    const ServerReference *serverRef = nullptr;

    /** IMA-style appraiser knowledge: digests of pristine catalog
     * images ("The Attestation Server can have full knowledge of the
     * attested software, and the correct pre-calculated hash values",
     * §4.2.2). */
    const std::set<Bytes> *knownGoodImages = nullptr;

    /** The previous verified measurements of the same VM from the
     * measurement archive (nullptr for a first attestation). Used by
     * history-sensitive interpreters such as audit-log integrity. */
    const proto::MeasurementSet *previous = nullptr;
};

/** Interpreter interface. */
class PropertyInterpreter
{
  public:
    virtual ~PropertyInterpreter() = default;

    /** The property this interpreter appraises. */
    virtual proto::SecurityProperty property() const = 0;

    /** Appraise measurements against references. */
    virtual proto::PropertyResult interpret(
        const proto::MeasurementSet &m,
        const InterpretationContext &ctx) const = 0;
};

/** §4.2: platform PCRs + VM image digest vs known-good values. */
class StartupIntegrityInterpreter : public PropertyInterpreter
{
  public:
    proto::SecurityProperty property() const override;
    proto::PropertyResult interpret(
        const proto::MeasurementSet &m,
        const InterpretationContext &ctx) const override;
};

/** §4.3: VMI task list vs guest-reported task list (hidden-process
 * detection). */
class RuntimeIntegrityInterpreter : public PropertyInterpreter
{
  public:
    proto::SecurityProperty property() const override;
    proto::PropertyResult interpret(
        const proto::MeasurementSet &m,
        const InterpretationContext &ctx) const override;
};

/** Tuning knobs for the covert-channel detector (§4.4.3). */
struct CovertChannelDetectorParams
{
    double peakMinMass = 0.15;   //!< Neighborhood mass to count a peak.
    double minSeparationBins = 8; //!< k-means centroid separation.
    double minClusterMass = 0.15; //!< Both clusters must carry mass.
    std::uint64_t minSamples = 10; //!< Below this: Unknown.
};

/** §4.4: two-peak / 2-means analysis of the usage-interval TERs. */
class CovertChannelInterpreter : public PropertyInterpreter
{
  public:
    explicit CovertChannelInterpreter(
        CovertChannelDetectorParams params = {})
        : cfg(params)
    {}

    proto::SecurityProperty property() const override;
    proto::PropertyResult interpret(
        const proto::MeasurementSet &m,
        const InterpretationContext &ctx) const override;

    /**
     * The raw classifier, exposed for the Figure 5 bench: true when
     * the per-bin counts look like covert-channel activity.
     */
    bool looksCovert(const std::vector<std::uint64_t> &counts,
                     std::string *why = nullptr) const;

  private:
    CovertChannelDetectorParams cfg;
};

/**
 * Extension property: audit-log integrity via hash-chain comparison
 * across successive attestations. The log may only grow; a shrinking
 * entry count means truncation, an equal count with a different chain
 * head means rewriting. (A rollback followed by regrowth to at least
 * the previous length is not detectable from head+count alone; a
 * production deployment would spot-check entries — documented
 * limitation of this extension.)
 */
class AuditLogIntegrityInterpreter : public PropertyInterpreter
{
  public:
    proto::SecurityProperty property() const override;
    proto::PropertyResult interpret(
        const proto::MeasurementSet &m,
        const InterpretationContext &ctx) const override;
};

/** §4.5: relative CPU usage (CPU_measure / window) vs the SLA floor. */
class CpuAvailabilityInterpreter : public PropertyInterpreter
{
  public:
    /** SLA floor on a VM's relative CPU usage while it demands CPU
     * (fair share with one CPU-bound co-tenant is 0.5). */
    static constexpr double kSlaMinCpuShare = 0.30;

    proto::SecurityProperty property() const override;
    proto::PropertyResult interpret(
        const proto::MeasurementSet &m,
        const InterpretationContext &ctx) const override;
};

/** Registry of interpreters, keyed by property. */
class InterpreterRegistry
{
  public:
    /** Build a registry pre-loaded with the four paper interpreters. */
    static InterpreterRegistry withDefaults();

    /** Register (or replace) an interpreter. */
    void add(std::unique_ptr<PropertyInterpreter> interpreter);

    /** Interpreter for a property; nullptr when unregistered. */
    const PropertyInterpreter *find(proto::SecurityProperty p) const;

    /** Appraise one property (Unknown when unregistered). */
    proto::PropertyResult interpret(proto::SecurityProperty p,
                                    const proto::MeasurementSet &m,
                                    const InterpretationContext &ctx)
        const;

  private:
    std::map<proto::SecurityProperty,
             std::unique_ptr<PropertyInterpreter>> interpreters;
};

} // namespace monatt::attestation

#endif // MONATT_ATTESTATION_INTERPRETERS_H
