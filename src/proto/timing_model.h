/**
 * @file
 * Cloud timing model.
 *
 * First-order cost model of the paper's testbed (three Dell R210II
 * servers, quad-core 3.3 GHz Xeon, 1 Gbps LAN, OpenStack Havana +
 * OpenAttestation). Link latency and bandwidth live in the network
 * layer; everything else — OpenStack stage costs, per-hop REST/OAT
 * processing, TPM-emulator key generation, state save/restore rates —
 * is parameterized here. Defaults are calibrated so the launch
 * breakdown of Figure 9 ("the overhead of the Attestation stage is
 * about 20%") and the response times of Figure 11 reproduce the
 * paper's shape. EXPERIMENTS.md documents the calibration.
 */

#ifndef MONATT_PROTO_TIMING_MODEL_H
#define MONATT_PROTO_TIMING_MODEL_H

#include <cstdint>

#include "common/time_types.h"
#include "sim/exchange.h"

namespace monatt::proto
{

/**
 * Protocol reliability timers, declared once for every entity: per-hop
 * retransmission with exponential backoff and bounded retry budgets,
 * plus the controller's health tracking and failover. Every request
 * timer is armed. A timer waits out the service time its request asked
 * for (TimingModel::forwardBudget, measureBudget) plus the RTO of the
 * network remainder, so on a loss-free wire every timer is cancelled
 * before it fires (cancelled events neither run nor advance the clock).
 *
 * The forward and measure hops pass an RttEstimator to sim::Exchange,
 * so once sampled their remainder RTO adapts within [kMinRto, kMaxRto];
 * the fixed RTOs below bound it until a hop's first sample. The
 * customer, cert and hello hops pass none and keep their fixed RTO:
 * each already exceeds its hop's service time.
 */
struct ReliabilityModel
{
    static constexpr SimTime kMinRto = msec(200);   //!< Adaptive floor.
    static constexpr SimTime kMaxRto = seconds(30); //!< Adaptive ceiling.

    /** SecureEndpoint handshake (the hello). */
    static constexpr sim::RetryPolicy kHello{msec(250), 5, kMinRto,
                                             kMaxRto};
    /** Customer -> Controller (whole attestation). */
    static constexpr sim::RetryPolicy kCustomer{seconds(10), 3, kMinRto,
                                                kMaxRto};
    /** Controller -> Attestation Server (AttestForward). */
    static constexpr sim::RetryPolicy kForward{seconds(6), 2, kMinRto,
                                               kMaxRto};
    /** Attestation Server -> Cloud Server (MeasureRequest). */
    static constexpr sim::RetryPolicy kMeasure{seconds(4), 2, kMinRto,
                                               kMaxRto};
    /** Cloud Server -> privacy CA (CertRequest). */
    static constexpr sim::RetryPolicy kCert{seconds(2), 3, kMinRto,
                                            kMaxRto};

    // --- Controller health tracking / failover -------------------------
    /** AS switches per request. */
    static constexpr int kFailoverLimit = 1;
    /** Forward-budget exhaustions before an AS is suspect. */
    static constexpr int kSuspectThreshold = 2;
};

/** Simulated processing-cost model. */
struct TimingModel
{
    // --- Attestation protocol processing (per hop) -------------------
    SimTime controllerProcessing = msec(60);  //!< nova api/attest_service.
    SimTime attestorProcessing = msec(80);    //!< oat appraiser.
    SimTime serverProcessing = msec(50);      //!< oat client dispatch.
    SimTime pcaProcessing = msec(40);         //!< Certificate issuance.
    SimTime aikGeneration = msec(200);        //!< Per-session {AVKs,ASKs}.
    SimTime interpretation = msec(100);       //!< Property interpretation.
    SimTime staticCollection = msec(80);      //!< PCR / task-list reads.
    SimTime runtimeWindow = seconds(2);       //!< Runtime measure window.

    /**
     * Service time a MeasureRequest asks of a cloud server: collection
     * (the runtime window when any requested measurement is windowed),
     * dispatch, and a fresh AVK with its pCA certification. The
     * requester cannot tell whether the server will reuse an AVK, so
     * it budgets for a fresh one. Retransmit timers wait this out
     * before the network remainder's RTO starts (sim::Exchange).
     */
    SimTime
    measureBudget(bool windowed) const
    {
        return (windowed ? runtimeWindow : staticCollection) +
               serverProcessing + aikGeneration + pcaProcessing;
    }

    /** Service time an AttestForward asks of an Attestation Server:
     * appraisal, the measurement above and interpretation. */
    SimTime
    forwardBudget(bool windowed) const
    {
        return attestorProcessing + measureBudget(windowed) +
               interpretation;
    }

    // --- VM launch stages (Figure 9) ----------------------------------
    SimTime schedulingBase = msec(150);
    SimTime schedulingPerServer = msec(20);
    SimTime networking = msec(800);
    SimTime mappingBase = msec(200);
    SimTime mappingPerDiskGb = msec(8);
    SimTime spawnBase = msec(600);
    double imageReadMbPerSec = 400.0; //!< Image staging from storage.
    SimTime bootPerRamGb = msec(300);

    // --- Remediation responses (Figure 11) ----------------------------
    SimTime terminateBase = msec(600);
    SimTime terminatePerRamGb = msec(200);
    SimTime suspendBase = msec(500);
    double suspendSaveMbPerSec = 500.0;
    SimTime resumeBase = msec(400);
    double resumeLoadMbPerSec = 800.0;
    SimTime migrationResume = msec(300);

    /** Spawning stage: stage the image and boot the guest. */
    SimTime
    spawnTime(std::uint64_t imageSizeMb, std::uint64_t ramMb) const
    {
        const double fetchSec =
            static_cast<double>(imageSizeMb) / imageReadMbPerSec;
        return spawnBase + fromSeconds(fetchSec) +
               bootPerRamGb * static_cast<SimTime>(ramMb) / 1024;
    }

    /** Block_device_mapping stage. */
    SimTime
    mappingTime(std::uint64_t diskGb) const
    {
        return mappingBase +
               mappingPerDiskGb * static_cast<SimTime>(diskGb);
    }

    /** Termination response. */
    SimTime
    terminateTime(std::uint64_t ramMb) const
    {
        return terminateBase +
               terminatePerRamGb * static_cast<SimTime>(ramMb) / 1024;
    }

    /** Suspension response (state save to disk). */
    SimTime
    suspendTime(std::uint64_t ramMb) const
    {
        const double saveSec =
            static_cast<double>(ramMb) / suspendSaveMbPerSec;
        return suspendBase + fromSeconds(saveSec);
    }

    /** Resume from a saved state. */
    SimTime
    resumeTime(std::uint64_t ramMb) const
    {
        const double loadSec =
            static_cast<double>(ramMb) / resumeLoadMbPerSec;
        return resumeBase + fromSeconds(loadSec);
    }
};

} // namespace monatt::proto

#endif // MONATT_PROTO_TIMING_MODEL_H
