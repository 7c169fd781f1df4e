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
 * Protocol reliability knobs: per-hop retransmission timers with
 * exponential backoff and bounded retry budgets, plus controller-side
 * health tracking / failover. A timer waits out the service time its
 * request asked for (TimingModel::forwardBudget, measureBudget) plus
 * the RTO of the network remainder, so on a loss-free wire every timer
 * is cancelled before it fires, and enabling reliability perturbs
 * nothing (cancelled events neither run nor advance the clock).
 */
struct ReliabilityModel
{
    /**
     * Master switch for all protocol timers. Off by default so
     * entities constructed standalone (unit fixtures, historic
     * deployments) keep their exact legacy behavior; the full-stack
     * Cloud opts in via enabledDefaults().
     */
    bool enabled = false;

    // --- SecureEndpoint handshake ------------------------------------
    SimTime handshakeRto = msec(250);
    int handshakeRetryLimit = 5;

    // --- Customer -> Controller (whole attestation) --------------------
    SimTime customerRto = seconds(10);
    int customerRetryLimit = 3;

    // --- Controller -> Attestation Server (AttestForward) --------------
    SimTime forwardRto = seconds(6);
    int forwardRetryLimit = 2;

    // --- Attestation Server -> Cloud Server (MeasureRequest) -----------
    SimTime measureRto = seconds(4);
    int measureRetryLimit = 2;

    // --- Cloud Server -> privacy CA (CertRequest) ----------------------
    SimTime certRto = seconds(2);
    int certRetryLimit = 3;

    // --- Controller health tracking / failover -------------------------
    int failoverLimit = 1;    //!< Max AS switches per request.
    int suspectThreshold = 2; //!< Timeouts before an AS is suspect.

    // --- Adaptive retry budgets ----------------------------------------
    /**
     * When set, the forward and measure hops derive the RTO of their
     * network remainder (RTT minus the request's service budget) from
     * samples; the fixed RTOs above bound it until a hop's first
     * sample. The customer, cert and hello timers stay fixed: each
     * already exceeds its hop's service time.
     */
    bool adaptiveRto = true;
    SimTime minRto = msec(200);  //!< Floor for the adaptive RTO.
    SimTime maxRto = seconds(30); //!< Ceiling for the adaptive RTO.

    /** A hop's retransmit policy (sim::Exchange does the arithmetic). */
    sim::RetryPolicy
    policy(SimTime rto, int retryLimit) const
    {
        return {rto, retryLimit, adaptiveRto, minRto, maxRto};
    }

    sim::RetryPolicy customer() const
    {
        return policy(customerRto, customerRetryLimit);
    }
    sim::RetryPolicy forward() const
    {
        return policy(forwardRto, forwardRetryLimit);
    }
    sim::RetryPolicy measure() const
    {
        return policy(measureRto, measureRetryLimit);
    }
    sim::RetryPolicy cert() const { return policy(certRto, certRetryLimit); }

    /** The default knob set with the master switch on. */
    static ReliabilityModel
    enabledDefaults()
    {
        ReliabilityModel model;
        model.enabled = true;
        return model;
    }
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
