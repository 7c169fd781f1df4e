#include "core/cloud.h"

#include <stdexcept>

#include "common/logging.h"
#include "crypto/sha256.h"
#include "server/catalog.h"

namespace monatt::core
{

Bytes
expectedBootPcr(const Bytes &code)
{
    const Bytes zero(crypto::kSha256DigestSize, 0x00);
    const Bytes codeDigest = crypto::Sha256::hash(code);
    return crypto::Sha256::hashConcat({&zero, &codeDigest});
}

Bytes
expectedPlatformDigest(const Bytes &hypervisorCode, const Bytes &hostOsCode)
{
    Bytes digest = expectedBootPcr(hypervisorCode);
    append(digest, expectedBootPcr(hostOsCode));
    return digest;
}

Cloud::Cloud(CloudConfig config)
    : cfg(std::move(config)), fabric(eventQueue)
{
    fabric.setDefaultLink(cfg.link);

    const int numAs = std::max(cfg.numAttestationServers, 1);
    std::vector<std::string> asIds(static_cast<std::size_t>(numAs));
    for (int i = 0; i < numAs; ++i) {
        asIds[static_cast<std::size_t>(i)] =
            i == 0 ? "attestation-server"
                   : "attestation-server-" + std::to_string(i + 1);
    }

    // Controller shards. Shard 0 keeps the classic id and key seed so
    // a 1-shard deployment is bit-identical to the pre-sharding cloud.
    const int numShards = std::max(cfg.controllerShards, 1);
    std::vector<std::string> shardIds(static_cast<std::size_t>(numShards));
    std::vector<std::uint64_t> shardSeeds(
        static_cast<std::size_t>(numShards));
    for (int k = 0; k < numShards; ++k) {
        const auto idx = static_cast<std::size_t>(k);
        shardIds[idx] = k == 0 ? "cloud-controller"
                               : "controller-shard-" + std::to_string(k);
        shardSeeds[idx] =
            cfg.seed ^
            (0x3 + static_cast<std::uint64_t>(k) * 0x100000ULL);
    }

    // Every controller node id (all replicas of all shards): the
    // servers and Attestation Servers must accept commands from any
    // replica that may become leader.
    const int numReplicas = std::max(cfg.controllerReplicas, 1);
    std::vector<std::string> controllerNodeIds;
    controllerNodeIds.reserve(shardIds.size() *
                              static_cast<std::size_t>(numReplicas));
    for (const std::string &base : shardIds) {
        for (int r = 0; r < numReplicas; ++r)
            controllerNodeIds.push_back(controller::replicaId(base, r));
    }

    // Trusted infrastructure entities.
    pca = std::make_unique<attestation::PrivacyCa>(
        eventQueue, fabric, keyDirectory, "privacy-ca", cfg.timing,
        cfg.seed ^ 0x1);
    pca->setDurable(cfg.durableControlPlane);
    pca->setIssuedCacheCapacity(cfg.dedupCacheCapacity);
    pca->setCheckpointPolicy(cfg.checkpointPolicy);
    pca->setWireContext(cfg.wire);
    keyDirectory.publish("privacy-ca", pca->publicKey());

    for (int i = 0; i < numAs; ++i) {
        attestation::AttestationServerConfig asCfg;
        if (i > 0)
            asCfg.id = asIds[static_cast<std::size_t>(i)];
        asCfg.timing = cfg.timing;
        asCfg.reliability = cfg.reliability;
        asCfg.controllerIds.insert(controllerNodeIds.begin(),
                                   controllerNodeIds.end());
        asCfg.identityKeyBits = cfg.identityKeyBits;
        asCfg.durable = cfg.durableControlPlane;
        asCfg.checkpointPolicy = cfg.checkpointPolicy;
        asCfg.reportCacheCapacity = cfg.dedupCacheCapacity;
        asCfg.tcbPolicy.fleetFloor = cfg.minimumTcbVersion;
        asCfg.tcbPolicy.propertyFloors = cfg.tcbPropertyFloors;
        asCfg.wire = cfg.wire;
        auto as = std::make_unique<attestation::AttestationServer>(
            eventQueue, fabric, keyDirectory, asCfg,
            cfg.seed ^ (0x2 + static_cast<std::uint64_t>(i) * 0x1000));
        keyDirectory.publish(as->id(), as->identityPublic());
        attestors.push_back(std::move(as));
    }

    std::vector<controller::CloudControllerConfig> shardConfigs;
    shardConfigs.reserve(shardIds.size());
    for (std::size_t k = 0; k < shardIds.size(); ++k) {
        controller::CloudControllerConfig ccCfg;
        ccCfg.id = shardIds[k];
        ccCfg.timing = cfg.timing;
        ccCfg.reliability = cfg.reliability;
        ccCfg.attestorIds = asIds;
        ccCfg.identityKeyBits = cfg.identityKeyBits;
        ccCfg.durable = cfg.durableControlPlane;
        ccCfg.checkpointPolicy = cfg.checkpointPolicy;
        ccCfg.relayCacheCapacity = cfg.dedupCacheCapacity;
        ccCfg.wire = cfg.wire;
        shardConfigs.push_back(std::move(ccCfg));
    }
    controlPlane = std::make_unique<controller::ControllerFabric>(
        eventQueue, fabric, keyDirectory, std::move(shardConfigs),
        shardSeeds, cfg.controllerRingVirtualNodes, numReplicas,
        cfg.controllerElection);
    for (std::size_t i = 0; i < controlPlane->numNodes(); ++i) {
        controller::CloudController &node = controlPlane->node(i);
        keyDirectory.publish(node.id(), node.identityPublic());
    }

    // Flavor definitions shared with the servers' catalog.
    for (const server::VmFlavor &f : server::flavorCatalog())
        controlPlane->addFlavor(f.name, f.vcpus, f.ramMb, f.diskGb);

    // Known-good catalog image digests for the IMA-style appraiser.
    for (auto &as : attestors) {
        for (const server::VmImage &img : server::imageCatalog())
            as->addKnownGoodImage(crypto::Sha256::hash(img.content));
    }

    // Cloud servers.
    std::set<proto::SecurityProperty> caps = cfg.serverCapabilities;
    if (caps.empty()) {
        for (proto::SecurityProperty p : proto::allProperties())
            caps.insert(p);
    }

    for (int i = 0; i < cfg.numServers; ++i) {
        attestation::AttestationServer &clusterAs =
            *attestors[static_cast<std::size_t>(i) % attestors.size()];
        server::CloudServerConfig scfg;
        scfg.id = "server-" + std::to_string(i + 1);
        scfg.controllerId = controlPlane->shard(0).id();
        scfg.controllerIds.insert(controllerNodeIds.begin(),
                                  controllerNodeIds.end());
        scfg.attestationServerId = clusterAs.id();
        scfg.pcaId = pca->id();
        scfg.capabilities = caps;
        scfg.pcpus = cfg.serverPcpus;
        scfg.sched = cfg.sched;
        scfg.hypervisorCode = cfg.hypervisorCode;
        scfg.hostOsCode = cfg.hostOsCode;
        scfg.firmwareVersion = cfg.serverFirmwareVersion;
        scfg.timing = cfg.timing;
        scfg.reliability = cfg.reliability;
        scfg.attestorIds.insert(asIds.begin(), asIds.end());
        scfg.identityKeyBits = cfg.identityKeyBits;
        scfg.aikBits = cfg.aikBits;
        scfg.intrusivePause = cfg.serverIntrusivePause;
        scfg.aikReuseLimit = cfg.aikReuseLimit;
        scfg.wire = cfg.wire;

        auto srv = std::make_unique<server::CloudServer>(
            eventQueue, fabric, keyDirectory, scfg,
            cfg.seed + 100 + static_cast<std::uint64_t>(i));
        keyDirectory.publish(srv->id(), srv->identityPublic());

        controller::ServerRecord record;
        record.id = srv->id();
        record.capabilities = caps;
        record.totalRamMb = scfg.totalRamMb;
        record.totalDiskGb = scfg.totalDiskGb;
        controlPlane->addServerRecord(record);

        // Every AS gets every server's reference data: under failover
        // any attestor may be asked to appraise any server.
        attestation::ServerReference ref;
        ref.expectedPlatformDigest =
            expectedPlatformDigest(cfg.hypervisorCode, cfg.hostOsCode);
        for (auto &as : attestors)
            as->setServerReference(srv->id(), ref);
        controlPlane->assignAttestationCluster(srv->id(), clusterAs.id());

        srv->boot();
        servers.push_back(std::move(srv));
    }
}

Customer &
Cloud::addCustomer(const std::string &id)
{
    std::vector<std::vector<std::string>> groups;
    groups.reserve(controlPlane->numShards());
    for (std::size_t k = 0; k < controlPlane->numShards(); ++k)
        groups.push_back(controlPlane->groupIds(k));
    auto customer = std::make_unique<Customer>(
        eventQueue, fabric, keyDirectory, id,
        cfg.seed + 10000 + customers.size(), cfg.reliability,
        controlPlane->ring(), std::move(groups));
    customer->setWireContext(cfg.wire);
    keyDirectory.publish(id, customer->identityPublic());
    customers.push_back(std::move(customer));
    return *customers.back();
}

server::CloudServer &
Cloud::server(std::size_t index)
{
    return *servers.at(index);
}

server::CloudServer *
Cloud::serverById(const std::string &id)
{
    for (auto &srv : servers) {
        if (srv->id() == id)
            return srv.get();
    }
    return nullptr;
}

server::CloudServer *
Cloud::serverHosting(const std::string &vid)
{
    for (auto &srv : servers) {
        if (srv->hasVm(vid))
            return srv.get();
    }
    return nullptr;
}

void
Cloud::installFaultPlan(const sim::FaultPlanConfig &planConfig)
{
    plan = std::make_unique<sim::FaultPlan>(planConfig);
    fabric.setFaultPlan(plan.get());
    // Arm the disk-side axes on every durable store (nullptr when no
    // storage axis is configured: the stores keep the clean path).
    const sim::StorageFaultModel *storage = plan->storage();
    for (std::size_t i = 0; i < controlPlane->numNodes(); ++i)
        controlPlane->node(i).setStorageFaults(storage);
    for (auto &as : attestors)
        as->setStorageFaults(storage);
    pca->setStorageFaults(storage);
    // Arm the TCB-rollback attacker on every server's measurement
    // path (nullptr when no rollback axis is configured).
    const sim::RollbackFaultModel *rollback = plan->rollback();
    for (auto &srv : servers) {
        srv->setRollbackFaults(rollback, planConfig.activeFrom,
                               planConfig.activeUntil);
    }
    plan->installCrashSchedule(
        eventQueue,
        [this](const std::string &node) {
            const Status st = crashNode(node);
            if (!st) {
                MONATT_LOG(Warn, "cloud") << st.errorMessage();
            }
        },
        [this](const std::string &node) {
            const Status st = restartNode(node);
            if (!st) {
                MONATT_LOG(Warn, "cloud") << st.errorMessage();
            }
        });
}

Status
Cloud::crashNode(const std::string &node)
{
    if (server::CloudServer *srv = serverById(node)) {
        srv->crash();
        return Status::ok();
    }
    for (auto &as : attestors) {
        if (as->id() == node) {
            as->crash();
            return Status::ok();
        }
    }
    if (controller::CloudController *shard =
            controlPlane->shardById(node)) {
        shard->crash();
        return Status::ok();
    }
    if (node == pca->id()) {
        pca->crash();
        return Status::ok();
    }
    return Status::error("crash scheduled for unknown node \"" + node +
                         "\": no server, attestor, controller shard "
                         "replica or pCA has that id");
}

Status
Cloud::restartNode(const std::string &node)
{
    if (server::CloudServer *srv = serverById(node)) {
        srv->restart();
        return Status::ok();
    }
    for (auto &as : attestors) {
        if (as->id() == node) {
            as->restart();
            return Status::ok();
        }
    }
    if (controller::CloudController *shard =
            controlPlane->shardById(node)) {
        shard->restart();
        return Status::ok();
    }
    if (node == pca->id()) {
        pca->restart();
        return Status::ok();
    }
    return Status::error("restart scheduled for unknown node \"" + node +
                         "\": no server, attestor, controller shard "
                         "replica or pCA has that id");
}

Status
Cloud::setNodeWireContext(const std::string &node,
                          const proto::WireContext &ctx)
{
    if (server::CloudServer *srv = serverById(node)) {
        srv->setWireContext(ctx);
        return Status::ok();
    }
    for (auto &as : attestors) {
        if (as->id() == node) {
            as->setWireContext(ctx);
            return Status::ok();
        }
    }
    if (controller::CloudController *shard =
            controlPlane->shardById(node)) {
        shard->setWireContext(ctx);
        return Status::ok();
    }
    if (node == pca->id()) {
        pca->setWireContext(ctx);
        return Status::ok();
    }
    for (auto &customer : customers) {
        if (customer->id() == node) {
            customer->setWireContext(ctx);
            return Status::ok();
        }
    }
    return Status::error("wire-context switch for unknown node \"" +
                         node +
                         "\": no server, attestor, controller shard "
                         "replica, pCA or customer has that id");
}

void
Cloud::runFor(SimTime duration)
{
    eventQueue.advance(duration);
}

bool
Cloud::runUntil(const std::function<bool()> &predicate, SimTime timeout)
{
    const SimTime deadline = eventQueue.now() + timeout;
    for (;;) {
        if (predicate())
            return true;
        const SimTime next = eventQueue.nextEventTime();
        if (next == kTimeNever || next > deadline) {
            // Nothing (in time) left to run; settle the clock.
            if (deadline > eventQueue.now())
                eventQueue.run(deadline);
            return predicate();
        }
        eventQueue.runOne();
    }
}

Result<std::string>
Cloud::launchVm(Customer &customer, const std::string &name,
                const std::string &imageName,
                const std::string &flavorName,
                const std::vector<proto::SecurityProperty> &properties,
                SimTime timeout)
{
    const server::VmImage &img = server::image(imageName);
    return launchVmWithImage(customer, name, imageName, flavorName,
                             properties, img.content, img.sizeMb,
                             timeout);
}

Result<std::string>
Cloud::launchVmWithImage(
    Customer &customer, const std::string &name,
    const std::string &imageName, const std::string &flavorName,
    const std::vector<proto::SecurityProperty> &properties,
    const Bytes &imageContent, std::uint64_t imageSizeMb, SimTime timeout)
{
    const std::uint64_t requestId = customer.requestLaunch(
        name, imageName, flavorName, properties, imageContent,
        imageSizeMb);

    const bool done = runUntil(
        [&] {
            const LaunchOutcome *outcome =
                customer.launchOutcome(requestId);
            return outcome && outcome->done;
        },
        timeout);
    if (!done)
        return Result<std::string>::error("launch timed out");

    const LaunchOutcome *outcome = customer.launchOutcome(requestId);
    if (!outcome->ok)
        return Result<std::string>::error(outcome->error);
    return Result<std::string>::ok(outcome->vid);
}

namespace
{

/** True once a request left the Pending state. */
bool
attestSettled(const Customer &customer, std::uint64_t requestId)
{
    return customer.outcomeFor(requestId).state !=
           AttestationOutcome::Pending;
}

/** Map a settled request to the blocking-helper result. */
Result<VerifiedReport>
attestResult(const Customer &customer, std::uint64_t requestId)
{
    const auto reports = customer.reportsFor(requestId);
    if (!reports.empty())
        return Result<VerifiedReport>::ok(*reports.front());
    const AttestOutcomeRecord rec = customer.outcomeFor(requestId);
    switch (rec.state) {
      case AttestationOutcome::Pending:
        return Result<VerifiedReport>::error("attestation timed out");
      case AttestationOutcome::Unreachable:
        return Result<VerifiedReport>::error(
            rec.reason.empty() ? "attestation service unreachable"
                               : rec.reason);
      default:
        return Result<VerifiedReport>::error(
            rec.reason.empty() ? "attestation failed" : rec.reason);
    }
}

} // namespace

Result<VerifiedReport>
Cloud::attestOnce(Customer &customer, const std::string &vid,
                  const std::vector<proto::SecurityProperty> &properties,
                  SimTime timeout)
{
    const std::uint64_t requestId =
        customer.runtimeAttestCurrent(vid, properties);
    runUntil([&] { return attestSettled(customer, requestId); }, timeout);
    return attestResult(customer, requestId);
}

std::vector<Result<VerifiedReport>>
Cloud::attestMany(Customer &customer,
                  const std::vector<std::string> &vids,
                  const std::vector<proto::SecurityProperty> &properties,
                  SimTime timeout)
{
    // Issue every request before running the simulation, so the whole
    // fan-out is in flight concurrently.
    std::vector<std::uint64_t> requestIds;
    requestIds.reserve(vids.size());
    for (const std::string &vid : vids)
        requestIds.push_back(customer.runtimeAttestCurrent(vid, properties));

    runUntil(
        [&] {
            for (std::uint64_t id : requestIds) {
                if (!attestSettled(customer, id))
                    return false;
            }
            return true;
        },
        timeout);

    std::vector<Result<VerifiedReport>> results;
    results.reserve(vids.size());
    for (std::uint64_t id : requestIds)
        results.push_back(attestResult(customer, id));
    return results;
}

void
Cloud::provisionVmReference(const std::string &vid,
                            attestation::VmReference ref)
{
    for (auto &as : attestors)
        as->setVmReference(vid, ref);
}

} // namespace monatt::core
