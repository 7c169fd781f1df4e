/**
 * @file
 * The controller's cloud database (nova database, §6.1).
 *
 * "We modify the controller's database to enable it to store the
 * customers' specifications about the security properties required
 * for their VMs... We also add new tables in the database, which
 * record each server's monitoring and attestation capabilities."
 * Those two extensions are first-class here: VmRecord carries the
 * requested properties, ServerRecord carries the capability set the
 * property_filter consults.
 */

#ifndef MONATT_CONTROLLER_DATABASE_H
#define MONATT_CONTROLLER_DATABASE_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/time_types.h"
#include "proto/property.h"
#include "proto/wire_schema.h"
#include "sim/stage_timer.h"

namespace monatt::controller
{

/** VM lifecycle status. */
enum class VmStatus
{
    Scheduling,
    Networking,
    Mapping,
    Spawning,
    Attesting,
    Running,
    Suspended,
    Migrating,
    Terminated,
    Failed,
};

/** Human-readable status name. */
std::string vmStatusName(VmStatus s);

/** One VM's record. */
struct VmRecord
{
    std::string vid;
    std::string name;
    std::string customer; //!< Owning customer's node id.
    std::string imageName;
    std::string flavorName;
    std::uint64_t imageSizeMb = 0;
    Bytes image;
    std::uint32_t vcpus = 1;
    std::uint64_t ramMb = 0;
    std::uint64_t diskGb = 0;
    std::vector<proto::SecurityProperty> properties;
    std::string serverId;
    VmStatus status = VmStatus::Scheduling;
    sim::StageTimer launchTimer; //!< Figure 9 stage breakdown.
    int launchAttempts = 0;
    SimTime launchedAt = 0;

    static constexpr auto fields()
    {
        using M = VmRecord;
        using proto::field;
        return std::tuple{
            field(&M::vid, 1, "vid"),
            field(&M::name, 2, "name"),
            field(&M::customer, 3, "customer"),
            field(&M::imageName, 4, "imageName"),
            field(&M::flavorName, 5, "flavorName"),
            field(&M::imageSizeMb, 6, "imageSizeMb"),
            field(&M::image, 7, "image"),
            field(&M::vcpus, 8, "vcpus"),
            field(&M::ramMb, 9, "ramMb"),
            field(&M::diskGb, 10, "diskGb"),
            field(&M::properties, 11, "properties")
                .atMost(proto::kMaxProperties),
            field(&M::serverId, 12, "serverId"),
            field(&M::status, 13, "status"),
            proto::CustomField<M>{14, "launchStages", wire::WireType::Len,
                                  &putStages, &takeStage},
            proto::CustomField<M>{15, "openStage", wire::WireType::Len,
                                  &putOpenStage, &takeOpenStage},
            field(&M::launchAttempts, 16, "launchAttempts"),
            field(&M::launchedAt, 17, "launchedAt"),
        };
    }

    // launchTimer travels as its completed stages (one field 14 per
    // stage, in order) plus the open stage, if any (field 15).
    static void putStages(wire::WireWriter &w, std::uint32_t number,
                          const VmRecord &rec);
    static bool takeStage(VmRecord &rec, const wire::WireField &in);
    static void putOpenStage(wire::WireWriter &w, std::uint32_t number,
                             const VmRecord &rec);
    static bool takeOpenStage(VmRecord &rec, const wire::WireField &in);
};

/** One cloud server's record. */
struct ServerRecord
{
    std::string id;
    std::set<proto::SecurityProperty> capabilities;
    std::uint64_t totalRamMb = 0;
    std::uint64_t totalDiskGb = 0;
    std::uint64_t allocatedRamMb = 0;
    std::uint64_t allocatedDiskGb = 0;

    /**
     * Host evicted from scheduling: a rollback/stale-TCB verdict (§5)
     * marked its firmware untrustworthy. Quarantined hosts keep their
     * existing allocations (in-flight migrations must still release
     * them) but never qualify as a placement or migration target until
     * the operator re-admits them.
     */
    bool quarantined = false;

    std::uint64_t freeRamMb() const { return totalRamMb - allocatedRamMb; }
    std::uint64_t freeDiskGb() const
    {
        return totalDiskGb - allocatedDiskGb;
    }

    static constexpr auto fields()
    {
        using M = ServerRecord;
        using proto::field;
        return std::tuple{
            field(&M::id, 1, "id"),
            field(&M::capabilities, 2, "capabilities")
                .atMost(proto::kMaxProperties),
            field(&M::totalRamMb, 3, "totalRamMb"),
            field(&M::totalDiskGb, 4, "totalDiskGb"),
            field(&M::allocatedRamMb, 5, "allocatedRamMb"),
            field(&M::allocatedDiskGb, 6, "allocatedDiskGb"),
            field(&M::quarantined, 7, "quarantined"),
        };
    }
};

/** The database. */
class CloudDatabase
{
  public:
    /** Register a server (replaces an existing record). */
    void addServer(ServerRecord record);

    /** Server lookup; nullptr when unknown. */
    ServerRecord *server(const std::string &id);
    const ServerRecord *server(const std::string &id) const;

    /** All server ids. */
    std::vector<std::string> serverIds() const;

    /** Insert a VM record. */
    void addVm(VmRecord record);

    /** VM lookup; nullptr when unknown. */
    VmRecord *vm(const std::string &vid);
    const VmRecord *vm(const std::string &vid) const;

    /** Remove a VM record. */
    void removeVm(const std::string &vid);

    /** All VM ids. */
    std::vector<std::string> vmIds() const;

    /** Charge/release a VM's resources against a server. */
    void allocate(const std::string &serverId, std::uint64_t ramMb,
                  std::uint64_t diskGb);
    void release(const std::string &serverId, std::uint64_t ramMb,
                 std::uint64_t diskGb);

  private:
    std::map<std::string, ServerRecord> servers;
    std::map<std::string, VmRecord> vms;
};

} // namespace monatt::controller

#endif // MONATT_CONTROLLER_DATABASE_H
