#include "controller/database.h"

#include <stdexcept>


namespace monatt::controller
{

std::string
vmStatusName(VmStatus s)
{
    switch (s) {
      case VmStatus::Scheduling:
        return "scheduling";
      case VmStatus::Networking:
        return "networking";
      case VmStatus::Mapping:
        return "block_device_mapping";
      case VmStatus::Spawning:
        return "spawning";
      case VmStatus::Attesting:
        return "attestation";
      case VmStatus::Running:
        return "running";
      case VmStatus::Suspended:
        return "suspended";
      case VmStatus::Migrating:
        return "migrating";
      case VmStatus::Terminated:
        return "terminated";
      case VmStatus::Failed:
        return "failed";
    }
    return "unknown";
}

void
CloudDatabase::addServer(ServerRecord record)
{
    servers[record.id] = std::move(record);
}

ServerRecord *
CloudDatabase::server(const std::string &id)
{
    const auto it = servers.find(id);
    return it == servers.end() ? nullptr : &it->second;
}

const ServerRecord *
CloudDatabase::server(const std::string &id) const
{
    const auto it = servers.find(id);
    return it == servers.end() ? nullptr : &it->second;
}

std::vector<std::string>
CloudDatabase::serverIds() const
{
    std::vector<std::string> ids;
    ids.reserve(servers.size());
    for (const auto &[id, rec] : servers)
        ids.push_back(id);
    return ids;
}

void
CloudDatabase::addVm(VmRecord record)
{
    vms[record.vid] = std::move(record);
}

VmRecord *
CloudDatabase::vm(const std::string &vid)
{
    const auto it = vms.find(vid);
    return it == vms.end() ? nullptr : &it->second;
}

const VmRecord *
CloudDatabase::vm(const std::string &vid) const
{
    const auto it = vms.find(vid);
    return it == vms.end() ? nullptr : &it->second;
}

void
CloudDatabase::removeVm(const std::string &vid)
{
    vms.erase(vid);
}

std::vector<std::string>
CloudDatabase::vmIds() const
{
    std::vector<std::string> ids;
    ids.reserve(vms.size());
    for (const auto &[vid, rec] : vms)
        ids.push_back(vid);
    return ids;
}

void
CloudDatabase::allocate(const std::string &serverId, std::uint64_t ramMb,
                        std::uint64_t diskGb)
{
    ServerRecord *rec = server(serverId);
    if (!rec)
        throw std::out_of_range("allocate: unknown server " + serverId);
    rec->allocatedRamMb += ramMb;
    rec->allocatedDiskGb += diskGb;
}

void
CloudDatabase::release(const std::string &serverId, std::uint64_t ramMb,
                       std::uint64_t diskGb)
{
    ServerRecord *rec = server(serverId);
    if (!rec)
        return;
    rec->allocatedRamMb -= std::min(rec->allocatedRamMb, ramMb);
    rec->allocatedDiskGb -= std::min(rec->allocatedDiskGb, diskGb);
}

namespace
{

/** A completed launch stage as journaled (VmRecord field 14). */
struct StageEntry
{
    std::string name;
    SimTime start = 0;
    SimTime end = 0;

    static constexpr auto fields()
    {
        using M = StageEntry;
        using proto::field;
        return std::tuple{
            field(&M::name, 1, "name").always(),
            field(&M::start, 2, "start").always(),
            field(&M::end, 3, "end").always(),
        };
    }
};

/** The open launch stage as journaled (VmRecord field 15). */
struct OpenStageEntry
{
    std::string name;
    SimTime start = 0;

    static constexpr auto fields()
    {
        using M = OpenStageEntry;
        using proto::field;
        return std::tuple{
            field(&M::name, 1, "name").always(),
            field(&M::start, 2, "start").always(),
        };
    }
};

} // namespace

void
VmRecord::putStages(wire::WireWriter &w, std::uint32_t number,
                    const VmRecord &rec)
{
    for (const sim::StageRecord &s : rec.launchTimer.stages())
        w.putLen(number, proto::encode(StageEntry{s.name, s.start, s.end}));
}

bool
VmRecord::takeStage(VmRecord &rec, const wire::WireField &in)
{
    auto s = proto::decode<StageEntry>(in.bytes);
    if (!s)
        return false;
    rec.launchTimer.record(s.value().name, s.value().start, s.value().end);
    return true;
}

void
VmRecord::putOpenStage(wire::WireWriter &w, std::uint32_t number,
                       const VmRecord &rec)
{
    const sim::StageTimer &t = rec.launchTimer;
    if (t.hasOpenStage())
        w.putLen(number, proto::encode(OpenStageEntry{t.openStageName(),
                                                      t.openStageStart()}));
}

bool
VmRecord::takeOpenStage(VmRecord &rec, const wire::WireField &in)
{
    auto s = proto::decode<OpenStageEntry>(in.bytes);
    if (!s)
        return false;
    rec.launchTimer.beginStage(s.value().name, s.value().start);
    return true;
}

} // namespace monatt::controller
