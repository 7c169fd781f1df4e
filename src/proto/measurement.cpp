#include "proto/measurement.h"


namespace monatt::proto
{

std::string
measurementTypeName(MeasurementType t)
{
    switch (t) {
      case MeasurementType::PlatformPcrs:
        return "platform-pcrs";
      case MeasurementType::VmImageDigest:
        return "vm-image-digest";
      case MeasurementType::TaskListVmi:
        return "task-list-vmi";
      case MeasurementType::TaskListGuest:
        return "task-list-guest";
      case MeasurementType::UsageIntervalHistogram:
        return "usage-interval-histogram";
      case MeasurementType::CpuMeasure:
        return "cpu-measure";
      case MeasurementType::AuditLogDigest:
        return "audit-log-digest";
      case MeasurementType::TcbVersion:
        return "tcb-version";
    }
    return "unknown";
}

const Measurement *
MeasurementSet::find(MeasurementType t) const
{
    for (const Measurement &m : items) {
        if (m.type == t)
            return &m;
    }
    return nullptr;
}

MeasurementRequestList
measurementsForProperty(SecurityProperty p)
{
    switch (p) {
      case SecurityProperty::StartupIntegrity:
        return {MeasurementType::PlatformPcrs,
                MeasurementType::VmImageDigest};
      case SecurityProperty::RuntimeIntegrity:
        return {MeasurementType::TaskListVmi,
                MeasurementType::TaskListGuest};
      case SecurityProperty::CovertChannelFreedom:
        return {MeasurementType::UsageIntervalHistogram};
      case SecurityProperty::CpuAvailability:
        return {MeasurementType::CpuMeasure};
      case SecurityProperty::AuditLogIntegrity:
        return {MeasurementType::AuditLogDigest};
    }
    return {};
}

bool
isWindowed(MeasurementType t)
{
    return t == MeasurementType::UsageIntervalHistogram ||
           t == MeasurementType::CpuMeasure;
}

bool
measuresWindow(const std::vector<SecurityProperty> &properties)
{
    for (SecurityProperty p : properties)
        for (MeasurementType t : measurementsForProperty(p))
            if (isWindowed(t))
                return true;
    return false;
}

} // namespace monatt::proto
