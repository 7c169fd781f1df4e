#include "proto/property.h"

#include <stdexcept>

namespace monatt::proto
{

const std::vector<SecurityProperty> &
allProperties()
{
    static const std::vector<SecurityProperty> all = {
        SecurityProperty::StartupIntegrity,
        SecurityProperty::RuntimeIntegrity,
        SecurityProperty::CovertChannelFreedom,
        SecurityProperty::CpuAvailability,
        SecurityProperty::AuditLogIntegrity,
    };
    return all;
}

std::string
propertyName(SecurityProperty p)
{
    switch (p) {
      case SecurityProperty::StartupIntegrity:
        return "startup-integrity";
      case SecurityProperty::RuntimeIntegrity:
        return "runtime-integrity";
      case SecurityProperty::CovertChannelFreedom:
        return "covert-channel-freedom";
      case SecurityProperty::CpuAvailability:
        return "cpu-availability";
      case SecurityProperty::AuditLogIntegrity:
        return "audit-log-integrity";
    }
    return "unknown";
}

std::string
healthStatusName(HealthStatus s)
{
    switch (s) {
      case HealthStatus::Healthy:
        return "healthy";
      case HealthStatus::Compromised:
        return "compromised";
      case HealthStatus::Unknown:
        return "unknown";
      case HealthStatus::TcbRollback:
        return "tcb-rollback";
    }
    return "invalid";
}

} // namespace monatt::proto
