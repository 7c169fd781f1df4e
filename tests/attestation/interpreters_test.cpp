/**
 * @file
 * Property interpreters: the semantic-gap bridge of §4, unit tested
 * against synthetic measurement sets for all four case studies.
 */

#include <gtest/gtest.h>

#include "attestation/interpreters.h"
#include "core/cloud.h"
#include "crypto/sha256.h"

namespace monatt::attestation
{
namespace
{

using proto::HealthStatus;
using proto::Measurement;
using proto::MeasurementSet;
using proto::MeasurementType;
using proto::SecurityProperty;

// --- Startup integrity (§4.2) -----------------------------------------

struct StartupFixture
{
    ServerReference serverRef;
    Bytes image = crypto::Sha256::hash(toBytes("img"));
    std::set<Bytes> knownGood;
    StartupIntegrityInterpreter interp;

    StartupFixture()
    {
        serverRef.expectedPlatformDigest = core::expectedPlatformDigest(
            toBytes("hv"), toBytes("os"));
        knownGood.insert(image);
    }

    InterpretationContext
    ctx()
    {
        InterpretationContext c;
        c.serverRef = &serverRef;
        c.knownGoodImages = &knownGood;
        return c;
    }

    static MeasurementSet
    measurements(const Bytes &platformDigest, const Bytes &imageDigest)
    {
        MeasurementSet set;
        Measurement pcrs;
        pcrs.type = MeasurementType::PlatformPcrs;
        pcrs.digest = platformDigest;
        set.items.push_back(pcrs);
        Measurement image;
        image.type = MeasurementType::VmImageDigest;
        image.digest = imageDigest;
        set.items.push_back(image);
        return set;
    }
};

TEST(StartupIntegrityTest, HealthyWhenBothMatch)
{
    StartupFixture f;
    const auto m = StartupFixture::measurements(
        f.serverRef.expectedPlatformDigest, f.image);
    EXPECT_EQ(f.interp.interpret(m, f.ctx()).status,
              HealthStatus::Healthy);
}

TEST(StartupIntegrityTest, PlatformMismatchNamesPlatform)
{
    StartupFixture f;
    const auto m = StartupFixture::measurements(Bytes(64, 0xab), f.image);
    const auto r = f.interp.interpret(m, f.ctx());
    EXPECT_EQ(r.status, HealthStatus::Compromised);
    EXPECT_NE(r.detail.find("platform"), std::string::npos)
        << "the response module keys §5.1's reschedule on this";
}

TEST(StartupIntegrityTest, ImageMismatchNamesImage)
{
    StartupFixture f;
    const auto m = StartupFixture::measurements(
        f.serverRef.expectedPlatformDigest, Bytes(32, 0xcd));
    const auto r = f.interp.interpret(m, f.ctx());
    EXPECT_EQ(r.status, HealthStatus::Compromised);
    EXPECT_NE(r.detail.find("image"), std::string::npos);
}

// Only the catalog vouches for an image: any image it holds passes,
// and without a catalog no image does.
TEST(StartupIntegrityTest, KnownGoodCatalogAccepted)
{
    StartupFixture f;
    const Bytes other = crypto::Sha256::hash(toBytes("catalog-img"));
    f.knownGood.insert(other);
    const auto m = StartupFixture::measurements(
        f.serverRef.expectedPlatformDigest, other);
    EXPECT_EQ(f.interp.interpret(m, f.ctx()).status,
              HealthStatus::Healthy);
    InterpretationContext noCatalog = f.ctx();
    noCatalog.knownGoodImages = nullptr;
    EXPECT_EQ(f.interp.interpret(m, noCatalog).status,
              HealthStatus::Compromised);
}

TEST(StartupIntegrityTest, UnknownWithoutReferences)
{
    StartupFixture f;
    const auto m = StartupFixture::measurements(Bytes(64, 0), Bytes(32, 0));
    InterpretationContext empty;
    EXPECT_EQ(f.interp.interpret(m, empty).status,
              HealthStatus::Unknown);
    EXPECT_EQ(f.interp.interpret(MeasurementSet{}, f.ctx()).status,
              HealthStatus::Unknown);
}

// --- Runtime integrity (§4.3) ------------------------------------------

MeasurementSet
taskLists(const std::vector<std::string> &vmi,
          const std::vector<std::string> &guest)
{
    MeasurementSet set;
    Measurement a;
    a.type = MeasurementType::TaskListVmi;
    a.strings = vmi;
    set.items.push_back(a);
    Measurement b;
    b.type = MeasurementType::TaskListGuest;
    b.strings = guest;
    set.items.push_back(b);
    return set;
}

TEST(RuntimeIntegrityTest, ConsistentListsHealthy)
{
    RuntimeIntegrityInterpreter interp;
    const auto m = taskLists({"init", "sshd"}, {"init", "sshd"});
    EXPECT_EQ(interp.interpret(m, {}).status, HealthStatus::Healthy);
}

TEST(RuntimeIntegrityTest, HiddenProcessDetected)
{
    RuntimeIntegrityInterpreter interp;
    const auto m = taskLists({"init", "rootkit", "sshd"},
                             {"init", "sshd"});
    const auto r = interp.interpret(m, {});
    EXPECT_EQ(r.status, HealthStatus::Compromised);
    EXPECT_NE(r.detail.find("rootkit"), std::string::npos);
}

TEST(RuntimeIntegrityTest, MissingMeasurementsUnknown)
{
    RuntimeIntegrityInterpreter interp;
    EXPECT_EQ(interp.interpret(MeasurementSet{}, {}).status,
              HealthStatus::Unknown);
}

// --- Covert channel (§4.4) -----------------------------------------------

MeasurementSet
histogramMeasurement(const std::vector<std::uint64_t> &counts)
{
    MeasurementSet set;
    Measurement m;
    m.type = MeasurementType::UsageIntervalHistogram;
    m.values = counts;
    m.windowLength = seconds(10);
    set.items.push_back(m);
    return set;
}

TEST(CovertChannelTest, BimodalFlagged)
{
    CovertChannelInterpreter interp;
    std::vector<std::uint64_t> counts(30, 0);
    counts[4] = 120; // 5 ms bit.
    counts[23] = 110; // 24 ms bit.
    const auto r = interp.interpret(histogramMeasurement(counts), {});
    EXPECT_EQ(r.status, HealthStatus::Compromised);
}

TEST(CovertChannelTest, UnimodalHealthy)
{
    CovertChannelInterpreter interp;
    std::vector<std::uint64_t> counts(30, 0);
    counts[29] = 300;
    counts[28] = 20;
    const auto r = interp.interpret(histogramMeasurement(counts), {});
    EXPECT_EQ(r.status, HealthStatus::Healthy) << r.detail;
}

TEST(CovertChannelTest, TooFewSamplesUnknown)
{
    CovertChannelInterpreter interp;
    std::vector<std::uint64_t> counts(30, 0);
    counts[4] = 3;
    counts[23] = 3;
    EXPECT_EQ(interp.interpret(histogramMeasurement(counts), {}).status,
              HealthStatus::Unknown);
}

TEST(CovertChannelTest, NoiseAroundOnePeakStaysHealthy)
{
    CovertChannelInterpreter interp;
    std::vector<std::uint64_t> counts(30, 1); // Light uniform noise.
    counts[29] = 400;
    EXPECT_EQ(interp.interpret(histogramMeasurement(counts), {}).status,
              HealthStatus::Healthy);
}

// --- CPU availability (§4.5) ---------------------------------------------

MeasurementSet
cpuMeasurement(SimTime runtime, SimTime window)
{
    MeasurementSet set;
    Measurement m;
    m.type = MeasurementType::CpuMeasure;
    m.values = {static_cast<std::uint64_t>(runtime)};
    m.windowLength = window;
    set.items.push_back(m);
    return set;
}

TEST(CpuAvailabilityTest, FairShareHealthy)
{
    CpuAvailabilityInterpreter interp;
    const auto r = interp.interpret(
        cpuMeasurement(seconds(5), seconds(10)), {});
    EXPECT_EQ(r.status, HealthStatus::Healthy);
}

TEST(CpuAvailabilityTest, StarvationCompromised)
{
    CpuAvailabilityInterpreter interp;
    const auto r = interp.interpret(
        cpuMeasurement(msec(600), seconds(10)), {});
    EXPECT_EQ(r.status, HealthStatus::Compromised);
}

TEST(CpuAvailabilityTest, MissingDataUnknown)
{
    CpuAvailabilityInterpreter interp;
    EXPECT_EQ(interp.interpret(MeasurementSet{}, {}).status,
              HealthStatus::Unknown);
    EXPECT_EQ(interp.interpret(cpuMeasurement(seconds(1), 0), {}).status,
              HealthStatus::Unknown);
}

// --- Registry -------------------------------------------------------------

TEST(RegistryTest, DefaultsCoverAllProperties)
{
    const InterpreterRegistry reg = InterpreterRegistry::withDefaults();
    for (SecurityProperty p : proto::allProperties())
        EXPECT_NE(reg.find(p), nullptr) << propertyName(p);
}

TEST(RegistryTest, UnregisteredPropertyIsUnknown)
{
    InterpreterRegistry reg;
    const auto r = reg.interpret(SecurityProperty::RuntimeIntegrity,
                                 MeasurementSet{}, {});
    EXPECT_EQ(r.status, HealthStatus::Unknown);
    EXPECT_NE(r.detail.find("no interpreter"), std::string::npos);
}

TEST(RegistryTest, CustomInterpreterExtensibility)
{
    // §4.1: "new methods can easily be integrated into the CloudMonatt
    // framework" — replace the availability interpreter with a strict
    // one and observe the changed verdict.
    struct StrictAvailability : PropertyInterpreter
    {
        SecurityProperty
        property() const override
        {
            return SecurityProperty::CpuAvailability;
        }
        proto::PropertyResult
        interpret(const MeasurementSet &,
                  const InterpretationContext &) const override
        {
            proto::PropertyResult r;
            r.property = property();
            r.status = HealthStatus::Compromised;
            r.detail = "strict: always fails";
            return r;
        }
    };

    InterpreterRegistry reg = InterpreterRegistry::withDefaults();
    reg.add(std::make_unique<StrictAvailability>());
    const auto r = reg.interpret(SecurityProperty::CpuAvailability,
                                 cpuMeasurement(seconds(9), seconds(10)),
                                 {});
    EXPECT_EQ(r.status, HealthStatus::Compromised);
}

} // namespace
} // namespace monatt::attestation
