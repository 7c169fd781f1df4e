/**
 * @file
 * Protocol message encodings: round trips for every message type,
 * strict rejection of malformed frames, and the binding property of
 * the quotes (any field change changes the quote).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "proto/messages.h"

namespace monatt::proto
{
namespace
{

TEST(ProtoTest, PackUnpackRoundTrip)
{
    const Bytes framed = packMessage(MessageKind::AttestRequest,
                                     toBytes("body"));
    auto unpacked = unpackMessage(framed);
    ASSERT_TRUE(unpacked.isOk());
    EXPECT_EQ(unpacked.value().kind, MessageKind::AttestRequest);
    EXPECT_EQ(unpacked.value().body, toBytes("body"));
    EXPECT_FALSE(unpackMessage(Bytes{kTaggedFrameMarker}).isOk());
}

TEST(ProtoTest, AttestRequestRoundTrip)
{
    AttestRequest m;
    m.requestId = 7;
    m.vid = "vm-42";
    m.properties = {SecurityProperty::RuntimeIntegrity,
                    SecurityProperty::CpuAvailability};
    m.nonce1 = {1, 2, 3, 4};
    m.mode = AttestMode::RuntimePeriodic;
    m.period = seconds(10);

    auto d = decode<AttestRequest>(encode(m));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().requestId, 7u);
    EXPECT_EQ(d.value().vid, "vm-42");
    EXPECT_EQ(d.value().properties, m.properties);
    EXPECT_EQ(d.value().nonce1, m.nonce1);
    EXPECT_EQ(d.value().mode, AttestMode::RuntimePeriodic);
    EXPECT_EQ(d.value().period, seconds(10));
}

TEST(ProtoTest, AttestForwardRoundTrip)
{
    AttestForward m;
    m.requestId = 9;
    m.vid = "vm-1";
    m.serverId = "server-2";
    m.properties = {SecurityProperty::StartupIntegrity};
    m.nonce2 = {9, 9};
    auto d = decode<AttestForward>(encode(m));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().serverId, "server-2");
}

TEST(ProtoTest, MeasureRequestRoundTrip)
{
    MeasureRequest m;
    m.requestId = 3;
    m.vid = "vm-1";
    m.rm = {MeasurementType::PlatformPcrs,
            MeasurementType::UsageIntervalHistogram};
    m.nonce3 = {5, 5, 5};
    m.window = seconds(2);
    auto d = decode<MeasureRequest>(encode(m));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().rm, m.rm);
    EXPECT_EQ(d.value().window, seconds(2));
}

MeasurementSet
sampleMeasurements()
{
    MeasurementSet set;
    Measurement tasks;
    tasks.type = MeasurementType::TaskListVmi;
    tasks.strings = {"init", "sshd", "rootkit"};
    set.items.push_back(tasks);
    Measurement hist;
    hist.type = MeasurementType::UsageIntervalHistogram;
    hist.values.assign(30, 7);
    hist.windowLength = seconds(2);
    set.items.push_back(hist);
    return set;
}

TEST(ProtoTest, MeasurementSetRoundTripAndFind)
{
    const MeasurementSet set = sampleMeasurements();
    auto d = decode<MeasurementSet>(encode(set));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value(), set);
    EXPECT_NE(d.value().find(MeasurementType::TaskListVmi), nullptr);
    EXPECT_EQ(d.value().find(MeasurementType::CpuMeasure), nullptr);
}

TEST(ProtoTest, MeasureResponseRoundTrip)
{
    MeasureResponse m;
    m.requestId = 11;
    m.vid = "vm-1";
    m.rm = {MeasurementType::TaskListVmi};
    m.m = sampleMeasurements();
    m.nonce3 = {1};
    m.quote3 = MeasureResponse::quoteInput(m.vid, m.rm, m.m, m.nonce3);
    m.signature = {2, 2};
    m.certificate = {3, 3, 3};
    auto d = decode<MeasureResponse>(encode(m));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().m, m.m);
    EXPECT_EQ(d.value().quote3, m.quote3);
    EXPECT_EQ(d.value().signedPortion(), m.signedPortion());
}

TEST(ProtoTest, QuoteQ3BindsEveryField)
{
    const MeasurementSet m = sampleMeasurements();
    const MeasurementRequestList rm = {MeasurementType::TaskListVmi};
    const Bytes n3 = {7, 7};
    const Bytes base = MeasureResponse::quoteInput("vm-1", rm, m, n3);

    EXPECT_NE(base, MeasureResponse::quoteInput("vm-2", rm, m, n3));
    EXPECT_NE(base,
              MeasureResponse::quoteInput(
                  "vm-1", {MeasurementType::TaskListGuest}, m, n3));
    MeasurementSet m2 = m;
    m2.items[0].strings.push_back("extra");
    EXPECT_NE(base, MeasureResponse::quoteInput("vm-1", rm, m2, n3));
    EXPECT_NE(base, MeasureResponse::quoteInput("vm-1", rm, m,
                                                Bytes{8, 8}));
}

AttestationReport
sampleReport()
{
    AttestationReport r;
    r.vid = "vm-1";
    PropertyResult pr;
    pr.property = SecurityProperty::RuntimeIntegrity;
    pr.status = HealthStatus::Compromised;
    pr.detail = "hidden process";
    r.results.push_back(pr);
    r.issuedAt = seconds(12);
    return r;
}

TEST(ProtoTest, AttestationReportRoundTripAndQueries)
{
    const AttestationReport r = sampleReport();
    auto d = decode<AttestationReport>(encode(r));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value(), r);
    EXPECT_FALSE(d.value().allHealthy());
    EXPECT_NE(d.value().find(SecurityProperty::RuntimeIntegrity),
              nullptr);
    EXPECT_EQ(d.value().find(SecurityProperty::CpuAvailability),
              nullptr);

    AttestationReport healthy = r;
    healthy.results[0].status = HealthStatus::Healthy;
    EXPECT_TRUE(healthy.allHealthy());
    AttestationReport empty;
    EXPECT_FALSE(empty.allHealthy()) << "no results is not healthy";
}

TEST(ProtoTest, ReportToControllerRoundTripAndQuoteBinding)
{
    ReportToController m;
    m.requestId = 4;
    m.vid = "vm-1";
    m.serverId = "server-1";
    m.properties = {SecurityProperty::RuntimeIntegrity};
    m.report = sampleReport();
    m.nonce2 = {4, 4};
    m.quote2 = ReportToController::quoteInput(
        m.vid, m.serverId, m.properties, m.report, m.nonce2);
    m.signature = {1};
    auto d = decode<ReportToController>(encode(m));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().report, m.report);

    // Q2 binds the server identity I.
    EXPECT_NE(m.quote2,
              ReportToController::quoteInput("vm-1", "server-2",
                                             m.properties, m.report,
                                             m.nonce2));
}

TEST(ProtoTest, ReportToCustomerRoundTripAndQuoteBinding)
{
    ReportToCustomer m;
    m.requestId = 5;
    m.vid = "vm-1";
    m.properties = {SecurityProperty::RuntimeIntegrity};
    m.report = sampleReport();
    m.nonce1 = {6};
    m.quote1 = ReportToCustomer::quoteInput(m.vid, m.properties,
                                            m.report, m.nonce1);
    m.signature = {9};
    auto d = decode<ReportToCustomer>(encode(m));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(encode(d.value()), encode(m));

    AttestationReport other = m.report;
    other.results[0].status = HealthStatus::Healthy;
    EXPECT_NE(m.quote1,
              ReportToCustomer::quoteInput(m.vid, m.properties, other,
                                           m.nonce1))
        << "Q1 must bind the report contents";
}

TEST(ProtoTest, CertMessagesRoundTrip)
{
    CertRequest req;
    req.serverId = "server-1";
    req.sessionLabel = "aik-1";
    req.avk = {1, 2};
    req.avkSignature = {3};
    auto dr = decode<CertRequest>(encode(req));
    ASSERT_TRUE(dr.isOk());
    EXPECT_EQ(dr.value().sessionLabel, "aik-1");

    CertResponse resp;
    resp.sessionLabel = "aik-1";
    resp.ok = true;
    resp.certificate = {8, 8};
    auto dresp = decode<CertResponse>(encode(resp));
    ASSERT_TRUE(dresp.isOk());
    EXPECT_TRUE(dresp.value().ok);
}

TEST(ProtoTest, ManagementMessagesRoundTrip)
{
    LaunchVm launch;
    launch.vid = "vm-1";
    launch.name = "web";
    launch.numVcpus = 2;
    launch.ramMb = 1024;
    launch.diskGb = 20;
    launch.imageSizeMb = 230;
    launch.image = toBytes("fedora-image");
    launch.weight = 512;
    auto dl = decode<LaunchVm>(encode(launch));
    ASSERT_TRUE(dl.isOk());
    EXPECT_EQ(dl.value().ramMb, 1024u);
    EXPECT_EQ(dl.value().weight, 512);

    VmCommand cmd;
    cmd.vid = "vm-1";
    EXPECT_EQ(decode<VmCommand>(encode(cmd)).value().vid, "vm-1");

    VmCommandAck ack;
    ack.vid = "vm-1";
    ack.ok = false;
    ack.error = "nope";
    auto da = decode<VmCommandAck>(encode(ack));
    ASSERT_TRUE(da.isOk());
    EXPECT_EQ(da.value().error, "nope");

    MigrateOut mo;
    mo.vid = "vm-1";
    mo.targetServer = "server-2";
    EXPECT_EQ(decode<MigrateOut>(encode(mo)).value().targetServer,
              "server-2");

    MigrateIn mi;
    mi.vid = "vm-1";
    mi.name = "web";
    mi.guestTasks = {"init", "sshd"};
    auto dmi = decode<MigrateIn>(encode(mi));
    ASSERT_TRUE(dmi.isOk());
    EXPECT_EQ(dmi.value().guestTasks, mi.guestTasks);

    LaunchRequest lr;
    lr.requestId = 1;
    lr.name = "web";
    lr.imageName = "fedora";
    lr.flavorName = "small";
    lr.properties = {SecurityProperty::StartupIntegrity};
    lr.image = toBytes("img");
    lr.imageSizeMb = 230;
    auto dlr = decode<LaunchRequest>(encode(lr));
    ASSERT_TRUE(dlr.isOk());
    EXPECT_EQ(dlr.value().flavorName, "small");

    LaunchResponse resp;
    resp.requestId = 1;
    resp.vid = "vm-9";
    resp.ok = true;
    EXPECT_EQ(decode<LaunchResponse>(encode(resp)).value().vid, "vm-9");
}

TEST(ProtoTest, DecodersRejectTruncation)
{
    // A body cut at a field boundary is a valid, shorter message
    // (omit-default), so truncation is caught by the frame: every
    // strict prefix of a packed frame, and any trailing byte, fails.
    AttestRequest m;
    m.vid = "vm-1";
    m.nonce1 = {1, 2, 3};
    Bytes framed = pack(MessageKind::AttestRequest, m);
    for (std::size_t len = 0; len < framed.size(); ++len) {
        const Bytes prefix(framed.begin(),
                           framed.begin() + static_cast<std::ptrdiff_t>(len));
        EXPECT_FALSE(unpackMessage(prefix).isOk()) << "prefix " << len;
    }
    ASSERT_TRUE(unpackMessage(framed).isOk());
    framed.push_back(0x00);
    EXPECT_FALSE(unpackMessage(framed).isOk());
}

TEST(ProtoTest, PropertyNamesAreDistinct)
{
    std::set<std::string> names;
    for (SecurityProperty p : allProperties())
        EXPECT_TRUE(names.insert(propertyName(p)).second) << propertyName(p);
}

TEST(ProtoTest, MeasurementsForPropertyCoverAllProperties)
{
    for (SecurityProperty p : allProperties())
        EXPECT_FALSE(measurementsForProperty(p).empty())
            << propertyName(p);
}

} // namespace
} // namespace monatt::proto
