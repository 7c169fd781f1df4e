/**
 * @file
 * Wire-codec conformance: frozen golden byte vectors for every message
 * type and every journal record type (field renumbering fails loudly
 * here), the frame layout, decode range checks, and the skip rules
 * that let bytes from an older or newer peer decode: unknown numbers,
 * retired numbers and unexpected wire types.
 */

#include <gtest/gtest.h>

#include "wire_samples.h"

namespace monatt::proto
{
namespace
{

using namespace monatt::samples;

// --- Golden byte vectors ---------------------------------------------

/**
 * The frozen encodings of the shared samples. These hex strings are
 * the released wire layout: a mismatch means a field was renumbered,
 * retyped or reordered — which breaks decoding of a peer's bytes —
 * and must be a new field number instead.
 */
struct GoldenCase
{
    const char *name;
    Bytes actual;
    const char *expected;
};

std::vector<GoldenCase>
goldenCases()
{
    return {
        {"AttestRequest", encode(sampleAttestRequest()),
         "08071205766d2d34321a02020422040102030428023080dac409"},
        {"AttestForward", encode(sampleAttestForward()),
         "08091204766d2d311a087365727665722d322201012a020909300038"
         "80897a"},
        {"MeasureRequest", encode(sampleMeasureRequest()),
         "080b1204766d2d6d1a02010622020a0b288092f401"},
        {"MeasureResponse", encode(sampleMeasureResponse()),
         "080c1204766d2d6d1a010222080a0608022202dead2a010c32010d3a"
         "020e0f420110"},
        {"ReportToController", encode(sampleReportToController()),
         "080d1204766d2d721a087365727665722d312201022a150a04766d2d"
         "721208080210001a026f6b1880ade2043201113a011242021314"},
        {"ReportToCustomer", encode(sampleReportToCustomer()),
         "080e1204766d2d721a010222150a04766d2d721208080210001a026f"
         "6b1880ade2042a01153201163a0117"},
        {"AttestFailure", encode(sampleAttestFailure()),
         "080f1204766d2d661801220b6e6f206174746573746f72"},
        {"CertRequest", encode(sampleCertRequest()),
         "0a087365727665722d331206736573732d391a022122220123"},
        {"CertResponse", encode(sampleCertResponse()),
         "0a06736573732d3910011a016522022425"},
        {"LaunchVm", encode(sampleLaunchVm()),
         "0a04766d2d6c12037765621802208008280430643a023031408008"},
        {"LaunchVmAck", encode(sampleLaunchVmAck()),
         "0a04766d2d6c10011a0178220132"},
        {"VmCommand", encode(sampleVmCommand()),
         "0a04766d2d63"},
        {"VmCommandAck", encode(sampleVmCommandAck()),
         "0a04766d2d6310011a0179"},
        {"LaunchRequest", encode(sampleLaunchRequest()),
         "081012037765621a067562756e747522086d312e736d616c6c2a0103"
         "3201333832"},
        {"LaunchResponse", encode(sampleLaunchResponse()),
         "08111204766d2d6e180122017a"},
        {"ReplicateEntries", encode(sampleReplicateEntries()),
         "080212066374726c2d611804220908051083021a024142280530013a"
         "01434003"},
        {"ReplicateAck", encode(sampleReplicateAck()),
         "08021005"},
        {"VoteRequest", encode(sampleVoteRequest()),
         "0803100218092001"},
        {"VoteGrant", encode(sampleVoteGrant()),
         "08031001"},
        {"NotLeader", encode(sampleNotLeader()),
         "081210011a066374726c2d622003"},
        {"MigrateOut", encode(sampleMigrateOut()),
         "0a04766d2d6712087365727665722d34"},
        {"MigrateIn", encode(sampleMigrateIn()),
         "0a04766d2d67120377656218022080062802303c3a01504080024a04"
         "696e69744a04737368645202726b5a026131"},
    };
}

TEST(WireConformanceTest, GoldenByteVectors)
{
    for (const GoldenCase &c : goldenCases())
        EXPECT_EQ(toHex(c.actual), c.expected) << c.name;
}

// --- Frame self-description ------------------------------------------

TEST(WireConformanceTest, FramesSelfDescribe)
{
    const Bytes body = toBytes("body");
    const Bytes frame = packMessage(MessageKind::AttestRequest, body);

    // Frozen frame header: 0xC1 || kind u8 || varint len.
    EXPECT_EQ(toHex(frame), "c10104626f6479");
    auto t = unpackMessage(frame);
    ASSERT_TRUE(t.isOk());
    EXPECT_EQ(t.value().kind, MessageKind::AttestRequest);
    EXPECT_EQ(t.value().body, body);

    // Truncated / corrupt frames are errors.
    EXPECT_FALSE(unpackMessage(Bytes{}).isOk());
    EXPECT_FALSE(unpackMessage(Bytes{kTaggedFrameMarker}).isOk());
    EXPECT_FALSE(unpackMessage(Bytes{kTaggedFrameMarker, 0x01}).isOk());
    Bytes overlong{kTaggedFrameMarker, 0x01, 0x7f};
    EXPECT_FALSE(unpackMessage(overlong).isOk());
    EXPECT_FALSE(unpackMessage(Bytes{0x01, 0x00}).isOk()) << "no marker";
    // A ten-byte length whose last byte overflows 64 bits: the
    // overflow must not be dropped into a valid empty frame.
    Bytes overflow{kTaggedFrameMarker, 0x01};
    overflow.insert(overflow.end(), 9, 0x80);
    overflow.push_back(0x02);
    EXPECT_FALSE(unpackMessage(overflow).isOk());
}

TEST(WireConformanceTest, DefaultMessagesEncodeEmptyAndDecode)
{
    // A default-constructed message encodes to nothing (omit-default)
    // and nothing decodes back to a default-constructed message.
    EXPECT_TRUE(encode(AttestRequest{}).empty());
    EXPECT_TRUE(encode(VmCommandAck{}).empty());
    EXPECT_TRUE(encode(ReplicateAck{}).empty());
    auto d = decode<AttestRequest>(Bytes{});
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(encode(d.value()), encode(AttestRequest{}));
}

// --- Skip rules ---------------------------------------------------------

/** Bytes an older build sent: today's decoder must skip the retired
 * fields and read the rest as `today`. */
template <typename M>
void
expectRetiredSkipped(const char *name, const char *oldHex, const M &today)
{
    auto d = decode<M>(fromHex(oldHex));
    ASSERT_TRUE(d.isOk()) << name << ": " << d.errorMessage();
    EXPECT_EQ(toHex(encode(d.value())), toHex(encode(today))) << name;
}

TEST(WireConformanceTest, RetiredFieldsAreSkipped)
{
    // The golden vectors of the build that still sent its build
    // number (field 15 = 3, "7803") on the attest-chain messages, an
    // unsigned copy of the TCB version (field 9 = 7, "4807") on the
    // quote and report messages, and a last-of-a-periodic-stream flag
    // (field 8 = 1, "4001") on ReportToCustomer.
    expectRetiredSkipped(
        "AttestRequest",
        "08071205766d2d34321a02020422040102030428023080dac4097803",
        sampleAttestRequest());
    expectRetiredSkipped(
        "AttestForward",
        "08091204766d2d311a087365727665722d322201012a020909300038"
        "80897a7803",
        sampleAttestForward());
    expectRetiredSkipped("MeasureRequest",
                         "080b1204766d2d6d1a02010622020a0b288092f4017803",
                         sampleMeasureRequest());
    expectRetiredSkipped(
        "MeasureResponse",
        "080c1204766d2d6d1a010222080a0608022202dead2a010c32010d3a"
        "020e0f4201107803",
        sampleMeasureResponse());
    expectRetiredSkipped(
        "MeasureResponse+tcb",
        "080c1204766d2d6d1a010222080a0608022202dead2a010c32010d3a"
        "020e0f42011048077803",
        sampleMeasureResponse());
    expectRetiredSkipped(
        "ReportToController",
        "080d1204766d2d721a087365727665722d312201022a150a04766d2d"
        "721208080210001a026f6b1880ade2043201113a0112420213147803",
        sampleReportToController());
    expectRetiredSkipped(
        "ReportToController+tcb",
        "080d1204766d2d721a087365727665722d312201022a150a04766d2d"
        "721208080210001a026f6b1880ade2043201113a011242021314480778"
        "03",
        sampleReportToController());
    expectRetiredSkipped(
        "ReportToCustomer",
        "080e1204766d2d721a010222150a04766d2d721208080210001a026f"
        "6b1880ade2042a01153201163a011740017803",
        sampleReportToCustomer());
    expectRetiredSkipped(
        "ReportToCustomer+tcb",
        "080e1204766d2d721a010222150a04766d2d721208080210001a026f"
        "6b1880ade2042a01153201163a0117400148077803",
        sampleReportToCustomer());
}

TEST(WireConformanceTest, UnknownFutureFieldsAreSkipped)
{
    // A newer peer's fields: splice a LEN at an unreleased number and
    // a VARINT at another into a message; today's decoder must skip
    // both and decode the rest.
    Bytes bytes = encode(sampleAttestRequest());
    wire::WireWriter extra;
    extra.putString(1000, "from-the-future");
    extra.putVarint(999, 0xbeef);
    Bytes future = extra.take();
    bytes.insert(bytes.end(), future.begin(), future.end());

    auto d = decode<AttestRequest>(bytes);
    ASSERT_TRUE(d.isOk()) << d.errorMessage();
    EXPECT_EQ(encode(d.value()), encode(sampleAttestRequest()));
}

TEST(WireConformanceTest, WrongWireTypeOnKnownFieldIsSkipped)
{
    // A known number arriving with an unexpected wire type is
    // skipped, not an error.
    wire::WireWriter w;
    w.putString(1, "not-a-varint"); // field 1 is requestId: VARINT
    w.putString(2, "vm-ok");
    auto d = decode<AttestRequest>(w.take());
    ASSERT_TRUE(d.isOk()) << d.errorMessage();
    EXPECT_EQ(d.value().requestId, 0u);
    EXPECT_EQ(d.value().vid, "vm-ok");
}

// --- Decode range checks ---------------------------------------------

TEST(WireConformanceTest, OutOfRangeVarintsAreDecodeErrors)
{
    // An enum field beyond its underlying type (mode = 258 would
    // narrow to RuntimePeriodic).
    wire::WireWriter mode;
    mode.putVarint(5, 258);
    EXPECT_FALSE(decode<AttestRequest>(mode.take()).isOk());

    // A packed enum list element beyond its type (257 would narrow
    // to StartupIntegrity).
    Bytes packed;
    wire::appendVarint(packed, 257);
    wire::WireWriter props;
    props.putLen(3, packed);
    EXPECT_FALSE(decode<AttestRequest>(props.take()).isOk());

    // A u32 field beyond 32 bits (2^32 + 1 would narrow to 1).
    wire::WireWriter vcpus;
    vcpus.putVarint(3, (std::uint64_t{1} << 32) + 1);
    EXPECT_FALSE(decode<LaunchVm>(vcpus.take()).isOk());

    // The largest in-range values still decode.
    wire::WireWriter edge;
    edge.putVarint(3, 0xFFFFFFFFu);
    auto ok = decode<LaunchVm>(edge.take());
    ASSERT_TRUE(ok.isOk()) << ok.errorMessage();
    EXPECT_EQ(ok.value().numVcpus, 0xFFFFFFFFu);
}

// --- Journal record golden vectors -----------------------------------

/** The frozen payload of one journal record type, which must decode
 * back to a value that re-encodes to the same bytes. */
template <typename R>
void
expectJournalGolden(const char *name, const R &record, const char *hex)
{
    EXPECT_EQ(toHex(encode(record)), hex) << name;
    auto decoded = decode<R>(fromHex(hex));
    ASSERT_TRUE(decoded.isOk()) << name << ": " << decoded.errorMessage();
    EXPECT_EQ(toHex(encode(decoded.value())), hex) << name;
}

TEST(WireConformanceTest, JournalGoldenVectors)
{
    // One vector per journal record type: the twelve controller types
    // (nesting VmRecord, ServerRecord, PendingLaunch, AttestContext and
    // ResponseRecord), the AS's two and the pCA's one. A mismatch means
    // a journal field was renumbered, retyped or reordered, which would
    // make an upgraded node misread the journal it recovers from.
    using namespace controller;
    using attestation::CertRecord;
    using attestation::IssuedRecord;
    using attestation::ReportRecord;
    expectJournalGolden("Meta", MetaRecord{7, 42}, "0807102a");
    expectJournalGolden(
        "VmUpsert", sampleVmRecord(),
        "0a04766d2d3712037765621a05616c69636522067562756e74752a086d312e"
        "736d616c6c30283a02aabb400248801050145a02020462087365727665722d"
        "31680572100a0a7363686564756c696e6710141828720e0a08737061776e69"
        "6e67102818647a0d0a09617474657374696e671064800104880178");
    expectJournalGolden("VmRemove", VidRecord{"vm-7"}, "0a04766d2d37");
    expectJournalGolden("ServerUpsert", sampleServerRecord(),
                        "0a087365727665722d39120201021880800120f403288010"
                        "30143801");
    expectJournalGolden("PolicySet",
                        PolicyRecord{"vm-7", ResponsePolicy::Migrate},
                        "0a04766d2d371003");
    expectJournalGolden("LaunchUpsert", samplePendingLaunch(),
                        "0a04766d2d3710051a05616c69636522087365727665722d"
                        "3222087365727665722d33");
    expectJournalGolden("LaunchRemove", VidRecord{"vm-7"}, "0a04766d2d37");
    expectJournalGolden(
        "AttestUpsert", AttestRecord{42, sampleAttestContext()},
        "082a125008021204766d2d371a05616c69636520092a020102320203043a01"
        "0240024880dac40950f601580162087365727665722d316a12617474657374"
        "6174696f6e2d73657276657270047802800101880101");
    expectJournalGolden("AttestRemove", AttestIdRecord{42}, "082a");
    expectJournalGolden(
        "ResponseUpsert", ResponseLogRecord{3, sampleResponseRecord()},
        "0803122d0a04766d2d37100218c80120900328d804300138014207726f6f74"
        "6b69744a087365727665722d325201025801");
    expectJournalGolden("AsHealthSet",
                        AsHealthRecord{"attestation-server", 2, true},
                        "0a126174746573746174696f6e2d73657276657210041801");
    expectJournalGolden("RelayRemember",
                        RelayRecord{"alice", 9, {0xc1, 0x06, 0x00}},
                        "0a05616c69636510091a03c10600");
    expectJournalGolden("ReportRemember", ReportRecord{11, {0x08, 0x0b}},
                        "080b1202080b");
    expectJournalGolden("CertInsert",
                        CertRecord{{0xd1, 0xd2}, sampleAvkBytes()},
                        "0a02d1d2120b020000000ca10100000011");
    expectJournalGolden(
        "CertIssued", IssuedRecord{4, 1, "server-1", "sess-4", {0x0a, 0x06}},
        "080410011a087365727665722d312206736573732d342a020a06");
}

} // namespace
} // namespace monatt::proto
