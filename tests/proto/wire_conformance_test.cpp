/**
 * @file
 * Wire-codec conformance: frozen golden byte vectors for every message
 * type and every journal record type (field renumbering fails loudly
 * here), schema-registry invariants, the frame layout, decode range
 * checks, and the v1 ↔ v2 ↔ v3 mixed-version contract (unknown-field
 * skip + missing-field default) in both directions.
 */

#include <gtest/gtest.h>

#include <set>

#include "wire_samples.h"

namespace monatt::proto
{
namespace
{

using namespace monatt::samples;

const WireContext kV1{kWireV1};
const WireContext kV2{kWireV2};
const WireContext kV3{kWireV3};

// --- Golden byte vectors ---------------------------------------------

/**
 * The frozen encodings (kWireV2) of the shared samples. These
 * hex strings are the released wire layout: a mismatch means a field
 * was renumbered, retyped or reordered — which breaks rolling
 * upgrades — and must be a new field number instead.
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
        {"AttestRequest", encode(sampleAttestRequest(), kV2),
         "08071205766d2d34321a02020422040102030428023080dac4097803"},
        {"AttestForward", encode(sampleAttestForward(), kV2),
         "08091204766d2d311a087365727665722d322201012a020909300038"
         "80897a7803"},
        {"MeasureRequest", encode(sampleMeasureRequest(), kV2),
         "080b1204766d2d6d1a02010622020a0b288092f4017803"},
        {"MeasureResponse", encode(sampleMeasureResponse(), kV2),
         "080c1204766d2d6d1a010222080a0608022202dead2a010c32010d3a"
         "020e0f4201107803"},
        {"ReportToController", encode(sampleReportToController(), kV2),
         "080d1204766d2d721a087365727665722d312201022a150a04766d2d"
         "721208080210001a026f6b1880ade2043201113a0112420213147803"},
        {"ReportToCustomer", encode(sampleReportToCustomer(), kV2),
         "080e1204766d2d721a010222150a04766d2d721208080210001a026f"
         "6b1880ade2042a01153201163a011740017803"},
        {"AttestFailure", encode(sampleAttestFailure(), kV2),
         "080f1204766d2d661801220b6e6f206174746573746f72"},
        {"CertRequest", encode(sampleCertRequest(), kV2),
         "0a087365727665722d331206736573732d391a022122220123"},
        {"CertResponse", encode(sampleCertResponse(), kV2),
         "0a06736573732d3910011a016522022425"},
        {"LaunchVm", encode(sampleLaunchVm(), kV2),
         "0a04766d2d6c12037765621802208008280430643a023031408008"},
        {"LaunchVmAck", encode(sampleLaunchVmAck(), kV2),
         "0a04766d2d6c10011a0178220132"},
        {"VmCommand", encode(sampleVmCommand(), kV2),
         "0a04766d2d63"},
        {"VmCommandAck", encode(sampleVmCommandAck(), kV2),
         "0a04766d2d6310011a0179"},
        {"LaunchRequest", encode(sampleLaunchRequest(), kV2),
         "081012037765621a067562756e747522086d312e736d616c6c2a0103"
         "3201333832"},
        {"LaunchResponse", encode(sampleLaunchResponse(), kV2),
         "08111204766d2d6e180122017a"},
        {"ReplicateEntries", encode(sampleReplicateEntries(), kV2),
         "080212066374726c2d611804220908051083021a024142280530013a"
         "01434003"},
        {"ReplicateAck", encode(sampleReplicateAck(), kV2),
         "08021005"},
        {"VoteRequest", encode(sampleVoteRequest(), kV2),
         "0803100218092001"},
        {"VoteGrant", encode(sampleVoteGrant(), kV2),
         "08031001"},
        {"NotLeader", encode(sampleNotLeader(), kV2),
         "081210011a066374726c2d622003"},
        {"MigrateOut", encode(sampleMigrateOut(), kV2),
         "0a04766d2d6712087365727665722d34"},
        {"MigrateIn", encode(sampleMigrateIn(), kV2),
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

// --- Schema-registry invariants --------------------------------------

TEST(WireConformanceTest, SchemaRegistryInvariants)
{
    const auto &schemas = wireSchemas();
    ASSERT_FALSE(schemas.empty());
    std::set<std::uint8_t> kinds;
    for (const MessageSchema &s : schemas) {
        EXPECT_NE(s.name, nullptr);
        EXPECT_TRUE(kinds.insert(s.kind).second)
            << "duplicate kind " << unsigned(s.kind);
        std::set<std::uint32_t> numbers;
        for (const FieldSpec &f : s.fields) {
            EXPECT_NE(f.number, 0u) << s.name;
            EXPECT_TRUE(numbers.insert(f.number).second)
                << s.name << " reuses field " << f.number;
            EXPECT_GE(f.since, kWireV1) << s.name;
            EXPECT_LE(f.since, kWireVersionLatest) << s.name;
            EXPECT_NE(f.name, nullptr) << s.name;
        }
        EXPECT_EQ(schemaFor(s.kind), &s);
    }
    EXPECT_EQ(schemaFor(0xff), nullptr);

    // senderBuild always sits at the reserved number with since=v2.
    for (const MessageSchema &s : schemas) {
        for (const FieldSpec &f : s.fields) {
            if (std::string(f.name) == "senderBuild") {
                EXPECT_EQ(f.number, kSenderBuildField) << s.name;
                EXPECT_EQ(f.since, kWireV2) << s.name;
            }
        }
    }
}

TEST(WireConformanceTest, DefaultMessagesEncodeEmptyAndDecode)
{
    // A default-constructed message encodes to nothing (omit-default)
    // and nothing decodes back to a default-constructed message.
    EXPECT_TRUE(encode(AttestRequest{}, kV1).empty());
    EXPECT_TRUE(encode(VmCommandAck{}, kV1).empty());
    EXPECT_TRUE(encode(ReplicateAck{}, kV1).empty());
    auto d = decode<AttestRequest>(Bytes{});
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(encode(d.value()), encode(AttestRequest{}));
}

// --- Mixed-version contract (v1 ↔ v2, both directions) ---------------

TEST(WireConformanceTest, V1EncoderOmitsV2Fields)
{
    // Old encoder → new decoder: senderBuild never on the wire at v1,
    // so the v2 decoder keeps its default (0 = pre-v2 peer).
    AttestRequest m = sampleAttestRequest();
    const Bytes v1Bytes = encode(m, kV1);
    const Bytes v2Bytes = encode(m, kV2);
    EXPECT_LT(v1Bytes.size(), v2Bytes.size());

    auto d = decode<AttestRequest>(v1Bytes);
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().senderBuild, 0u);
    EXPECT_EQ(d.value().vid, m.vid);
}

TEST(WireConformanceTest, V2FieldsSurviveToV2Decoder)
{
    auto d = decode<AttestRequest>(encode(sampleAttestRequest(), kV2));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().senderBuild, 3u);
}

TEST(WireConformanceTest, UnknownFutureFieldsAreSkipped)
{
    // New encoder → old decoder: splice a hypothetical v3 field (a
    // LEN at an unreleased number and a VARINT at another) into a v2
    // message; today's decoder must skip both and decode the rest.
    Bytes bytes = encode(sampleAttestRequest(), kV2);
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
    // A future schema may retype-by-renumber; a known number arriving
    // with an unexpected wire type is skipped, not an error.
    wire::WireWriter w;
    w.putString(1, "not-a-varint"); // field 1 is requestId: VARINT
    w.putString(2, "vm-ok");
    auto d = decode<AttestRequest>(w.take());
    ASSERT_TRUE(d.isOk()) << d.errorMessage();
    EXPECT_EQ(d.value().requestId, 0u);
    EXPECT_EQ(d.value().vid, "vm-ok");
}

// --- v3: the TCB-version axis (field 9 on quote/report paths) --------

MeasureResponse
sampleMeasureResponseV3()
{
    MeasureResponse m = sampleMeasureResponse();
    m.tcbVersion = 7;
    return m;
}

ReportToController
sampleReportToControllerV3()
{
    ReportToController m = sampleReportToController();
    m.tcbVersion = 7;
    return m;
}

ReportToCustomer
sampleReportToCustomerV3()
{
    ReportToCustomer m = sampleReportToCustomer();
    m.tcbVersion = 7;
    return m;
}

TEST(WireConformanceTest, GoldenByteVectorsV3)
{
    // Frozen v3 encodings: tcbVersion rides field 9 (tag 0x48) on the
    // three quote/report messages. A mismatch means the released TCB
    // field moved — use a new number instead.
    const std::vector<GoldenCase> cases = {
        {"MeasureResponse", encode(sampleMeasureResponseV3(), kV3),
         "080c1204766d2d6d1a010222080a0608022202dead2a010c32010d3a"
         "020e0f42011048077803"},
        {"ReportToController",
         encode(sampleReportToControllerV3(), kV3),
         "080d1204766d2d721a087365727665722d312201022a150a04766d2d"
         "721208080210001a026f6b1880ade2043201113a011242021314480778"
         "03"},
        {"ReportToCustomer", encode(sampleReportToCustomerV3(), kV3),
         "080e1204766d2d721a010222150a04766d2d721208080210001a026f"
         "6b1880ade2042a01153201163a0117400148077803"},
    };
    for (const GoldenCase &c : cases)
        EXPECT_EQ(toHex(c.actual), c.expected) << c.name;
}

TEST(WireConformanceTest, V2EncoderOmitsTcbVersion)
{
    // Old (v2) encoder → new decoder: the field is version-gated, so
    // a v2 peer never puts it on the wire even when the member is set;
    // the v3 decoder keeps the default 0 — which the AS minimum-TCB
    // floor deliberately treats as below-minimum (a host that strips
    // the measurement must not out-trust one reporting an old build).
    EXPECT_EQ(toHex(encode(sampleMeasureResponseV3(), kV2)),
              toHex(encode(sampleMeasureResponse(), kV2)));
    auto d = decode<MeasureResponse>(encode(sampleMeasureResponseV3(), kV2));
    ASSERT_TRUE(d.isOk());
    EXPECT_EQ(d.value().tcbVersion, 0u);
}

TEST(WireConformanceTest, TcbVersionDefaultIsOmittedAtV3)
{
    // Omit-default: a v3 encoder with the TCB axis disarmed (version
    // 0) emits bytes identical to v2 — upgrading the fleet without
    // arming the policy changes nothing on the wire.
    EXPECT_EQ(toHex(encode(sampleMeasureResponse(), kV3)),
              toHex(encode(sampleMeasureResponse(), kV2)));
    EXPECT_EQ(toHex(encode(sampleReportToController(), kV3)),
              toHex(encode(sampleReportToController(), kV2)));
    EXPECT_EQ(toHex(encode(sampleReportToCustomer(), kV3)),
              toHex(encode(sampleReportToCustomer(), kV2)));
}

TEST(WireConformanceTest, TcbVersionSurvivesV3RoundTrip)
{
    auto mr = decode<MeasureResponse>(encode(sampleMeasureResponseV3(), kV3));
    ASSERT_TRUE(mr.isOk());
    EXPECT_EQ(mr.value().tcbVersion, 7u);
    auto rc = decode<ReportToController>(
        encode(sampleReportToControllerV3(), kV3));
    ASSERT_TRUE(rc.isOk());
    EXPECT_EQ(rc.value().tcbVersion, 7u);
    auto ru = decode<ReportToCustomer>(
        encode(sampleReportToCustomerV3(), kV3));
    ASSERT_TRUE(ru.isOk());
    EXPECT_EQ(ru.value().tcbVersion, 7u);
}

TEST(WireConformanceTest, TcbSchemaRowsAreV3)
{
    EXPECT_EQ(kWireVersionLatest, kWireV3);
    std::size_t rows = 0;
    for (const MessageSchema &s : wireSchemas()) {
        const std::string name = s.name;
        const bool carrier = name == "MeasureResponse" ||
                             name == "ReportToController" ||
                             name == "ReportToCustomer";
        for (const FieldSpec &f : s.fields) {
            if (std::string(f.name) != "tcbVersion")
                continue;
            ++rows;
            EXPECT_TRUE(carrier) << name << " must not carry tcbVersion";
            EXPECT_EQ(f.number, 9u) << name;
            EXPECT_EQ(f.since, kWireV3) << name;
        }
    }
    EXPECT_EQ(rows, 3u) << "tcbVersion rides exactly the quote/report "
                           "messages";
}

// --- Quote preimages ---------------------------------------------------

TEST(WireConformanceTest, PreimageTypesHaveNoPostV1Fields)
{
    // Q1-Q3 and the signed portions hash the declared encoding of
    // these types. A field newer than v1 would be dropped by a v1
    // signer and kept by a v3 verifier (or the reverse), so the two
    // would hash different bytes and reject honest reports.
    const std::vector<std::pair<const char *, std::vector<FieldSpec>>>
        embedded = {{"AttestationReport", fieldSpecs<AttestationReport>()},
                    {"PropertyResult", fieldSpecs<PropertyResult>()},
                    {"MeasurementSet", fieldSpecs<MeasurementSet>()},
                    {"Measurement", fieldSpecs<Measurement>()}};
    for (const auto &[type, fields] : embedded) {
        for (const FieldSpec &f : fields)
            EXPECT_EQ(f.since, kWireV1) << type << "." << f.name;
    }
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
