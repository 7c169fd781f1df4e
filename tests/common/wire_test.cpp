/**
 * @file
 * The tag/wire-type primitive codec: varint and zigzag edges, writer/
 * reader round trips, unknown-field skip mechanics, and decoder
 * robustness under hostile input — seeded truncations, tag and byte
 * corruption, over-long LEN prefixes and deep LEN nesting must all
 * come back as clean decode errors (or benign misreads), never hangs,
 * crashes or sanitizer findings.
 */

#include <gtest/gtest.h>

#include "../proto/wire_samples.h"
#include "common/wire.h"

namespace monatt::wire
{
namespace
{

TEST(WireTest, VarintEdgeValuesRoundTrip)
{
    const std::uint64_t cases[] = {
        0,   1,   127, 128,        300,
        500, 1u << 14, (1u << 14) + 1, 0x7fffffffull,
        0xffffffffull, 0xffffffffffffffffull,
    };
    for (std::uint64_t v : cases) {
        Bytes buf;
        appendVarint(buf, v);
        EXPECT_EQ(buf.size(), varintSize(v));
        WireReader r(buf);
        auto got = r.nextVarint();
        ASSERT_TRUE(got.isOk()) << v;
        EXPECT_EQ(got.value(), v);
        EXPECT_TRUE(r.atEnd());
    }
    EXPECT_EQ(varintSize(0), 1u);
    EXPECT_EQ(varintSize(127), 1u);
    EXPECT_EQ(varintSize(128), 2u);
    EXPECT_EQ(varintSize(0xffffffffffffffffull), kMaxVarintBytes);
}

TEST(WireTest, ZigzagEdges)
{
    const std::int64_t cases[] = {
        0,
        -1,
        1,
        -2,
        63,
        -64,
        std::int64_t{1} << 40,
        -(std::int64_t{1} << 40),
        INT64_MAX,
        INT64_MIN,
    };
    for (std::int64_t v : cases)
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v) << v;
    // Small magnitudes must encode small (the point of zigzag).
    EXPECT_EQ(zigzagEncode(0), 0u);
    EXPECT_EQ(zigzagEncode(-1), 1u);
    EXPECT_EQ(zigzagEncode(1), 2u);
    EXPECT_EQ(zigzagEncode(-2), 3u);
}

TEST(WireTest, WriterReaderRoundTripAllTypes)
{
    WireWriter w;
    w.putVarint(1, 300);
    w.putVarint(2, zigzagEncode(-12345));
    w.putVarint(3, 1);
    Bytes bytes = w.take();
    // No declared field is I64, but a peer's may be: field 4 (tag
    // 0x21) and eight little-endian bytes.
    append(bytes, fromHex("21efcdab8967452301"));
    WireWriter tail;
    tail.putLen(6, Bytes{0x00, 0xff, 0x10});
    tail.putString(7, "hello");
    append(bytes, tail.data());

    WireReader r(bytes);
    auto f = r.next();
    ASSERT_TRUE(f.isOk());
    EXPECT_EQ(f.value().number, 1u);
    EXPECT_EQ(f.value().type, WireType::Varint);
    EXPECT_EQ(f.value().varint, 300u);

    f = r.next();
    ASSERT_TRUE(f.isOk());
    EXPECT_EQ(f.value().asSigned(), -12345);

    f = r.next();
    ASSERT_TRUE(f.isOk());
    EXPECT_TRUE(f.value().asBool());

    f = r.next();
    ASSERT_TRUE(f.isOk());
    EXPECT_EQ(f.value().number, 4u);
    EXPECT_EQ(f.value().type, WireType::I64);
    EXPECT_EQ(f.value().varint, 0x0123456789abcdefull);

    f = r.next();
    ASSERT_TRUE(f.isOk());
    EXPECT_EQ(f.value().bytes, (Bytes{0x00, 0xff, 0x10}));

    f = r.next();
    ASSERT_TRUE(f.isOk());
    EXPECT_EQ(f.value().asString(), "hello");
    EXPECT_TRUE(r.atEnd());
}

TEST(WireTest, FieldNumberZeroRejected)
{
    // tag byte 0x00 = field 0, VARINT — invalid on arrival.
    Bytes buf{0x00, 0x01};
    WireReader r(buf);
    EXPECT_FALSE(r.next().isOk());
}

TEST(WireTest, UnknownWireTypesRejected)
{
    for (std::uint8_t wt : {3, 4, 5, 6, 7}) {
        Bytes buf{static_cast<std::uint8_t>((1u << 3) | wt), 0x01};
        WireReader r(buf);
        EXPECT_FALSE(r.next().isOk()) << unsigned(wt);
    }
}

TEST(WireTest, TruncatedInputsAreErrors)
{
    // Varint that never terminates (all continuation bits).
    Bytes runaway(kMaxVarintBytes + 2, 0x80);
    {
        WireReader r(runaway);
        EXPECT_FALSE(r.nextVarint().isOk());
    }
    // Tag byte alone, payload missing.
    {
        Bytes buf{0x08}; // field 1, VARINT
        WireReader r(buf);
        EXPECT_FALSE(r.next().isOk());
    }
    // I64 with fewer than 8 payload bytes.
    {
        Bytes buf{0x09, 0x01, 0x02, 0x03}; // field 1, I64
        WireReader r(buf);
        EXPECT_FALSE(r.next().isOk());
    }
}

TEST(WireTest, OverlongLenPrefixIsErrorBeforeAllocation)
{
    // field 1, LEN, declared length far beyond the buffer. The
    // reader must reject it by comparing against remaining() rather
    // than trying to allocate/copy the declared size.
    WireWriter w;
    Bytes buf{0x0a}; // field 1, LEN
    appendVarint(buf, 0xffffffffffffull);
    buf.push_back(0x42);
    WireReader r(buf);
    EXPECT_FALSE(r.next().isOk());
}

TEST(WireTest, DeepLenNestingDoesNotRecurse)
{
    // 200k levels of LEN nesting under an unknown field number. A
    // recursive skip would overflow the stack; the iterative reader
    // surfaces the outer payload in one hop and message decoders
    // simply ignore it.
    constexpr int kDepth = 200000;
    // Emit outside-in: level k's payload length is level k-1's whole
    // size, so precompute sizes and write tags head-first in O(n).
    std::vector<std::size_t> size(kDepth + 1);
    size[0] = 0;
    for (int k = 1; k <= kDepth; ++k)
        size[k] = 1 + varintSize(size[k - 1]) + size[k - 1];
    Bytes inner;
    inner.reserve(size[kDepth]);
    for (int k = kDepth; k >= 1; --k) {
        inner.push_back(0x4a); // field 9, LEN — unknown to every schema
        appendVarint(inner, size[k - 1]);
    }
    ASSERT_EQ(inner.size(), size[kDepth]);
    auto decoded = proto::decode<proto::AttestRequest>(inner);
    ASSERT_TRUE(decoded.isOk());
    EXPECT_EQ(decoded.value().requestId, 0u); // all defaults
}

/** xorshift64 — deterministic corruption source, no global RNG. */
std::uint64_t
nextRand(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

// The sweeps below run over the shared sample table: every message
// type and every journal record type.

TEST(WireRobustnessTest, EveryTruncationDecodesCleanly)
{
    for (const samples::Sample &smp : samples::allSamples()) {
        for (std::size_t len = 0; len < smp.body.size(); ++len) {
            Bytes prefix(smp.body.begin(),
                         smp.body.begin() + static_cast<std::ptrdiff_t>(len));
            // Must terminate with either a value or an error; the
            // sanitizers catch anything worse.
            (void)smp.decode(prefix);
        }
        EXPECT_TRUE(smp.decode(smp.body).isOk()) << smp.name;
    }
}

TEST(WireRobustnessTest, SeededByteCorruptionNeverCrashes)
{
    for (const samples::Sample &smp : samples::allSamples()) {
        std::uint64_t rng = 0x5eed5eed5eed5eedull;
        for (int round = 0; round < 2000; ++round) {
            Bytes mutated = smp.body;
            // 1-4 corruptions: byte flips biased toward tag positions.
            const int flips = 1 + static_cast<int>(nextRand(rng) % 4);
            for (int i = 0; i < flips; ++i) {
                const std::size_t at = nextRand(rng) % mutated.size();
                mutated[at] ^=
                    static_cast<std::uint8_t>(nextRand(rng) % 255 + 1);
            }
            (void)smp.decode(mutated);
        }
    }
    SUCCEED();
}

TEST(WireRobustnessTest, SeededGarbageNeverCrashes)
{
    const std::vector<samples::Sample> all = samples::allSamples();
    std::uint64_t rng = 0xdecafbadull;
    for (int round = 0; round < 2000; ++round) {
        Bytes garbage(nextRand(rng) % 256);
        for (auto &b : garbage)
            b = static_cast<std::uint8_t>(nextRand(rng));
        for (const samples::Sample &smp : all)
            (void)smp.decode(garbage);
        (void)proto::unpackMessage(garbage);
    }
    SUCCEED();
}

} // namespace
} // namespace monatt::wire
