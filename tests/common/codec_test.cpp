/**
 * @file
 * Serialization codec: round trips for every field type and strict
 * rejection of truncated or malformed buffers — the protocol layer
 * relies on the reader's strictness to catch tampering.
 */

#include <gtest/gtest.h>

#include "common/codec.h"

namespace monatt
{
namespace
{

TEST(CodecTest, ScalarRoundTrip)
{
    ByteWriter w;
    w.putU8(0xab);
    w.putU32(0xdeadbeef);
    w.putU64(0x0123456789abcdefULL);
    // One byte, then little-endian fixed widths.
    ASSERT_EQ(w.data().size(), 13u);
    EXPECT_EQ(w.data()[0], 0xab);
    EXPECT_EQ(w.data()[1], 0xef);
    EXPECT_EQ(w.data()[5], 0xef);

    const Bytes tail(w.data().begin() + 1, w.data().end());
    ByteReader r(tail);
    EXPECT_EQ(r.getU32().value(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64().value(), 0x0123456789abcdefULL);
    EXPECT_TRUE(r.atEnd());
}

TEST(CodecTest, BytesAndStringRoundTrip)
{
    ByteWriter w;
    w.putBytes({1, 2, 3});
    w.putString("hello");
    w.putBytes({});
    w.putString("");

    ByteReader r(w.data());
    EXPECT_EQ(r.getBytes().value(), (Bytes{1, 2, 3}));
    EXPECT_EQ(r.getString().value(), "hello");
    EXPECT_TRUE(r.getBytes().value().empty());
    EXPECT_EQ(r.getString().value(), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(CodecTest, TruncatedScalarFails)
{
    const Bytes buf = {0x01, 0x02};
    ByteReader r(buf);
    EXPECT_FALSE(r.getU32().isOk());
    ByteReader r2(buf);
    EXPECT_FALSE(r2.getU64().isOk());
}

TEST(CodecTest, TruncatedLengthPrefixFails)
{
    ByteWriter w;
    w.putBytes({1, 2, 3, 4, 5});
    Bytes buf = w.take();
    buf.resize(buf.size() - 2); // Chop payload.
    ByteReader r(buf);
    EXPECT_FALSE(r.getBytes().isOk());
}

TEST(CodecTest, OverlongLengthPrefixFails)
{
    ByteWriter w;
    w.putU32(1000); // Claims 1000 bytes follow.
    Bytes buf = w.take();
    buf.insert(buf.end(), {1, 2, 3});
    ByteReader r(buf);
    EXPECT_FALSE(r.getBytes().isOk());
}

TEST(CodecTest, RemainingTracksConsumption)
{
    ByteWriter w;
    w.putU32(7);
    w.putU32(8);
    ByteReader r(w.data());
    EXPECT_EQ(r.remaining(), 8u);
    ASSERT_TRUE(r.getU32().isOk());
    EXPECT_EQ(r.remaining(), 4u);
    EXPECT_FALSE(r.atEnd());
}

TEST(CodecTest, EmptyBuffer)
{
    const Bytes empty;
    ByteReader r(empty);
    EXPECT_TRUE(r.atEnd());
    EXPECT_FALSE(r.getU32().isOk());
    EXPECT_FALSE(r.getBytes().isOk());
}

} // namespace
} // namespace monatt
