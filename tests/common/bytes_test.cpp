/**
 * @file
 * Byte utilities: hex round trips, appending, constant-time
 * comparison semantics.
 */

#include <gtest/gtest.h>

#include "common/bytes.h"

namespace monatt
{
namespace
{

TEST(BytesTest, HexRoundTrip)
{
    const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x10};
    EXPECT_EQ(toHex(data), "0001abff10");
    EXPECT_EQ(fromHex("0001abff10"), data);
    EXPECT_EQ(fromHex("0001ABFF10"), data);
}

TEST(BytesTest, HexEmpty)
{
    EXPECT_EQ(toHex({}), "");
    EXPECT_TRUE(fromHex("").empty());
}

TEST(BytesTest, FromHexRejectsMalformed)
{
    EXPECT_THROW(fromHex("abc"), std::invalid_argument);
    EXPECT_THROW(fromHex("zz"), std::invalid_argument);
    EXPECT_THROW(fromHex("0g"), std::invalid_argument);
}

TEST(BytesTest, StringRoundTrip)
{
    EXPECT_EQ(toString(toBytes("hello")), "hello");
    EXPECT_TRUE(toBytes("").empty());
}

TEST(BytesTest, Append)
{
    Bytes dst = {1};
    append(dst, {2, 3});
    EXPECT_EQ(dst, (Bytes{1, 2, 3}));
}

TEST(BytesTest, ConstantTimeEqual)
{
    EXPECT_TRUE(constantTimeEqual({1, 2, 3}, {1, 2, 3}));
    EXPECT_FALSE(constantTimeEqual({1, 2, 3}, {1, 2, 4}));
    EXPECT_FALSE(constantTimeEqual({1, 2}, {1, 2, 3}));
    EXPECT_TRUE(constantTimeEqual({}, {}));
}

} // namespace
} // namespace monatt
