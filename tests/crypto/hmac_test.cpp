/**
 * @file
 * HMAC-SHA-256 against RFC 4231 vectors; HKDF against RFC 5869.
 */

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace monatt::crypto
{
namespace
{

/** RFC 2104 spelled out with fresh pad buffers: the reference. */
Bytes
referenceHmac(const Bytes &key, const Bytes &data)
{
    Bytes k = key.size() > 64 ? Sha256::hash(key) : key;
    k.resize(64, 0x00);
    Bytes ipad(64), opad(64);
    for (std::size_t i = 0; i < 64; ++i) {
        ipad[i] = k[i] ^ 0x36;
        opad[i] = k[i] ^ 0x5c;
    }
    append(ipad, data);
    append(opad, Sha256::hash(ipad));
    return Sha256::hash(opad);
}

TEST(HmacTest, Rfc4231Case1)
{
    const Bytes key(20, 0x0b);
    const Bytes data = toBytes("Hi There");
    EXPECT_EQ(toHex(hmacSha256(key, data)),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c"
              "2e32cff7");
}

TEST(HmacTest, Rfc4231Case2)
{
    const Bytes key = toBytes("Jefe");
    const Bytes data = toBytes("what do ya want for nothing?");
    EXPECT_EQ(toHex(hmacSha256(key, data)),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b9"
              "64ec3843");
}

TEST(HmacTest, Rfc4231Case3)
{
    const Bytes key(20, 0xaa);
    const Bytes data(50, 0xdd);
    EXPECT_EQ(toHex(hmacSha256(key, data)),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514"
              "ced565fe");
}

TEST(HmacTest, Rfc4231Case4)
{
    const Bytes key = fromHex("0102030405060708090a0b0c0d0e0f10111213141516"
                              "171819");
    const Bytes data(50, 0xcd);
    EXPECT_EQ(toHex(hmacSha256(key, data)),
              "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff4"
              "6729665b");
}

TEST(HmacTest, Rfc4231Case6LongKey)
{
    const Bytes key(131, 0xaa);
    const Bytes data =
        toBytes("Test Using Larger Than Block-Size Key - Hash Key First");
    EXPECT_EQ(toHex(hmacSha256(key, data)),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f"
              "0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LongKeyLongData)
{
    const Bytes key(131, 0xaa);
    const Bytes data = toBytes(
        "This is a test using a larger than block-size key and a larger "
        "than block-size data. The key needs to be hashed before being "
        "used by the HMAC algorithm.");
    EXPECT_EQ(toHex(hmacSha256(key, data)),
              "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f5153"
              "5c3a35e2");
}

TEST(HmacTest, MatchesReferenceAcrossKeyAndDataLengths)
{
    // One keyed context serves every message: the one-shot call, mac()
    // and the streaming innerContext()/finish() path must all agree
    // with the reference, and reuse must not disturb the pad states.
    for (std::size_t keyLen : {0u, 32u, 63u, 64u, 65u, 131u}) {
        Bytes key(keyLen);
        for (std::size_t i = 0; i < keyLen; ++i)
            key[i] = static_cast<std::uint8_t>(i * 7 + keyLen);
        const HmacSha256 keyed(key);
        for (std::size_t len = 0; len <= 300; ++len) {
            Bytes data(len);
            for (std::size_t i = 0; i < len; ++i)
                data[i] = static_cast<std::uint8_t>(i * 11 + 3);
            const Bytes expected = referenceHmac(key, data);
            EXPECT_EQ(hmacSha256(key, data), expected)
                << "key=" << keyLen << " data=" << len;
            EXPECT_EQ(keyed.mac(data), expected)
                << "key=" << keyLen << " data=" << len;

            Sha256 ctx = keyed.innerContext();
            ctx.update(data.data(), len / 3);
            ctx.update(data.data() + len / 3, len - len / 3);
            Bytes streamed(kSha256DigestSize);
            keyed.finish(ctx, streamed.data());
            EXPECT_EQ(streamed, expected)
                << "key=" << keyLen << " data=" << len;
        }
    }
}

TEST(HmacTest, KeySensitivity)
{
    const Bytes data = toBytes("message");
    EXPECT_NE(hmacSha256(toBytes("key1"), data),
              hmacSha256(toBytes("key2"), data));
}

TEST(HkdfTest, Rfc5869Case1)
{
    const Bytes ikm(22, 0x0b);
    const Bytes salt = fromHex("000102030405060708090a0b0c");
    const Bytes info = fromHex("f0f1f2f3f4f5f6f7f8f9");
    const Bytes okm = hkdf(salt, ikm, info, 42);
    EXPECT_EQ(toHex(okm),
              "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56"
              "ecc4c5bf34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo)
{
    const Bytes ikm(22, 0x0b);
    const Bytes okm = hkdf({}, ikm, {}, 42);
    EXPECT_EQ(toHex(okm),
              "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f"
              "3c738d2d9d201395faa4b61a96c8");
}

TEST(HkdfTest, ExpandLengths)
{
    const Bytes prk = hkdfExtract(toBytes("salt"), toBytes("ikm"));
    for (std::size_t len : {1u, 31u, 32u, 33u, 64u, 100u}) {
        EXPECT_EQ(hkdfExpand(prk, toBytes("ctx"), len).size(), len);
    }
    // Prefix property: shorter outputs are prefixes of longer ones.
    const Bytes long64 = hkdfExpand(prk, toBytes("ctx"), 64);
    const Bytes short32 = hkdfExpand(prk, toBytes("ctx"), 32);
    EXPECT_EQ(Bytes(long64.begin(), long64.begin() + 32), short32);
}

TEST(HkdfTest, InfoSeparatesKeys)
{
    const Bytes prk = hkdfExtract(toBytes("salt"), toBytes("master"));
    EXPECT_NE(hkdfExpand(prk, toBytes("client->server"), 32),
              hkdfExpand(prk, toBytes("server->client"), 32));
}

TEST(HkdfTest, RejectsOversizedRequest)
{
    const Bytes prk = hkdfExtract({}, toBytes("x"));
    EXPECT_THROW(hkdfExpand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

} // namespace
} // namespace monatt::crypto
