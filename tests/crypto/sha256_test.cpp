/**
 * @file
 * SHA-256 correctness against FIPS 180-4 / NIST CAVP vectors, plus
 * incremental-update and structural properties.
 */

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace monatt::crypto
{
namespace
{

TEST(Sha256Test, EmptyString)
{
    EXPECT_EQ(toHex(Sha256::hash({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b"
              "7852b855");
}

TEST(Sha256Test, Abc)
{
    EXPECT_EQ(toHex(Sha256::hash(toBytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61"
              "f20015ad");
}

TEST(Sha256Test, TwoBlockMessage)
{
    const Bytes msg = toBytes(
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
    EXPECT_EQ(toHex(Sha256::hash(msg)),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
              "19db06c1");
}

TEST(Sha256Test, MillionA)
{
    Sha256 ctx;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        ctx.update(chunk);
    EXPECT_EQ(toHex(ctx.digest()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39cc"
              "c7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot)
{
    // Splits at every offset, including lengths on both sides of the
    // 55/56-byte padding boundary and of whole blocks, so every mix of
    // buffered and direct block compression is compared.
    std::vector<Bytes> messages = {
        toBytes("The quick brown fox jumps over the lazy dog")};
    for (std::size_t len : {55u, 56u, 63u, 64u, 119u, 120u, 128u}) {
        Bytes msg(len);
        for (std::size_t i = 0; i < len; ++i)
            msg[i] = static_cast<std::uint8_t>(i * 13 + len);
        messages.push_back(msg);
    }
    for (const Bytes &msg : messages) {
        const Bytes expected = Sha256::hash(msg);
        for (std::size_t split = 0; split <= msg.size(); ++split) {
            Sha256 ctx;
            ctx.update(Bytes(msg.begin(), msg.begin() + split));
            ctx.update(Bytes(msg.begin() + split, msg.end()));
            EXPECT_EQ(ctx.digest(), expected)
                << "len=" << msg.size() << " split=" << split;
        }
    }
}

TEST(Sha256Test, ContextResetsAfterDigest)
{
    Sha256 ctx;
    ctx.update(toBytes("abc"));
    const Bytes first = ctx.digest();
    ctx.update(toBytes("abc"));
    EXPECT_EQ(ctx.digest(), first);
}

TEST(Sha256Test, HashConcatMatchesManualConcat)
{
    const Bytes a = toBytes("hello");
    const Bytes b = toBytes("world");
    Bytes both = a;
    append(both, b);
    EXPECT_EQ(Sha256::hashConcat({&a, &b}), Sha256::hash(both));
}

TEST(Sha256Test, DistinctInputsDistinctDigests)
{
    EXPECT_NE(Sha256::hash(toBytes("a")), Sha256::hash(toBytes("b")));
    EXPECT_NE(Sha256::hash(toBytes("")), Sha256::hash(Bytes{0x00}));
}

// Every message length near the 64-byte block boundary must pad
// correctly; compare against the incremental path byte by byte.
class Sha256PaddingTest : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(Sha256PaddingTest, LengthBoundary)
{
    const std::size_t len = GetParam();
    Bytes msg(len);
    for (std::size_t i = 0; i < len; ++i)
        msg[i] = static_cast<std::uint8_t>(i * 31 + 7);

    // One-shot.
    const Bytes d1 = Sha256::hash(msg);
    // Byte-at-a-time incremental.
    Sha256 ctx;
    for (std::uint8_t b : msg)
        ctx.update(&b, 1);
    EXPECT_EQ(ctx.digest(), d1) << "len=" << len;
    EXPECT_EQ(d1.size(), kSha256DigestSize);
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, Sha256PaddingTest,
                         ::testing::Values(0, 1, 54, 55, 56, 57, 63, 64,
                                           65, 119, 120, 127, 128, 129,
                                           255, 256));

} // namespace
} // namespace monatt::crypto
