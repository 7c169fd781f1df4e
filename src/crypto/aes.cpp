#include "crypto/aes.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace monatt::crypto
{

namespace
{

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5,
    0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc,
    0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a,
    0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85,
    0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17,
    0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88,
    0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9,
    0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6,
    0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94,
    0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68,
    0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
};

constexpr std::uint8_t kRcon[10] = {
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
};

/**
 * T-tables: te[0][x] is the MixColumns column (2s, s, s, 3s) of
 * s = S(x) as a big-endian word, and te[r] is that word rotated right
 * by 8r bits, the contribution of a byte in row r.
 */
struct TTables
{
    std::uint32_t te[4][256];
};

constexpr TTables
makeTTables()
{
    TTables t{};
    for (int x = 0; x < 256; ++x) {
        const std::uint32_t s = kSbox[x];
        const std::uint32_t s2 = ((s << 1) ^ ((s >> 7) * 0x1b)) & 0xff;
        const std::uint32_t w = s2 << 24 | s << 16 | s << 8 | (s2 ^ s);
        t.te[0][x] = w;
        t.te[1][x] = w >> 8 | w << 24;
        t.te[2][x] = w >> 16 | w << 16;
        t.te[3][x] = w >> 24 | w << 8;
    }
    return t;
}

constexpr TTables kT = makeTTables();

std::uint32_t
load32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) << 24 |
           static_cast<std::uint32_t>(p[1]) << 16 |
           static_cast<std::uint32_t>(p[2]) << 8 |
           static_cast<std::uint32_t>(p[3]);
}

void
store32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

/** One full round for output column c: ShiftRows takes row r from
 * column c + r. */
std::uint32_t
fullRound(std::uint32_t a, std::uint32_t b, std::uint32_t c,
          std::uint32_t d, std::uint32_t key)
{
    return kT.te[0][a >> 24] ^ kT.te[1][(b >> 16) & 0xff] ^
           kT.te[2][(c >> 8) & 0xff] ^ kT.te[3][d & 0xff] ^ key;
}

/** The last round: SubBytes and ShiftRows only, through the S-box. */
std::uint32_t
lastRound(std::uint32_t a, std::uint32_t b, std::uint32_t c,
          std::uint32_t d, std::uint32_t key)
{
    return (static_cast<std::uint32_t>(kSbox[a >> 24]) << 24 |
            static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff]) << 16 |
            static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8 |
            static_cast<std::uint32_t>(kSbox[d & 0xff])) ^
           key;
}

} // namespace

Aes128::Aes128(const Bytes &key)
{
    if (key.size() != kAes128KeySize)
        throw std::invalid_argument("Aes128: key must be 16 bytes");

    std::uint8_t expanded[176];
    std::memcpy(expanded, key.data(), 16);
    for (int i = 4; i < 44; ++i) {
        std::uint8_t temp[4];
        std::memcpy(temp, expanded + 4 * (i - 1), 4);
        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon.
            const std::uint8_t t0 = temp[0];
            temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^
                                                kRcon[i / 4 - 1]);
            temp[1] = kSbox[temp[2]];
            temp[2] = kSbox[temp[3]];
            temp[3] = kSbox[t0];
        }
        for (int j = 0; j < 4; ++j)
            expanded[4 * i + j] = expanded[4 * (i - 4) + j] ^ temp[j];
    }
    for (int i = 0; i < 44; ++i)
        roundKeys[i] = load32(expanded + 4 * i);
}

void
Aes128::encrypt(const std::uint8_t in[kAesBlockSize],
                std::uint8_t out[kAesBlockSize]) const
{
    std::uint32_t s0 = load32(in) ^ roundKeys[0];
    std::uint32_t s1 = load32(in + 4) ^ roundKeys[1];
    std::uint32_t s2 = load32(in + 8) ^ roundKeys[2];
    std::uint32_t s3 = load32(in + 12) ^ roundKeys[3];
    for (int r = 1; r <= 9; ++r) {
        const std::uint32_t *k = roundKeys + 4 * r;
        const std::uint32_t t0 = fullRound(s0, s1, s2, s3, k[0]);
        const std::uint32_t t1 = fullRound(s1, s2, s3, s0, k[1]);
        const std::uint32_t t2 = fullRound(s2, s3, s0, s1, k[2]);
        const std::uint32_t t3 = fullRound(s3, s0, s1, s2, k[3]);
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }
    store32(out, lastRound(s0, s1, s2, s3, roundKeys[40]));
    store32(out + 4, lastRound(s1, s2, s3, s0, roundKeys[41]));
    store32(out + 8, lastRound(s2, s3, s0, s1, roundKeys[42]));
    store32(out + 12, lastRound(s3, s0, s1, s2, roundKeys[43]));
}

void
Aes128::encryptBlock(std::uint8_t block[kAesBlockSize]) const
{
    encrypt(block, block);
}

void
Aes128::ctr(const std::uint8_t nonce[12], const std::uint8_t *in,
            std::uint8_t *out, std::size_t n) const
{
    std::uint8_t counterBlock[kAesBlockSize];
    std::uint8_t keystream[kAesBlockSize];
    std::memcpy(counterBlock, nonce, 12);
    for (std::uint32_t counter = 0; n > 0; ++counter) {
        store32(counterBlock + 12, counter);
        encrypt(counterBlock, keystream);
        const std::size_t take = std::min(n, kAesBlockSize);
        for (std::size_t i = 0; i < take; ++i)
            out[i] = in[i] ^ keystream[i];
        in += take;
        out += take;
        n -= take;
    }
}

Bytes
Aes128::ctrTransform(const Bytes &nonce, const Bytes &data) const
{
    if (nonce.size() != 12)
        throw std::invalid_argument("Aes128::ctrTransform: nonce != 12B");

    Bytes out(data.size());
    ctr(nonce.data(), data.data(), out.data(), data.size());
    return out;
}

} // namespace monatt::crypto
