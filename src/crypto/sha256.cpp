#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

namespace monatt::crypto
{

namespace
{

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

/** One compression round: adds t1 into d (the next e) and sets h to
 * t1 + t2 (the next a); the caller renames the variables. */
inline void
compressRound(std::uint32_t a, std::uint32_t b, std::uint32_t c,
              std::uint32_t &d, std::uint32_t e, std::uint32_t f,
              std::uint32_t g, std::uint32_t &h, int i,
              const std::uint32_t *w)
{
    const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             (g ^ (e & (f ^ g))) + kRound[i] + w[i];
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                             ((a & b) | (c & (a | b)));
    d += t1;
    h = t1 + t2;
}

} // namespace

Sha256::Sha256()
{
    reset();
}

void
Sha256::reset()
{
    std::memcpy(state, kInit, sizeof(state));
    totalBits = 0;
    bufferLen = 0;
}

void
Sha256::processBlock(const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
               static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
               static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
               static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                                 (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                                 (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    // Eight rounds per pass, renaming the working variables instead of
    // shifting them.
    for (int i = 0; i < 64; i += 8) {
        compressRound(a, b, c, d, e, f, g, h, i, w);
        compressRound(h, a, b, c, d, e, f, g, i + 1, w);
        compressRound(g, h, a, b, c, d, e, f, i + 2, w);
        compressRound(f, g, h, a, b, c, d, e, i + 3, w);
        compressRound(e, f, g, h, a, b, c, d, i + 4, w);
        compressRound(d, e, f, g, h, a, b, c, i + 5, w);
        compressRound(c, d, e, f, g, h, a, b, i + 6, w);
        compressRound(b, c, d, e, f, g, h, a, i + 7, w);
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

void
Sha256::update(const Bytes &data)
{
    update(data.data(), data.size());
}

void
Sha256::update(const std::uint8_t *data, std::size_t len)
{
    if (len == 0)
        return;
    totalBits += static_cast<std::uint64_t>(len) * 8;
    if (bufferLen > 0) {
        const std::size_t take = std::min(len, 64 - bufferLen);
        std::memcpy(buffer + bufferLen, data, take);
        bufferLen += take;
        data += take;
        len -= take;
        if (bufferLen < 64)
            return;
        processBlock(buffer);
        bufferLen = 0;
    }
    // Whole blocks compress straight from the input.
    for (; len >= 64; data += 64, len -= 64)
        processBlock(data);
    std::memcpy(buffer, data, len);
    bufferLen = len;
}

void
Sha256::finish(std::uint8_t out[kSha256DigestSize])
{
    // Padding: 0x80, zeros, then the 64-bit big-endian bit count.
    buffer[bufferLen++] = 0x80;
    if (bufferLen > 56) {
        std::memset(buffer + bufferLen, 0, 64 - bufferLen);
        processBlock(buffer);
        bufferLen = 0;
    }
    std::memset(buffer + bufferLen, 0, 56 - bufferLen);
    for (int i = 0; i < 8; ++i)
        buffer[56 + i] =
            static_cast<std::uint8_t>(totalBits >> (56 - 8 * i));
    processBlock(buffer);

    for (int i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(state[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
    }
    reset();
}

Bytes
Sha256::digest()
{
    Bytes out(kSha256DigestSize);
    finish(out.data());
    return out;
}

Bytes
Sha256::hash(const Bytes &data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.digest();
}

Bytes
Sha256::hashConcat(std::initializer_list<const Bytes *> parts)
{
    Sha256 ctx;
    for (const Bytes *part : parts)
        ctx.update(*part);
    return ctx.digest();
}

} // namespace monatt::crypto
