#include "crypto/hmac.h"

#include <cstring>
#include <stdexcept>

namespace monatt::crypto
{

HmacSha256::HmacSha256(const Bytes &key)
{
    constexpr std::size_t blockSize = 64;

    std::uint8_t k[blockSize] = {};
    if (key.size() > blockSize) {
        Sha256 keyHash;
        keyHash.update(key);
        keyHash.finish(k);
    } else if (!key.empty()) {
        std::memcpy(k, key.data(), key.size());
    }

    std::uint8_t pad[blockSize];
    for (std::size_t i = 0; i < blockSize; ++i)
        pad[i] = k[i] ^ 0x36;
    inner.update(pad, blockSize);
    for (std::size_t i = 0; i < blockSize; ++i)
        pad[i] = k[i] ^ 0x5c;
    outer.update(pad, blockSize);
}

void
HmacSha256::finish(Sha256 &ctx, std::uint8_t out[kSha256DigestSize]) const
{
    std::uint8_t innerDigest[kSha256DigestSize];
    ctx.finish(innerDigest);
    Sha256 o = outer;
    o.update(innerDigest, kSha256DigestSize);
    o.finish(out);
}

Bytes
HmacSha256::mac(const Bytes &data) const
{
    Sha256 ctx = inner;
    ctx.update(data);
    Bytes out(kSha256DigestSize);
    finish(ctx, out.data());
    return out;
}

Bytes
hmacSha256(const Bytes &key, const Bytes &data)
{
    return HmacSha256(key).mac(data);
}

Bytes
hkdfExtract(const Bytes &salt, const Bytes &ikm)
{
    if (salt.empty())
        return hmacSha256(Bytes(kSha256DigestSize, 0x00), ikm);
    return hmacSha256(salt, ikm);
}

Bytes
hkdfExpand(const Bytes &prk, const Bytes &info, std::size_t length)
{
    if (length > 255 * kSha256DigestSize)
        throw std::invalid_argument("hkdfExpand: length too large");

    const HmacSha256 mac(prk);
    Bytes out;
    Bytes t;
    std::uint8_t counter = 1;
    while (out.size() < length) {
        Bytes block = t;
        append(block, info);
        block.push_back(counter++);
        t = mac.mac(block);
        append(out, t);
    }
    out.resize(length);
    return out;
}

Bytes
hkdf(const Bytes &salt, const Bytes &ikm, const Bytes &info,
     std::size_t length)
{
    return hkdfExpand(hkdfExtract(salt, ikm), info, length);
}

} // namespace monatt::crypto
