#include "crypto/drbg.h"

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace monatt::crypto
{

HmacDrbg::HmacDrbg(const Bytes &seedMaterial)
    : key(kSha256DigestSize, 0x00), value(kSha256DigestSize, 0x01)
{
    update(seedMaterial);
}

void
HmacDrbg::update(const Bytes &providedData)
{
    Bytes data = value;
    data.push_back(0x00);
    append(data, providedData);
    key = hmacSha256(key, data);
    value = hmacSha256(key, value);
    if (!providedData.empty()) {
        data = value;
        data.push_back(0x01);
        append(data, providedData);
        key = hmacSha256(key, data);
        value = hmacSha256(key, value);
    }
}

Bytes
HmacDrbg::generate(std::size_t n)
{
    Bytes out;
    out.reserve(n);
    while (out.size() < n) {
        value = hmacSha256(key, value);
        append(out, value);
    }
    out.resize(n);
    update({});
    return out;
}

Rng
HmacDrbg::forkRng()
{
    const Bytes seed = generate(8);
    std::uint64_t s = 0;
    for (int i = 0; i < 8; ++i)
        s |= static_cast<std::uint64_t>(seed[i]) << (8 * i);
    return Rng(s);
}

Bytes
seedMaterial(const std::string &label, const std::string &id,
             std::uint64_t seed)
{
    Bytes material = toBytes(label + ":" + id);
    for (int i = 0; i < 8; ++i)
        material.push_back(static_cast<std::uint8_t>(seed >> (8 * i)));
    return material;
}

} // namespace monatt::crypto
