#include "crypto/rsa.h"

#include <stdexcept>

#include "common/codec.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"

namespace monatt::crypto
{

namespace
{

/** The smallest modulus rsaGenerateKeyPair makes or decode accepts. */
constexpr std::size_t kMinModulusBits = 256;

/**
 * DER-style prefix identifying SHA-256 inside the EMSA padding, as in
 * PKCS#1 v1.5 (RFC 8017 §9.2 notes).
 */
const Bytes kSha256Prefix = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65,
    0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20,
};

/** Build the EMSA-PKCS1-v1_5 encoded message of length emLen. */
Bytes
emsaEncode(const Bytes &digest, std::size_t emLen)
{
    const std::size_t tLen = kSha256Prefix.size() + digest.size();
    if (emLen < tLen + 11)
        throw std::invalid_argument("emsaEncode: modulus too small");
    Bytes em;
    em.reserve(emLen);
    em.push_back(0x00);
    em.push_back(0x01);
    em.insert(em.end(), emLen - tLen - 3, 0xff);
    em.push_back(0x00);
    em.insert(em.end(), kSha256Prefix.begin(), kSha256Prefix.end());
    em.insert(em.end(), digest.begin(), digest.end());
    return em;
}

} // namespace

Bytes
RsaPublicKey::encode() const
{
    ByteWriter w;
    w.putBytes(n.toBytes());
    w.putBytes(e.toBytes());
    return w.take();
}

Result<RsaPublicKey>
RsaPublicKey::decode(const Bytes &data)
{
    ByteReader r(data);
    auto nBytes = r.getBytes();
    if (!nBytes)
        return Result<RsaPublicKey>::error("RsaPublicKey: bad modulus");
    auto eBytes = r.getBytes();
    if (!eBytes)
        return Result<RsaPublicKey>::error("RsaPublicKey: bad exponent");
    if (!r.atEnd())
        return Result<RsaPublicKey>::error("RsaPublicKey: trailing bytes");
    RsaPublicKey key;
    key.n = BigUint::fromBytes(nBytes.value());
    key.e = BigUint::fromBytes(eBytes.value());
    // An even or short modulus is no RSA key of ours, and under e = 1
    // every padded digest is its own signature.
    if (!key.n.isOdd() || key.n.bitLength() < kMinModulusBits)
        return Result<RsaPublicKey>::error("RsaPublicKey: bad modulus");
    if (!key.e.isOdd() || key.e < BigUint::fromU64(3) || key.e >= key.n)
        return Result<RsaPublicKey>::error("RsaPublicKey: bad exponent");
    return Result<RsaPublicKey>::ok(std::move(key));
}

RsaPublicContext::RsaPublicContext(const RsaPublicKey &key)
    : pub(key), mont(pub.n)
{
}

BigUint
RsaPublicContext::encryptRaw(const BigUint &value) const
{
    return mont.modExp(value, pub.e);
}

const RsaPublicContext &
RsaPublicContextCache::get(const std::string &id, const RsaPublicKey &key)
{
    const auto it = contexts.find(id);
    if (it == contexts.end())
        return contexts.emplace(id, RsaPublicContext(key)).first->second;
    if (!(it->second.key() == key))
        it->second = RsaPublicContext(key);
    return it->second;
}

RsaPrivateContext::RsaPrivateContext(const RsaPrivateKey &key)
    : priv(key), montP(priv.p), montQ(priv.q)
{
}

BigUint
RsaPrivateContext::decryptRaw(const BigUint &c) const
{
    // CRT: m1 = c^dP mod p, m2 = c^dQ mod q,
    // h = qInv (m1 - m2) mod p, m = m2 + h q.
    const BigUint m1 = montP.modExp(c, priv.dP);
    const BigUint m2 = montQ.modExp(c, priv.dQ);
    BigUint diff;
    if (m1 >= m2)
        diff = m1 - m2;
    else
        diff = priv.p - ((m2 - m1) % priv.p);
    const BigUint h = (priv.qInv * diff) % priv.p;
    return m2 + h * priv.q;
}

RsaKeyPair
rsaGenerateKeyPair(std::size_t modulusBits, Rng &rng)
{
    if (modulusBits < kMinModulusBits || modulusBits % 2 != 0)
        throw std::invalid_argument("rsaGenerateKeyPair: bad key size");

    const BigUint e = BigUint::fromU64(65537);
    const BigUint one = BigUint::fromU64(1);

    for (;;) {
        BigUint p = BigUint::generatePrime(modulusBits / 2, rng);
        BigUint q = BigUint::generatePrime(modulusBits / 2, rng);
        if (p == q)
            continue;
        if (p < q)
            std::swap(p, q);

        const BigUint n = p * q;
        if (n.bitLength() != modulusBits)
            continue;

        const BigUint pMinus1 = p - one;
        const BigUint qMinus1 = q - one;
        const BigUint phi = pMinus1 * qMinus1;
        if (BigUint::gcd(e, phi) != one)
            continue;

        RsaKeyPair pair;
        pair.pub.n = n;
        pair.pub.e = e;
        pair.priv.n = n;
        pair.priv.d = e.modInverse(phi);
        pair.priv.p = p;
        pair.priv.q = q;
        pair.priv.dP = pair.priv.d % pMinus1;
        pair.priv.dQ = pair.priv.d % qMinus1;
        // p is prime and does not divide q, so q^(p-2) = q^-1 (mod p)
        // by Fermat's little theorem: one 256-bit exponentiation of a
        // 512-bit key, a third of the cost of extended Euclid here.
        pair.priv.qInv = q.modExp(pMinus1 - one, p);
        return pair;
    }
}

RsaKeyPair
deriveKeyPair(const std::string &label, const std::string &id,
              std::uint64_t seed, std::size_t modulusBits)
{
    HmacDrbg drbg(seedMaterial(label, id, seed));
    Rng rng = drbg.forkRng();
    return rsaGenerateKeyPair(modulusBits, rng);
}

Bytes
rsaSign(const RsaPrivateContext &ctx, const Bytes &message)
{
    const std::size_t k = (ctx.key().n.bitLength() + 7) / 8;
    const Bytes em = emsaEncode(Sha256::hash(message), k);
    const BigUint m = BigUint::fromBytes(em);
    return ctx.decryptRaw(m).toBytes(k);
}

bool
rsaVerify(const RsaPublicContext &ctx, const Bytes &message,
          const Bytes &signature)
{
    const RsaPublicKey &key = ctx.key();
    const std::size_t k = key.modulusBytes();
    if (signature.size() != k)
        return false;
    const BigUint s = BigUint::fromBytes(signature);
    if (s >= key.n)
        return false;
    const Bytes em = ctx.encryptRaw(s).toBytes(k);
    Bytes expected;
    try {
        expected = emsaEncode(Sha256::hash(message), k);
    } catch (const std::invalid_argument &) {
        return false;
    }
    return constantTimeEqual(em, expected);
}

namespace
{

/** EME-PKCS1-v1_5: 00 || 02 || nonzero padding || 00 || message. */
Result<Bytes>
emePad(const Bytes &message, std::size_t k, Rng &rng)
{
    if (message.size() + 11 > k)
        return Result<Bytes>::error("rsaEncrypt: message too long");
    Bytes em;
    em.reserve(k);
    em.push_back(0x00);
    em.push_back(0x02);
    const std::size_t padLen = k - message.size() - 3;
    for (std::size_t i = 0; i < padLen; ++i) {
        std::uint8_t b;
        do {
            b = static_cast<std::uint8_t>(rng.next() & 0xff);
        } while (b == 0);
        em.push_back(b);
    }
    em.push_back(0x00);
    em.insert(em.end(), message.begin(), message.end());
    return Result<Bytes>::ok(std::move(em));
}

/** Strip EME-PKCS1-v1_5 padding from a decrypted block. */
Result<Bytes>
emeUnpad(const Bytes &em)
{
    if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02)
        return Result<Bytes>::error("rsaDecrypt: bad padding");
    std::size_t sep = 2;
    while (sep < em.size() && em[sep] != 0x00)
        ++sep;
    if (sep == em.size() || sep < 10)
        return Result<Bytes>::error("rsaDecrypt: bad padding");
    return Result<Bytes>::ok(Bytes(em.begin() + sep + 1, em.end()));
}

} // namespace

Result<Bytes>
rsaEncrypt(const RsaPublicContext &ctx, const Bytes &message, Rng &rng)
{
    const std::size_t k = ctx.key().modulusBytes();
    auto em = emePad(message, k, rng);
    if (!em)
        return em;
    const BigUint m = BigUint::fromBytes(em.value());
    return Result<Bytes>::ok(ctx.encryptRaw(m).toBytes(k));
}

Result<Bytes>
rsaDecrypt(const RsaPrivateContext &ctx, const Bytes &cipher)
{
    const RsaPrivateKey &key = ctx.key();
    const std::size_t k = (key.n.bitLength() + 7) / 8;
    if (cipher.size() != k)
        return Result<Bytes>::error("rsaDecrypt: bad ciphertext length");
    const BigUint c = BigUint::fromBytes(cipher);
    if (c >= key.n)
        return Result<Bytes>::error("rsaDecrypt: ciphertext out of range");
    return emeUnpad(ctx.decryptRaw(c).toBytes(k));
}

} // namespace monatt::crypto
