/**
 * @file
 * HMAC-SHA-256 (RFC 2104) and HKDF (RFC 5869), from scratch.
 *
 * HMAC authenticates every record on the SSL-like secure channels of
 * §3.4.1 and underpins the HMAC-DRBG used by the Trust Module's RNG.
 * HKDF expands the master secret negotiated during the channel
 * handshake into the directional encryption and MAC keys (the Kx, Ky,
 * Kz session keys of Figure 3). Verified against RFC 4231/5869 test
 * vectors.
 */

#ifndef MONATT_CRYPTO_HMAC_H
#define MONATT_CRYPTO_HMAC_H

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace monatt::crypto
{

/**
 * HMAC-SHA-256 keyed once: the ipad and opad blocks are absorbed at
 * construction, so each MAC costs only the message blocks plus two
 * finishing compressions.
 *
 * Streaming use: copy innerContext(), feed it the message, then pass
 * it to finish().
 */
class HmacSha256
{
  public:
    explicit HmacSha256(const Bytes &key);

    /** The inner hash with the ipad block already absorbed. */
    const Sha256 &innerContext() const { return inner; }

    /** Complete a MAC whose message `ctx` (a copy of innerContext())
     * has absorbed; `ctx` is reset. */
    void finish(Sha256 &ctx, std::uint8_t out[kSha256DigestSize]) const;

    /** MAC of `data`. */
    Bytes mac(const Bytes &data) const;

  private:
    Sha256 inner;
    Sha256 outer;
};

/** One-shot HMAC-SHA-256: HmacSha256(key).mac(data). */
Bytes hmacSha256(const Bytes &key, const Bytes &data);

/** HKDF-Extract: PRK = HMAC(salt, ikm). */
Bytes hkdfExtract(const Bytes &salt, const Bytes &ikm);

/** HKDF-Expand: derive `length` bytes from PRK with context `info`. */
Bytes hkdfExpand(const Bytes &prk, const Bytes &info, std::size_t length);

/** One-shot HKDF (extract + expand). */
Bytes hkdf(const Bytes &salt, const Bytes &ikm, const Bytes &info,
           std::size_t length);

} // namespace monatt::crypto

#endif // MONATT_CRYPTO_HMAC_H
