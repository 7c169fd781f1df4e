/**
 * @file
 * HMAC-DRBG (NIST SP 800-90A) deterministic random bit generator.
 *
 * The Trust Module of Figure 2 contains an RNG block used to generate
 * nonces and per-session attestation keys. We model it as an
 * HMAC-SHA-256 DRBG: cryptographically strong expansion from a seed,
 * deterministic under a fixed seed so simulations stay reproducible.
 */

#ifndef MONATT_CRYPTO_DRBG_H
#define MONATT_CRYPTO_DRBG_H

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"

namespace monatt::crypto
{

/** HMAC-SHA-256 based DRBG. */
class HmacDrbg
{
  public:
    /** Instantiate from seed material (entropy || nonce || personal). */
    explicit HmacDrbg(const Bytes &seedMaterial);

    /** Generate `n` pseudo-random bytes. */
    Bytes generate(std::size_t n);

    /** Adapter: expose the DRBG through the common Rng interface by
     * producing a freshly seeded deterministic Rng. */
    Rng forkRng();

  private:
    void update(const Bytes &providedData);

    Bytes key;
    Bytes value;
};

/**
 * Per-node seed material: `label` ":" `id`, then the 8 little-endian
 * bytes of `seed`. Every simulated node derives its identity key and
 * its channel entropy this way, so a node's secrets are a pure
 * function of (label, node id, seed).
 */
Bytes seedMaterial(const std::string &label, const std::string &id,
                   std::uint64_t seed);

} // namespace monatt::crypto

#endif // MONATT_CRYPTO_DRBG_H
