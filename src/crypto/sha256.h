/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch.
 *
 * SHA-256 is the single hash used throughout CloudMonatt: PCR extend
 * operations in the TPM emulator, the quote values Q1/Q2/Q3 of the
 * Figure-3 protocol (Q = H(Vid || rM || M || N)), measurement digests
 * in the Integrity Measurement Unit, and as the compression function
 * inside HMAC and HMAC-DRBG. Verified against the FIPS test vectors
 * in tests/crypto/sha256_test.cpp.
 */

#ifndef MONATT_CRYPTO_SHA256_H
#define MONATT_CRYPTO_SHA256_H

#include <cstdint>
#include <initializer_list>

#include "common/bytes.h"

namespace monatt::crypto
{

/** Digest size in bytes. */
constexpr std::size_t kSha256DigestSize = 32;

/** Incremental SHA-256 context. */
class Sha256
{
  public:
    Sha256();

    /** Absorb more input. */
    void update(const Bytes &data);

    /** Absorb raw memory. */
    void update(const std::uint8_t *data, std::size_t len);

    /** Finalize into `out`; the context becomes reset. */
    void finish(std::uint8_t out[kSha256DigestSize]);

    /** Finalize and return the 32-byte digest; context becomes reset. */
    Bytes digest();

    /** One-shot convenience. */
    static Bytes hash(const Bytes &data);

    /** Hash the concatenation of several buffers. */
    static Bytes hashConcat(std::initializer_list<const Bytes *> parts);

  private:
    void processBlock(const std::uint8_t *block);
    void reset();

    std::uint32_t state[8];
    std::uint64_t totalBits;
    std::uint8_t buffer[64];
    std::size_t bufferLen;
};

} // namespace monatt::crypto

#endif // MONATT_CRYPTO_SHA256_H
