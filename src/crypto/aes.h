/**
 * @file
 * AES-128 (FIPS 197) block cipher and CTR mode, from scratch.
 *
 * AES-128-CTR is the record encryption on the SSL-like channels of
 * §3.4.1: after the handshake, each direction of a channel encrypts
 * message payloads under its session key (the Kx/Ky/Kz of Figure 3)
 * with a per-record counter block, then authenticates the ciphertext
 * with HMAC (encrypt-then-MAC). Verified against FIPS 197 / NIST
 * SP 800-38A test vectors.
 */

#ifndef MONATT_CRYPTO_AES_H
#define MONATT_CRYPTO_AES_H

#include <cstdint>

#include "common/bytes.h"

namespace monatt::crypto
{

/** AES block size in bytes. */
constexpr std::size_t kAesBlockSize = 16;

/** AES-128 key size in bytes. */
constexpr std::size_t kAes128KeySize = 16;

/**
 * AES-128 with a precomputed key schedule.
 *
 * Rounds run as 32-bit T-table lookups (SubBytes, ShiftRows and
 * MixColumns folded into four 1 KiB tables). Table indices depend on
 * key and data, so the cipher is not constant time; host cache timing
 * is outside the threat model (DESIGN §6).
 */
class Aes128
{
  public:
    /** Expand a 16-byte key. @throws std::invalid_argument on size. */
    explicit Aes128(const Bytes &key);

    /** Encrypt one 16-byte block in place. */
    void encryptBlock(std::uint8_t block[kAesBlockSize]) const;

    /**
     * CTR-mode keystream transform (encrypt == decrypt) into caller
     * memory. The counter block is nonce (12 bytes) || 32-bit
     * big-endian block counter starting at 0. `in` may equal `out`.
     */
    void ctr(const std::uint8_t nonce[12], const std::uint8_t *in,
             std::uint8_t *out, std::size_t n) const;

    /**
     * ctr() into a fresh buffer.
     * @throws std::invalid_argument unless the nonce is 12 bytes.
     */
    Bytes ctrTransform(const Bytes &nonce, const Bytes &data) const;

  private:
    void encrypt(const std::uint8_t in[kAesBlockSize],
                 std::uint8_t out[kAesBlockSize]) const;

    std::uint32_t roundKeys[44]; // 11 round keys x 4 big-endian words.
};

} // namespace monatt::crypto

#endif // MONATT_CRYPTO_AES_H
