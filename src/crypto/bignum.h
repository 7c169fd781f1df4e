/**
 * @file
 * Arbitrary-precision unsigned integers for RSA.
 *
 * A small big-integer implementation (little-endian 32-bit limbs,
 * schoolbook multiplication, Knuth Algorithm-D division) sized for the
 * 256-2048 bit moduli used by CloudMonatt's identity and attestation
 * keys; modular exponentiation under an odd modulus runs in a
 * MontgomeryContext on 64-bit limbs. Not constant time — the simulated
 * adversary is the Dolev-Yao network attacker of §3.3, not a local
 * timing attacker on the Trust Module, which the paper assumes is
 * protected hardware.
 */

#ifndef MONATT_CRYPTO_BIGNUM_H
#define MONATT_CRYPTO_BIGNUM_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace monatt::crypto
{

class MontgomeryContext;

/** Arbitrary-precision unsigned integer. */
class BigUint
{
  public:
    /** Zero. */
    BigUint() = default;

    /** From a 64-bit value. */
    static BigUint fromU64(std::uint64_t v);

    /** From big-endian bytes (leading zeros allowed). */
    static BigUint fromBytes(const Bytes &be);

    /** From a hex string (for test fixtures). */
    static BigUint fromHexString(const std::string &hex);

    /**
     * To big-endian bytes.
     * @param width Pad with leading zeros to this width; 0 = minimal.
     * @throws std::invalid_argument if the value needs more bytes.
     */
    Bytes toBytes(std::size_t width = 0) const;

    /** Lowercase hex (minimal, "0" for zero). */
    std::string toHexString() const;

    /** Uniform random value with exactly `bits` bits (MSB set). */
    static BigUint randomWithBits(std::size_t bits, Rng &rng);

    /** Uniform random value in [2, bound-1]. */
    static BigUint randomBelow(const BigUint &bound, Rng &rng);

    bool isZero() const { return limb.empty(); }
    bool isOdd() const { return !limb.empty() && (limb[0] & 1); }

    /** Number of significant bits (0 for zero). */
    std::size_t bitLength() const;

    /** Value of bit i (0 = LSB). */
    bool bit(std::size_t i) const;

    /** Three-way comparison: -1, 0, +1. */
    static int compare(const BigUint &a, const BigUint &b);

    bool operator==(const BigUint &o) const { return compare(*this, o) == 0; }
    bool operator!=(const BigUint &o) const { return compare(*this, o) != 0; }
    bool operator<(const BigUint &o) const { return compare(*this, o) < 0; }
    bool operator<=(const BigUint &o) const { return compare(*this, o) <= 0; }
    bool operator>(const BigUint &o) const { return compare(*this, o) > 0; }
    bool operator>=(const BigUint &o) const { return compare(*this, o) >= 0; }

    BigUint operator+(const BigUint &o) const;

    /** Subtraction; @throws std::underflow_error when o > *this. */
    BigUint operator-(const BigUint &o) const;

    BigUint operator*(const BigUint &o) const;

    /** Quotient and remainder; @throws std::domain_error on /0. */
    static std::pair<BigUint, BigUint> divmod(const BigUint &num,
                                              const BigUint &den);

    BigUint operator%(const BigUint &o) const;

    /** Left shift by `bits`. */
    BigUint shiftLeft(std::size_t bits) const;

    /** Right shift by `bits`. */
    BigUint shiftRight(std::size_t bits) const;

    /**
     * (this ^ exp) mod m.
     *
     * Odd moduli route through a Montgomery-multiplication fixed-window
     * ladder (a one-shot MontgomeryContext); even moduli fall back to
     * the division-based square-and-multiply ladder. Callers that
     * exponentiate repeatedly under one modulus should build a
     * MontgomeryContext once and use the context overload.
     */
    BigUint modExp(const BigUint &exp, const BigUint &m) const;

    /** (this ^ exp) mod ctx.modulus(), reusing precomputed constants. */
    BigUint modExp(const BigUint &exp, const MontgomeryContext &ctx) const;

    /**
     * The division-based square-and-multiply ladder: modExp's
     * even-modulus path, and the reference implementation for
     * differential tests and benchmarks; new code should call modExp.
     */
    BigUint modExpLegacy(const BigUint &exp, const BigUint &m) const;

    /** Greatest common divisor. */
    static BigUint gcd(BigUint a, BigUint b);

    /**
     * Modular inverse of *this mod m.
     * @throws std::domain_error when no inverse exists.
     */
    BigUint modInverse(const BigUint &m) const;

    /**
     * Probabilistic primality test: trial division by the odd primes
     * up to 463, then `rounds` Miller-Rabin rounds with randomBelow
     * witnesses, all under one MontgomeryContext.
     */
    bool isProbablePrime(Rng &rng, int rounds = kMillerRabinRounds) const;

    /**
     * Generate a random probable prime with exactly `bits` bits, the
     * top two of them set, so the product of two such primes has
     * exactly 2 * bits bits.
     *
     * The search starts at one random odd value and steps by 2.
     * Candidates that one of the odd primes below 2^14 divides are
     * struck out of a bitmap, window by window; the rest face
     * isProbablePrime in ascending order (Miller-Rabin alone once every
     * sieve prime lies below the start, as trial division can then
     * decide nothing), and a search that runs past `bits` bits draws a
     * new start.
     *
     * @throws std::invalid_argument when bits < 8.
     */
    static BigUint generatePrime(std::size_t bits, Rng &rng);

  private:
    friend class MontgomeryContext;

    static constexpr int kMillerRabinRounds = 24;

    void trim();

    /**
     * isProbablePrime after its trial division: `rounds` Miller-Rabin
     * rounds on this odd value above 3.
     */
    bool millerRabin(Rng &rng, int rounds) const;

    /** *this mod p for an odd p in [3, 2^16), limb by limb. */
    std::uint32_t modSmall(std::uint32_t p) const;

    /** Little-endian 32-bit limbs; empty == zero. */
    std::vector<std::uint32_t> limb;
};

/**
 * Precomputed constants for Montgomery modular arithmetic under one
 * fixed odd modulus n, held in k little-endian 64-bit limbs: the word
 * inverse n' = -n^-1 mod 2^64, R mod n and R^2 mod n for R = 2^(64k).
 * Exponentiation runs a fixed-window ladder over CIOS Montgomery
 * products with `unsigned __int128` partial products, replacing the
 * per-step Knuth division of the legacy ladder with word-level
 * reductions. The ladder and the product are instantiated at 4 and 8
 * limbs, the CRT halves, Miller-Rabin candidates and public moduli of
 * 512-bit keys, where the loops unroll and the temporary lives in
 * registers; every other width runs the same code with k read at run
 * time. BigUint's 32-bit limbs are packed into 64-bit limbs on the way
 * in and unpacked on the way out.
 *
 * RSA moduli, primes and CRT factors are always odd, so every protocol
 * exponentiation qualifies. Construction costs one division (for
 * R^2 mod n); the per-key context caches in the Trust Module, the
 * secure channels and the Attestation Server exist to pay it once per
 * key instead of once per operation, and isProbablePrime pays it once
 * per candidate for all its rounds.
 */
class MontgomeryContext
{
  public:
    /** @throws std::domain_error when `modulus` is even or zero. */
    explicit MontgomeryContext(const BigUint &modulus);

    const BigUint &modulus() const { return m; }

    /** (base ^ exp) mod modulus(). */
    BigUint modExp(const BigUint &base, const BigUint &exp) const;

  private:
    using Limb = std::uint64_t;

    /*
     * Both run at K limbs when K > 0, with the CIOS temporary a local
     * array, and at k = n.size() limbs when K = 0, with it in
     * `scratch`.
     */

    /** The exponentiation ladder behind modExp. */
    template <std::size_t K>
    BigUint ladder(const BigUint &base, const BigUint &exp) const;

    /**
     * out = a * b * R^-1 mod n (CIOS) over k-limb operands, all below
     * n. `scratch` is k + 2 limbs; `out` may alias `a` or `b`.
     */
    template <std::size_t K>
    void montMul(const Limb *a, const Limb *b, Limb *out,
                 Limb *scratch) const;

    /** value (below n) into k zero-padded 64-bit limbs. */
    void pack(const BigUint &value, Limb *out) const;
    BigUint unpack(const Limb *value) const;

    BigUint m;
    std::vector<Limb> n;      //!< Modulus limbs (size k).
    std::vector<Limb> rModN;  //!< R mod n (1 in Montgomery form).
    std::vector<Limb> rrModN; //!< R^2 mod n.
    Limb nPrime = 0;          //!< -n^-1 mod 2^64.
};

} // namespace monatt::crypto

#endif // MONATT_CRYPTO_BIGNUM_H
