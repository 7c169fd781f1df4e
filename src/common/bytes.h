/**
 * @file
 * Byte-buffer primitives shared by every CloudMonatt module.
 *
 * All wire formats, hash inputs and key material in the library are
 * carried as `monatt::Bytes`. The helpers here are deliberately small:
 * hex round-tripping for debugging/fixtures, appending for building
 * hash preimages, and a constant-time comparison for authenticator
 * checks (MACs, quotes) where a short-circuiting memcmp would leak the
 * match length through timing.
 */

#ifndef MONATT_COMMON_BYTES_H
#define MONATT_COMMON_BYTES_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace monatt
{

/** Raw byte buffer used for all key material, messages and digests. */
using Bytes = std::vector<std::uint8_t>;

/** Encode a buffer as a lowercase hex string. */
std::string toHex(const Bytes &data);

/**
 * Decode a hex string (upper or lower case) into bytes.
 *
 * @param hex Hex string; must have even length and only hex digits.
 * @return Decoded bytes.
 * @throws std::invalid_argument on malformed input.
 */
Bytes fromHex(std::string_view hex);

/** Convert an ASCII string into a byte buffer (no terminator). */
Bytes toBytes(std::string_view text);

/** Convert a byte buffer holding ASCII text back into a string. */
std::string toString(const Bytes &data);

/** Append `src` to `dst` in place. */
void append(Bytes &dst, const Bytes &src);

/**
 * Constant-time equality check.
 *
 * Runs in time dependent only on the buffer lengths, never on the
 * position of the first mismatching byte.
 */
bool constantTimeEqual(const Bytes &a, const Bytes &b);

/** Constant-time equality of two `n`-byte regions. */
bool constantTimeEqual(const std::uint8_t *a, const std::uint8_t *b,
                       std::size_t n);

} // namespace monatt

#endif // MONATT_COMMON_BYTES_H
