/**
 * @file
 * Canonical fixed-width binary codec for what is not a message or a
 * journal record.
 *
 * The quote hash preimages (Q1/Q2/Q3) and signed portions are
 * concatenated here behind a domain label, and certificates, keys,
 * envelopes and channel records are serialized here, so the exact
 * bytes that get hashed, signed and MAC'd are well defined and never
 * drift. Integers are little-endian fixed width; variable-length
 * fields carry a u32 length prefix. ByteReader is strict: any
 * truncated or over-long input is a decode error.
 *
 * Protocol messages, journal records and snapshots use the declared
 * tagged codec instead (proto/wire_schema.h, DESIGN.md §17).
 */

#ifndef MONATT_COMMON_CODEC_H
#define MONATT_COMMON_CODEC_H

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/result.h"

namespace monatt
{

/** Append-only binary encoder. */
class ByteWriter
{
  public:
    /**
     * Pre-size the output buffer when the encoded size is known (or
     * cheaply bounded) up front, avoiding growth reallocations on the
     * hot send path. Purely an optimization; never shrinks.
     */
    void reserve(std::size_t bytes) { buf.reserve(bytes); }

    /** Append a single byte. */
    void putU8(std::uint8_t v);

    /** Append a 32-bit little-endian integer. */
    void putU32(std::uint32_t v);

    /** Append a 64-bit little-endian integer. */
    void putU64(std::uint64_t v);

    /** Append a length-prefixed byte buffer. */
    void putBytes(const Bytes &v);

    /** Append a length-prefixed UTF-8/ASCII string. */
    void putString(const std::string &v);

    /**
     * Finished buffer, borrowed: a reference into the writer, valid
     * until the next append or take(). Callers needing an owned copy
     * must copy explicitly (or use take() to move the buffer out).
     */
    const Bytes &data() const { return buf; }

    /** Move the finished buffer out. */
    Bytes take() { return std::move(buf); }

  private:
    Bytes buf;
};

/** Strict sequential binary decoder. */
class ByteReader
{
  public:
    /** Wrap a buffer; the reader does not own the memory. */
    explicit ByteReader(const Bytes &data) : buf(data) {}

    Result<std::uint32_t> getU32();
    Result<std::uint64_t> getU64();

    /** Read a length-prefixed byte buffer. */
    Result<Bytes> getBytes();

    /** Read a length-prefixed string. */
    Result<std::string> getString();

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf.size() - pos; }

    /** True when the whole buffer has been consumed. */
    bool atEnd() const { return pos == buf.size(); }

  private:
    const Bytes &buf;
    std::size_t pos = 0;
};

} // namespace monatt

#endif // MONATT_COMMON_CODEC_H
