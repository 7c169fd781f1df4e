/**
 * @file
 * Tag/wire-type primitive codec (the protobuf wire discipline).
 *
 * One level below the declared codec in proto/wire_schema.h: this
 * file knows nothing about CloudMonatt messages, only about the three
 * wire types and how tagged fields are framed:
 *
 *   tag   = varint((field_number << 3) | wire_type)
 *   VARINT: base-128 little-endian varint payload (zigzag for signed)
 *   I64:    8 fixed bytes, little-endian (doubles, fixed64)
 *   LEN:    varint length prefix + that many raw bytes (strings,
 *           byte buffers, nested messages, packed lists)
 *
 * The reader is built for schema evolution: WireReader::next() yields
 * every field in order, fully decoded or skipped, so a decoder that
 * does not recognize a field number simply ignores it (unknown-field
 * skip) and a decoder that never sees a field keeps its default
 * (missing-field default). Skipping is iterative — a LEN field is
 * skipped by advancing past its payload without recursing — so deeply
 * nested hostile input cannot exhaust the stack. All failures are
 * clean decode errors (attack indicators), never UB: varints are
 * capped at 10 bytes, LEN prefixes are checked against the remaining
 * buffer before any allocation, and field number 0 is rejected.
 */

#ifndef MONATT_COMMON_WIRE_H
#define MONATT_COMMON_WIRE_H

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/result.h"

namespace monatt::wire
{

/** The three wire types (tag low 3 bits). */
enum class WireType : std::uint8_t
{
    Varint = 0, //!< Base-128 varint (bools, enums, zigzag signed).
    I64 = 1,    //!< 8 bytes little-endian (doubles, fixed64).
    Len = 2,    //!< Length-prefixed bytes (strings, nested messages).
};

/** Largest encoded varint (10 bytes covers any u64). */
inline constexpr std::size_t kMaxVarintBytes = 10;

/** Zigzag-map a signed value so small magnitudes encode small. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Append a bare varint (no tag) to a buffer. */
void appendVarint(Bytes &out, std::uint64_t v);

/** Encoded size of a bare varint. */
std::size_t varintSize(std::uint64_t v);

/** Append-only tagged-field encoder. */
class WireWriter
{
  public:
    /** Pre-size the output buffer (optimization only; never shrinks). */
    void reserve(std::size_t bytes) { buf.reserve(bytes); }

    /** Append tag (field, type); payload follows via the put* calls. */
    void tag(std::uint32_t field, WireType type);

    /** field:VARINT = v. */
    void putVarint(std::uint32_t field, std::uint64_t v);

    /** field:LEN = length-prefixed bytes (also nested messages). */
    void putLen(std::uint32_t field, const Bytes &v);

    /** field:LEN = length-prefixed UTF-8/ASCII string. */
    void putString(std::uint32_t field, const std::string &v);

    /** Finished buffer (borrowed; valid until the next mutation). */
    const Bytes &data() const { return buf; }

    /** Move the finished buffer out. */
    Bytes take() { return std::move(buf); }

  private:
    Bytes buf;
};

/** One decoded field as surfaced by WireReader::next(). */
struct WireField
{
    std::uint32_t number = 0; //!< Field number (never 0).
    WireType type = WireType::Varint;
    std::uint64_t varint = 0; //!< VARINT payload or I64 bits.
    Bytes bytes;              //!< LEN payload (copied out).

    /** Signed view of a VARINT payload (zigzag). */
    std::int64_t asSigned() const { return zigzagDecode(varint); }

    /** Bool view of a VARINT payload. */
    bool asBool() const { return varint != 0; }

    /** String view of a LEN payload. */
    std::string asString() const
    {
        return std::string(bytes.begin(), bytes.end());
    }
};

/**
 * Sequential tagged-field decoder. Iterate with next() until atEnd();
 * any error is terminal for the buffer. The reader decodes every
 * field it encounters regardless of whether the caller recognizes the
 * number — unknown-field skip is the caller ignoring the WireField.
 */
class WireReader
{
  public:
    /** Wrap a buffer from `offset` (<= data.size()) on; the reader
     * does not own the memory. */
    explicit WireReader(const Bytes &data, std::size_t offset = 0)
        : buf(data), pos(offset)
    {
    }

    /** Decode the next field; error on any malformed byte. */
    Result<WireField> next();

    /** Bare varint at the cursor (for packed list payloads). */
    Result<std::uint64_t> nextVarint();

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf.size() - pos; }

    /** True when the whole buffer has been consumed. */
    bool atEnd() const { return pos == buf.size(); }

  private:
    const Bytes &buf;
    std::size_t pos = 0;
};

} // namespace monatt::wire

#endif // MONATT_COMMON_WIRE_H
