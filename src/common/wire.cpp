#include "common/wire.h"

namespace monatt::wire
{

void
appendVarint(Bytes &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t
varintSize(std::uint64_t v)
{
    std::size_t n = 1;
    while (v >= 0x80) {
        ++n;
        v >>= 7;
    }
    return n;
}

void
WireWriter::tag(std::uint32_t field, WireType type)
{
    appendVarint(buf, (static_cast<std::uint64_t>(field) << 3) |
                          static_cast<std::uint64_t>(type));
}

void
WireWriter::putVarint(std::uint32_t field, std::uint64_t v)
{
    tag(field, WireType::Varint);
    appendVarint(buf, v);
}

void
WireWriter::putLen(std::uint32_t field, const Bytes &v)
{
    tag(field, WireType::Len);
    appendVarint(buf, v.size());
    buf.insert(buf.end(), v.begin(), v.end());
}

void
WireWriter::putString(std::uint32_t field, const std::string &v)
{
    tag(field, WireType::Len);
    appendVarint(buf, v.size());
    buf.insert(buf.end(), v.begin(), v.end());
}

Result<std::uint64_t>
WireReader::nextVarint()
{
    using R = Result<std::uint64_t>;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
        if (pos >= buf.size())
            return R::error("truncated varint");
        const std::uint8_t byte = buf[pos++];
        // Byte 10 may only contribute the final bit of a u64.
        if (i == kMaxVarintBytes - 1 && (byte & 0xFE) != 0)
            return R::error("varint overflows 64 bits");
        v |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
        if ((byte & 0x80) == 0)
            return R::ok(v);
    }
    return R::error("varint longer than 10 bytes");
}

Result<WireField>
WireReader::next()
{
    using R = Result<WireField>;
    auto tag = nextVarint();
    if (!tag)
        return R::error("bad tag: " + tag.errorMessage());
    const std::uint64_t raw = tag.value();
    const std::uint64_t number = raw >> 3;
    const std::uint64_t type = raw & 0x7;
    if (number == 0)
        return R::error("field number 0");
    if (number > 0xFFFFFFFFu)
        return R::error("field number overflows u32");

    WireField f;
    f.number = static_cast<std::uint32_t>(number);
    switch (type) {
      case 0: {
        auto v = nextVarint();
        if (!v)
            return R::error("field " + std::to_string(f.number) + ": " +
                            v.errorMessage());
        f.type = WireType::Varint;
        f.varint = v.value();
        return R::ok(std::move(f));
      }
      case 1: {
        if (remaining() < 8)
            return R::error("field " + std::to_string(f.number) +
                            ": truncated i64");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(buf[pos + i]) << (8 * i);
        pos += 8;
        f.type = WireType::I64;
        f.varint = v;
        return R::ok(std::move(f));
      }
      case 2: {
        auto len = nextVarint();
        if (!len)
            return R::error("field " + std::to_string(f.number) + ": " +
                            len.errorMessage());
        // Check before allocating: an over-long length prefix must be
        // a clean error, never an attempted huge allocation.
        if (len.value() > remaining())
            return R::error("field " + std::to_string(f.number) +
                            ": length prefix past end of buffer");
        const std::size_t n = static_cast<std::size_t>(len.value());
        f.type = WireType::Len;
        f.bytes.assign(buf.begin() + pos, buf.begin() + pos + n);
        pos += n;
        return R::ok(std::move(f));
      }
      default:
        return R::error("field " + std::to_string(f.number) +
                        ": unsupported wire type " + std::to_string(type));
    }
}

} // namespace monatt::wire
