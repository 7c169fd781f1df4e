#include "common/codec.h"

namespace monatt
{

void
ByteWriter::putU8(std::uint8_t v)
{
    buf.push_back(v);
}

void
ByteWriter::putU32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ByteWriter::putU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ByteWriter::putBytes(const Bytes &v)
{
    putU32(static_cast<std::uint32_t>(v.size()));
    buf.insert(buf.end(), v.begin(), v.end());
}

void
ByteWriter::putString(const std::string &v)
{
    putU32(static_cast<std::uint32_t>(v.size()));
    buf.insert(buf.end(), v.begin(), v.end());
}

Result<std::uint32_t>
ByteReader::getU32()
{
    if (remaining() < 4)
        return Result<std::uint32_t>::error("truncated u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(buf[pos + i]) << (8 * i);
    pos += 4;
    return Result<std::uint32_t>::ok(v);
}

Result<std::uint64_t>
ByteReader::getU64()
{
    if (remaining() < 8)
        return Result<std::uint64_t>::error("truncated u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf[pos + i]) << (8 * i);
    pos += 8;
    return Result<std::uint64_t>::ok(v);
}

Result<Bytes>
ByteReader::getBytes()
{
    auto len = getU32();
    if (!len)
        return Result<Bytes>::error("truncated length prefix");
    if (remaining() < len.value())
        return Result<Bytes>::error("truncated byte field");
    Bytes out(buf.begin() + pos, buf.begin() + pos + len.value());
    pos += len.value();
    return Result<Bytes>::ok(std::move(out));
}

Result<std::string>
ByteReader::getString()
{
    auto r = getBytes();
    if (!r)
        return Result<std::string>::error(r.errorMessage());
    const Bytes &b = r.value();
    return Result<std::string>::ok(std::string(b.begin(), b.end()));
}

} // namespace monatt
