#include "common/bytes.h"

#include <stdexcept>

namespace monatt
{

namespace
{

const char *kHexDigits = "0123456789abcdef";

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    throw std::invalid_argument("fromHex: non-hex character");
}

} // namespace

std::string
toHex(const Bytes &data)
{
    std::string out;
    out.reserve(data.size() * 2);
    for (std::uint8_t byte : data) {
        out.push_back(kHexDigits[byte >> 4]);
        out.push_back(kHexDigits[byte & 0x0f]);
    }
    return out;
}

Bytes
fromHex(std::string_view hex)
{
    if (hex.size() % 2 != 0)
        throw std::invalid_argument("fromHex: odd-length input");
    Bytes out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        int hi = hexNibble(hex[i]);
        int lo = hexNibble(hex[i + 1]);
        out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
    }
    return out;
}

Bytes
toBytes(std::string_view text)
{
    return Bytes(text.begin(), text.end());
}

std::string
toString(const Bytes &data)
{
    return std::string(data.begin(), data.end());
}

void
append(Bytes &dst, const Bytes &src)
{
    dst.insert(dst.end(), src.begin(), src.end());
}

bool
constantTimeEqual(const Bytes &a, const Bytes &b)
{
    return a.size() == b.size() &&
           constantTimeEqual(a.data(), b.data(), a.size());
}

bool
constantTimeEqual(const std::uint8_t *a, const std::uint8_t *b,
                  std::size_t n)
{
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < n; ++i)
        acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    return acc == 0;
}

} // namespace monatt
