#include "crypto/bignum.h"

#include <algorithm>
#include <array>
#include <bitset>
#include <stdexcept>

namespace monatt::crypto
{

namespace
{

using Wide = unsigned __int128;

/** The odd primes below 2^14 (1899 of them), by a sieve of
 * Eratosthenes: generatePrime's sieve. */
const std::vector<std::uint32_t> &
smallOddPrimes()
{
    static const std::vector<std::uint32_t> primes = [] {
        constexpr std::uint32_t kLimit = 1u << 14;
        std::vector<bool> composite(kLimit, false);
        std::vector<std::uint32_t> out;
        for (std::uint32_t i = 3; i < kLimit; i += 2) {
            if (composite[i])
                continue;
            out.push_back(i);
            for (std::uint32_t j = i * i; j < kLimit; j += 2 * i)
                composite[j] = true;
        }
        return out;
    }();
    return primes;
}

/** isProbablePrime trial-divides by the first kTrialPrimes entries of
 * smallOddPrimes(), the odd primes up to 463. */
constexpr std::size_t kTrialPrimes = 88;

/** generatePrime sieves this many consecutive candidates at a time; a
 * 256-bit search runs past the first window from about 0.3% of starts. */
constexpr std::size_t kSieveWindow = 512;

} // namespace

void
BigUint::trim()
{
    while (!limb.empty() && limb.back() == 0)
        limb.pop_back();
}

std::uint32_t
BigUint::modSmall(std::uint32_t p) const
{
    // Direct remainder (Lemire, Kaser and Kurz, 2019): with
    // c = ceil(2^64 / p), x mod p is the high word of (c * x mod 2^64) * p
    // for every x below 2^48, and each step's x is below p * 2^32.
    const std::uint64_t c = ~std::uint64_t{0} / p + 1;
    std::uint64_t rem = 0;
    for (std::size_t i = limb.size(); i-- > 0;) {
        const std::uint64_t x = (rem << 32) | limb[i];
        rem = static_cast<std::uint64_t>(static_cast<Wide>(c * x) * p >> 64);
    }
    return static_cast<std::uint32_t>(rem);
}

BigUint
BigUint::fromU64(std::uint64_t v)
{
    BigUint out;
    if (v & 0xffffffffULL)
        out.limb.push_back(static_cast<std::uint32_t>(v));
    else if (v >> 32)
        out.limb.push_back(0);
    if (v >> 32)
        out.limb.push_back(static_cast<std::uint32_t>(v >> 32));
    out.trim();
    return out;
}

BigUint
BigUint::fromBytes(const Bytes &be)
{
    BigUint out;
    out.limb.assign((be.size() + 3) / 4, 0);
    for (std::size_t i = 0; i < be.size(); ++i) {
        // Byte i counted from the end is bits [8*i, 8*i+8).
        const std::size_t fromEnd = be.size() - 1 - i;
        out.limb[fromEnd / 4] |=
            static_cast<std::uint32_t>(be[i]) << (8 * (fromEnd % 4));
    }
    out.trim();
    return out;
}

BigUint
BigUint::fromHexString(const std::string &hex)
{
    std::string padded = hex;
    if (padded.size() % 2 == 1)
        padded.insert(padded.begin(), '0');
    return fromBytes(fromHex(padded));
}

Bytes
BigUint::toBytes(std::size_t width) const
{
    const std::size_t minBytes = (bitLength() + 7) / 8;
    const std::size_t outSize = width == 0 ? std::max<std::size_t>(minBytes, 1)
                                           : width;
    if (width != 0 && minBytes > width)
        throw std::invalid_argument("BigUint::toBytes: width too small");

    Bytes out(outSize, 0);
    for (std::size_t i = 0; i < minBytes; ++i) {
        const std::uint32_t word = limb[i / 4];
        out[outSize - 1 - i] =
            static_cast<std::uint8_t>(word >> (8 * (i % 4)));
    }
    return out;
}

std::string
BigUint::toHexString() const
{
    if (isZero())
        return "0";
    std::string s = toHex(toBytes());
    const std::size_t firstNonZero = s.find_first_not_of('0');
    return s.substr(firstNonZero);
}

BigUint
BigUint::randomWithBits(std::size_t bits, Rng &rng)
{
    if (bits == 0)
        return BigUint();
    BigUint out;
    out.limb.assign((bits + 31) / 32, 0);
    for (auto &word : out.limb)
        word = static_cast<std::uint32_t>(rng.next());
    // Clear bits above the requested width, then force the MSB.
    const std::size_t topBit = (bits - 1) % 32;
    std::uint32_t &top = out.limb.back();
    if (topBit != 31)
        top &= (1u << (topBit + 1)) - 1;
    top |= 1u << topBit;
    out.trim();
    return out;
}

BigUint
BigUint::randomBelow(const BigUint &bound, Rng &rng)
{
    const BigUint two = fromU64(2);
    if (bound <= two)
        throw std::invalid_argument("randomBelow: bound too small");
    const std::size_t bits = bound.bitLength();
    for (;;) {
        BigUint candidate;
        candidate.limb.assign((bits + 31) / 32, 0);
        for (auto &word : candidate.limb)
            word = static_cast<std::uint32_t>(rng.next());
        const std::size_t topBit = (bits - 1) % 32;
        if (topBit != 31)
            candidate.limb.back() &= (1u << (topBit + 1)) - 1;
        candidate.trim();
        if (candidate >= two && candidate < bound)
            return candidate;
    }
}

std::size_t
BigUint::bitLength() const
{
    if (limb.empty())
        return 0;
    std::size_t bits = (limb.size() - 1) * 32;
    std::uint32_t top = limb.back();
    while (top) {
        ++bits;
        top >>= 1;
    }
    return bits;
}

bool
BigUint::bit(std::size_t i) const
{
    const std::size_t word = i / 32;
    if (word >= limb.size())
        return false;
    return (limb[word] >> (i % 32)) & 1;
}

int
BigUint::compare(const BigUint &a, const BigUint &b)
{
    if (a.limb.size() != b.limb.size())
        return a.limb.size() < b.limb.size() ? -1 : 1;
    for (std::size_t i = a.limb.size(); i-- > 0;) {
        if (a.limb[i] != b.limb[i])
            return a.limb[i] < b.limb[i] ? -1 : 1;
    }
    return 0;
}

BigUint
BigUint::operator+(const BigUint &o) const
{
    BigUint out;
    const std::size_t n = std::max(limb.size(), o.limb.size());
    out.limb.assign(n + 1, 0);
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t sum = carry;
        if (i < limb.size())
            sum += limb[i];
        if (i < o.limb.size())
            sum += o.limb[i];
        out.limb[i] = static_cast<std::uint32_t>(sum);
        carry = sum >> 32;
    }
    out.limb[n] = static_cast<std::uint32_t>(carry);
    out.trim();
    return out;
}

BigUint
BigUint::operator-(const BigUint &o) const
{
    if (*this < o)
        throw std::underflow_error("BigUint subtraction underflow");
    BigUint out;
    out.limb.assign(limb.size(), 0);
    std::int64_t borrow = 0;
    for (std::size_t i = 0; i < limb.size(); ++i) {
        std::int64_t diff = static_cast<std::int64_t>(limb[i]) - borrow;
        if (i < o.limb.size())
            diff -= o.limb[i];
        if (diff < 0) {
            diff += 1LL << 32;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out.limb[i] = static_cast<std::uint32_t>(diff);
    }
    out.trim();
    return out;
}

BigUint
BigUint::operator*(const BigUint &o) const
{
    if (isZero() || o.isZero())
        return BigUint();
    BigUint out;
    out.limb.assign(limb.size() + o.limb.size(), 0);
    for (std::size_t i = 0; i < limb.size(); ++i) {
        std::uint64_t carry = 0;
        const std::uint64_t a = limb[i];
        for (std::size_t j = 0; j < o.limb.size(); ++j) {
            std::uint64_t cur = out.limb[i + j] + a * o.limb[j] + carry;
            out.limb[i + j] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
        }
        std::size_t k = i + o.limb.size();
        while (carry) {
            std::uint64_t cur = out.limb[k] + carry;
            out.limb[k] = static_cast<std::uint32_t>(cur);
            carry = cur >> 32;
            ++k;
        }
    }
    out.trim();
    return out;
}

std::pair<BigUint, BigUint>
BigUint::divmod(const BigUint &num, const BigUint &den)
{
    if (den.isZero())
        throw std::domain_error("BigUint division by zero");
    if (num < den)
        return {BigUint(), num};
    if (den.limb.size() == 1) {
        // Fast single-limb path.
        const std::uint64_t d = den.limb[0];
        BigUint q;
        q.limb.assign(num.limb.size(), 0);
        std::uint64_t rem = 0;
        for (std::size_t i = num.limb.size(); i-- > 0;) {
            const std::uint64_t cur = (rem << 32) | num.limb[i];
            q.limb[i] = static_cast<std::uint32_t>(cur / d);
            rem = cur % d;
        }
        q.trim();
        return {q, fromU64(rem)};
    }

    // Knuth Algorithm D. Normalize so the divisor's top limb has its
    // high bit set.
    int shift = 0;
    std::uint32_t top = den.limb.back();
    while (!(top & 0x80000000u)) {
        top <<= 1;
        ++shift;
    }
    const BigUint u = num.shiftLeft(shift);
    const BigUint v = den.shiftLeft(shift);
    const std::size_t n = v.limb.size();
    const std::size_t m = u.limb.size() >= n ? u.limb.size() - n : 0;

    std::vector<std::uint32_t> un(u.limb);
    un.resize(u.limb.size() + 1, 0);
    const std::vector<std::uint32_t> &vn = v.limb;

    BigUint q;
    q.limb.assign(m + 1, 0);

    for (std::size_t j = m + 1; j-- > 0;) {
        const std::uint64_t numerator =
            (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
        std::uint64_t qhat = numerator / vn[n - 1];
        std::uint64_t rhat = numerator % vn[n - 1];

        while (qhat >= (1ULL << 32) ||
               qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
            --qhat;
            rhat += vn[n - 1];
            if (rhat >= (1ULL << 32))
                break;
        }

        // Multiply-and-subtract qhat * v from un[j .. j+n].
        std::int64_t borrow = 0;
        std::uint64_t carry = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t product = qhat * vn[i] + carry;
            carry = product >> 32;
            std::int64_t t = static_cast<std::int64_t>(un[i + j]) -
                             static_cast<std::int64_t>(product &
                                                       0xffffffffULL) -
                             borrow;
            if (t < 0) {
                t += 1LL << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            un[i + j] = static_cast<std::uint32_t>(t);
        }
        std::int64_t t = static_cast<std::int64_t>(un[j + n]) -
                         static_cast<std::int64_t>(carry) - borrow;
        if (t < 0) {
            // qhat was one too large: add v back once.
            t += 1LL << 32;
            --qhat;
            std::uint64_t addCarry = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t sum =
                    static_cast<std::uint64_t>(un[i + j]) + vn[i] + addCarry;
                un[i + j] = static_cast<std::uint32_t>(sum);
                addCarry = sum >> 32;
            }
            t += static_cast<std::int64_t>(addCarry);
            t &= 0xffffffffLL;
        }
        un[j + n] = static_cast<std::uint32_t>(t);
        q.limb[j] = static_cast<std::uint32_t>(qhat);
    }
    q.trim();

    BigUint r;
    r.limb.assign(un.begin(), un.begin() + n);
    r.trim();
    return {q, r.shiftRight(shift)};
}

BigUint
BigUint::operator%(const BigUint &o) const
{
    return divmod(*this, o).second;
}

BigUint
BigUint::shiftLeft(std::size_t bits) const
{
    if (isZero() || bits == 0)
        return *this;
    const std::size_t words = bits / 32;
    const std::size_t rem = bits % 32;
    BigUint out;
    out.limb.assign(limb.size() + words + 1, 0);
    for (std::size_t i = 0; i < limb.size(); ++i) {
        out.limb[i + words] |= limb[i] << rem;
        if (rem)
            out.limb[i + words + 1] |=
                static_cast<std::uint32_t>(
                    static_cast<std::uint64_t>(limb[i]) >> (32 - rem));
    }
    out.trim();
    return out;
}

BigUint
BigUint::shiftRight(std::size_t bits) const
{
    const std::size_t words = bits / 32;
    const std::size_t rem = bits % 32;
    if (words >= limb.size())
        return BigUint();
    BigUint out;
    out.limb.assign(limb.size() - words, 0);
    for (std::size_t i = 0; i < out.limb.size(); ++i) {
        out.limb[i] = limb[i + words] >> rem;
        if (rem && i + words + 1 < limb.size())
            out.limb[i] |= static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(limb[i + words + 1])
                << (32 - rem));
    }
    out.trim();
    return out;
}

BigUint
BigUint::modExp(const BigUint &exp, const BigUint &m) const
{
    if (m.isZero())
        throw std::domain_error("modExp: zero modulus");
    if (m == fromU64(1))
        return BigUint();
    if (!m.isOdd())
        return modExpLegacy(exp, m);
    return MontgomeryContext(m).modExp(*this, exp);
}

BigUint
BigUint::modExp(const BigUint &exp, const MontgomeryContext &ctx) const
{
    return ctx.modExp(*this, exp);
}

BigUint
BigUint::modExpLegacy(const BigUint &exp, const BigUint &m) const
{
    if (m.isZero())
        throw std::domain_error("modExp: zero modulus");
    const BigUint one = fromU64(1);
    if (m == one)
        return BigUint();

    BigUint result = one;
    BigUint base = *this % m;
    const std::size_t bits = exp.bitLength();
    for (std::size_t i = 0; i < bits; ++i) {
        if (exp.bit(i))
            result = (result * base) % m;
        base = (base * base) % m;
    }
    return result;
}

MontgomeryContext::MontgomeryContext(const BigUint &modulus) : m(modulus)
{
    if (m.isZero() || !m.isOdd())
        throw std::domain_error(
            "MontgomeryContext: modulus must be odd and nonzero");

    const std::size_t k = (m.limb.size() + 1) / 2;
    n.resize(k);
    pack(m, n.data());

    // n' = -n^-1 mod 2^64 via Newton iteration: starting from x = n0
    // (correct mod 8 for odd n0), each step doubles the valid bits.
    const Limb n0 = n[0];
    Limb inv = n0;
    for (int i = 0; i < 5; ++i)
        inv *= 2 - n0 * inv;
    nPrime = Limb{0} - inv;

    // R^2 mod n by one shift and division; R mod n = montMul(R^2, 1).
    rrModN.resize(k);
    pack(BigUint::fromU64(1).shiftLeft(128 * k) % m, rrModN.data());
    std::vector<Limb> one(k, 0), t(k + 2);
    one[0] = 1;
    rModN.resize(k);
    montMul<0>(rrModN.data(), one.data(), rModN.data(), t.data());
}

void
MontgomeryContext::pack(const BigUint &value, Limb *out) const
{
    std::fill(out, out + n.size(), Limb{0});
    for (std::size_t i = 0; i < value.limb.size(); ++i)
        out[i / 2] |= static_cast<Limb>(value.limb[i]) << (32 * (i % 2));
}

BigUint
MontgomeryContext::unpack(const Limb *value) const
{
    BigUint out;
    out.limb.resize(2 * n.size());
    for (std::size_t i = 0; i < n.size(); ++i) {
        out.limb[2 * i] = static_cast<std::uint32_t>(value[i]);
        out.limb[2 * i + 1] = static_cast<std::uint32_t>(value[i] >> 32);
    }
    out.trim();
    return out;
}

template <std::size_t K>
void
MontgomeryContext::montMul(const Limb *a, const Limb *b, Limb *out,
                           Limb *scratch) const
{
    const std::size_t k = K ? K : n.size();
    const Limb *np = n.data();
    std::array<Limb, K + 2> local{};
    Limb *t = K ? local.data() : scratch;
    std::fill(t, t + k + 2, Limb{0});

    // At a fixed K the pragmas unroll every loop, at -O2 as well, so
    // the temporary lives in registers.
#pragma GCC unroll 8
    for (std::size_t i = 0; i < k; ++i) {
        // t += a[i] * b.
        const Wide ai = a[i];
        Limb carry = 0;
#pragma GCC unroll 8
        for (std::size_t j = 0; j < k; ++j) {
            const Wide cur = t[j] + ai * b[j] + carry;
            t[j] = static_cast<Limb>(cur);
            carry = static_cast<Limb>(cur >> 64);
        }
        Wide cur = static_cast<Wide>(t[k]) + carry;
        t[k] = static_cast<Limb>(cur);
        t[k + 1] = static_cast<Limb>(cur >> 64);

        // t = (t + mFac * n) / 2^64; mFac chosen so t becomes
        // divisible by the word base.
        const Wide mFac = static_cast<Limb>(t[0] * nPrime);
        cur = t[0] + mFac * np[0];
        carry = static_cast<Limb>(cur >> 64);
#pragma GCC unroll 8
        for (std::size_t j = 1; j < k; ++j) {
            cur = t[j] + mFac * np[j] + carry;
            t[j - 1] = static_cast<Limb>(cur);
            carry = static_cast<Limb>(cur >> 64);
        }
        cur = static_cast<Wide>(t[k]) + carry;
        t[k - 1] = static_cast<Limb>(cur);
        t[k] = t[k + 1] + static_cast<Limb>(cur >> 64);
    }

    // Result is in t[0..k] and is < 2n; one conditional subtract.
    bool geq = t[k] != 0;
    if (!geq) {
        geq = true;
        for (std::size_t i = k; i-- > 0;) {
            if (t[i] != np[i]) {
                geq = t[i] > np[i];
                break;
            }
        }
    }
    if (!geq) {
        std::copy(t, t + k, out);
        return;
    }
    Limb borrow = 0;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < k; ++i) {
        const Wide diff = static_cast<Wide>(t[i]) - np[i] - borrow;
        out[i] = static_cast<Limb>(diff);
        borrow = static_cast<Limb>(diff >> 64) & 1;
    }
}

template <std::size_t K>
BigUint
MontgomeryContext::ladder(const BigUint &base, const BigUint &exp) const
{
    const std::size_t k = K ? K : n.size();
    const std::size_t bits = exp.bitLength();

    // Fixed window sized to the exponent: the table costs 2^w - 2
    // products, each window costs w squarings plus at most one product.
    const std::size_t w =
        bits > 512 ? 5 : bits > 128 ? 4 : bits > 24 ? 3 : bits > 8 ? 2 : 1;
    const std::size_t entries = std::size_t(1) << w;

    // One scratch buffer: the window table (entry i holds x^i in
    // Montgomery form), the accumulator and the CIOS temporary.
    std::vector<Limb> scratch((entries + 1) * k + k + 2);
    Limb *table = scratch.data();
    Limb *acc = table + entries * k;
    Limb *t = acc + k;

    if (base < m)
        pack(base, acc);
    else
        pack(base % m, acc);
    montMul<K>(acc, rrModN.data(), table + k, t);
    std::copy(rModN.begin(), rModN.end(), table);
    for (std::size_t i = 2; i < entries; ++i)
        montMul<K>(table + (i - 1) * k, table + k, table + i * k, t);

    const std::size_t chunks = (bits + w - 1) / w;
    for (std::size_t c = chunks; c-- > 0;) {
        std::size_t digit = 0;
        for (std::size_t b = 0; b < w; ++b) {
            const std::size_t bitIndex = c * w + b;
            if (bitIndex < bits && exp.bit(bitIndex))
                digit |= std::size_t(1) << b;
        }
        if (c + 1 == chunks) {
            std::copy(table + digit * k, table + (digit + 1) * k, acc);
            continue;
        }
        for (std::size_t s = 0; s < w; ++s)
            montMul<K>(acc, acc, acc, t);
        if (digit != 0)
            montMul<K>(acc, table + digit * k, acc, t);
    }

    // Out of the Montgomery domain: multiply by 1 (table[0] is free).
    std::fill(table, table + k, Limb{0});
    table[0] = 1;
    montMul<K>(acc, table, acc, t);
    return unpack(acc);
}

BigUint
MontgomeryContext::modExp(const BigUint &base, const BigUint &exp) const
{
    if (n.size() == 1 && n[0] == 1)
        return BigUint();
    if (exp.isZero())
        return BigUint::fromU64(1);
    switch (n.size()) {
    case 4:
        return ladder<4>(base, exp);
    case 8:
        return ladder<8>(base, exp);
    default:
        return ladder<0>(base, exp);
    }
}

BigUint
BigUint::gcd(BigUint a, BigUint b)
{
    while (!b.isZero()) {
        BigUint r = a % b;
        a = b;
        b = r;
    }
    return a;
}

BigUint
BigUint::modInverse(const BigUint &m) const
{
    // Extended Euclid on (m, a) tracking only the coefficient of a,
    // with signs managed explicitly since BigUint is unsigned.
    BigUint r0 = m, r1 = *this % m;
    BigUint t0 = BigUint(), t1 = fromU64(1);
    bool t0Neg = false, t1Neg = false;

    while (!r1.isZero()) {
        auto [q, r2] = divmod(r0, r1);
        // t2 = t0 - q * t1 with sign tracking.
        const BigUint qt1 = q * t1;
        BigUint t2;
        bool t2Neg;
        if (t0Neg == t1Neg) {
            // Same sign: t0 - q*t1 may flip sign.
            if (t0 >= qt1) {
                t2 = t0 - qt1;
                t2Neg = t0Neg;
            } else {
                t2 = qt1 - t0;
                t2Neg = !t0Neg;
            }
        } else {
            // Opposite signs: magnitudes add, sign follows t0.
            t2 = t0 + qt1;
            t2Neg = t0Neg;
        }
        r0 = r1;
        r1 = r2;
        t0 = t1;
        t0Neg = t1Neg;
        t1 = t2;
        t1Neg = t2Neg;
    }

    if (r0 != fromU64(1))
        throw std::domain_error("modInverse: not invertible");
    if (t0Neg)
        return m - (t0 % m);
    return t0 % m;
}

int
BigUint::millerRabinRounds(std::size_t bits)
{
    return bits >= 250 ? 12 : 24;
}

bool
BigUint::isProbablePrime(Rng &rng) const
{
    if (limb.size() == 1 && limb[0] < 4)
        return limb[0] >= 2;
    if (!isOdd())
        return false;

    const std::vector<std::uint32_t> &primes = smallOddPrimes();
    for (std::size_t i = 0; i < kTrialPrimes; ++i) {
        if (modSmall(primes[i]) == 0)
            return limb.size() == 1 && limb[0] == primes[i];
    }
    return millerRabin(rng, millerRabinRounds(bitLength()));
}

bool
BigUint::millerRabin(Rng &rng, int rounds) const
{
    // Write n-1 = d * 2^s with d odd.
    const BigUint one = fromU64(1);
    const BigUint two = fromU64(2);
    const BigUint nMinus1 = *this - one;
    std::size_t s = 0;
    while (!nMinus1.bit(s))
        ++s;
    const BigUint d = nMinus1.shiftRight(s);

    const MontgomeryContext ctx(*this);
    for (int round = 0; round < rounds; ++round) {
        const BigUint a = randomBelow(nMinus1, rng);
        BigUint x = ctx.modExp(a, d);
        if (x == one || x == nMinus1)
            continue;
        bool witness = true;
        for (std::size_t i = 0; i + 1 < s; ++i) {
            x = ctx.modExp(x, two);
            if (x == nMinus1) {
                witness = false;
                break;
            }
        }
        if (witness)
            return false;
    }
    return true;
}

BigUint
BigUint::generatePrime(std::size_t bits, Rng &rng)
{
    if (bits < 8)
        throw std::invalid_argument("generatePrime: too few bits");
    const std::vector<std::uint32_t> &primes = smallOddPrimes();
    const int rounds = millerRabinRounds(bits);
    std::vector<std::uint32_t> nextHit(primes.size());
    std::bitset<kSieveWindow> composite;
    for (;;) {
        BigUint start = randomWithBits(bits, rng);
        start.limb[(bits - 2) / 32] |= 1u << ((bits - 2) % 32);
        start.limb[0] |= 1;

        // A sieve prime at or above the start cannot divide a
        // candidate of the same width (the cofactor would be >= 2),
        // but may be one: leave those out.
        std::size_t count = primes.size();
        if (bits < 32)
            count = static_cast<std::size_t>(
                std::lower_bound(primes.begin(), primes.end(),
                                 start.limb[0]) -
                primes.begin());

        // Candidate i is start + 2i. Sieve prime p first divides the
        // one with 2i = -start mod p, then every p-th one after it.
        for (std::size_t j = 0; j < count; ++j) {
            const std::uint32_t p = primes[j];
            std::uint32_t delta = (p - start.modSmall(p)) % p;
            if (delta % 2 != 0)
                delta += p;
            nextHit[j] = delta / 2;
        }

        // Candidates start + 2i while they keep `bits` bits; 2i stays
        // below 2^31.
        const BigUint room = fromU64(1).shiftLeft(bits) - start;
        const std::uint32_t limit =
            room.bitLength() > 31 ? 1u << 31 : room.limb[0];
        const std::uint32_t candidates = (limit + 1) / 2;
        for (std::uint32_t lo = 0; lo < candidates; lo += kSieveWindow) {
            const std::uint32_t hi =
                std::min<std::uint32_t>(candidates, lo + kSieveWindow);
            composite.reset();
            for (std::size_t j = 0; j < count; ++j) {
                std::uint32_t i = nextHit[j];
                for (; i < hi; i += primes[j])
                    composite.set(i - lo);
                nextHit[j] = i;
            }
            for (std::uint32_t i = lo; i < hi; ++i) {
                if (composite[i - lo])
                    continue;
                BigUint candidate = start + fromU64(2 * std::uint64_t{i});
                // With every sieve prime below the start, trial division
                // can neither reject nor accept a survivor.
                const bool prime =
                    count == primes.size()
                        ? candidate.millerRabin(rng, rounds)
                        : candidate.isProbablePrime(rng);
                if (prime)
                    return candidate;
            }
        }
    }
}

} // namespace monatt::crypto
