/**
 * @file
 * The one wire codec: field declarations and the generic
 * encoder/decoder derived from them.
 *
 * Every protocol message, journal record and snapshot entry declares
 * its fields exactly once, as a static `fields()` table of
 * (member pointer, field number, name, emit rule). The encoder and
 * the decoder both walk that table, so they cannot drift apart. The
 * encoding is protobuf-style tag||value (common/wire.h):
 *
 *   - integers, bools and enums are VARINT fields; signed integers
 *     are zigzag-mapped so small magnitudes stay short;
 *   - strings, byte buffers and nested declared types are LEN fields;
 *   - lists of integers or enums are one LEN field of packed varints;
 *     lists of strings or nested types repeat their field number;
 *   - a field equal to its default-constructed value is omitted unless
 *     it is declared always().
 *
 * The decoder starts from a default-constructed value, skips unknown
 * field numbers and known numbers arriving with another wire type
 * (an older or newer peer may produce them), and treats malformed
 * bytes as errors: truncated varints, over-long LEN prefixes, list
 * counts above a field's atMost() bound, and varints that do not fit
 * the member's type (enum underlying type, u32, int...).
 *
 * Field-numbering rules (checked at compile time by numbersAreValid()):
 *   - numbers start at 1 in struct declaration order; 0 is invalid
 *   - a number is never reused or retyped once released: a retired
 *     number stays out of its message's table for good
 */

#ifndef MONATT_PROTO_WIRE_SCHEMA_H
#define MONATT_PROTO_WIRE_SCHEMA_H

#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/wire.h"

namespace monatt::proto
{

/** The on-wire encoding. Tagged is the only one; kept only because
 * perfbench's codec replay spells decodeAs<M>(format, body). */
enum class WireFormat : std::uint8_t
{
    Tagged = 1,
};

/** Empty: there is one schema. Kept only because perfbench's codec
 * replay passes one to packFor(). */
struct WireContext
{
};

/** First byte of every message frame: 0xC1 || kind || varint len. */
inline constexpr std::uint8_t kTaggedFrameMarker = 0xC1;

// --- Field declarations ---------------------------------------------

/** No bound on a list field's element count. */
inline constexpr std::size_t kUnbounded =
    std::numeric_limits<std::size_t>::max();

/** One declared field: a member of T carried at `number`. */
template <typename T, typename M>
struct Field
{
    M T::*member;
    std::uint32_t number;
    const char *name;
    bool alwaysEmit = false;
    std::size_t maxCount = kUnbounded;

    /** Written even when equal to the default-constructed value. */
    constexpr Field always() const
    {
        Field f = *this;
        f.alwaysEmit = true;
        return f;
    }

    /** Decode bound on a list field's element count. */
    constexpr Field atMost(std::size_t n) const
    {
        Field f = *this;
        f.maxCount = n;
        return f;
    }
};

template <typename T, typename M>
constexpr Field<T, M>
field(M T::*member, std::uint32_t number, const char *name)
{
    return {member, number, name};
}

/**
 * A field derived from T's state rather than stored in one member:
 * `put` writes its occurrences, `take` folds one received occurrence
 * back in (false = malformed).
 */
template <typename T>
struct CustomField
{
    std::uint32_t number;
    const char *name;
    wire::WireType type;
    void (*put)(wire::WireWriter &w, std::uint32_t number, const T &obj);
    bool (*take)(T &obj, const wire::WireField &in);
};

/** A type with a declared field table. */
template <typename T>
concept Declared = requires { T::fields(); };

/**
 * True when T's field numbers are nonzero and unique, and none is a
 * number T retired (its optional `kRetiredFields` array). The codec
 * asserts it at compile time for every type it encodes or decodes.
 */
template <Declared T>
constexpr bool
numbersAreValid()
{
    return std::apply(
        [](const auto &...f) {
            const std::array<std::uint32_t, sizeof...(f)> numbers{
                f.number...};
            for (std::size_t i = 0; i < numbers.size(); ++i) {
                if (numbers[i] == 0)
                    return false;
                for (std::size_t j = 0; j < i; ++j) {
                    if (numbers[j] == numbers[i])
                        return false;
                }
                if constexpr (requires { T::kRetiredFields; }) {
                    for (std::uint32_t retired : T::kRetiredFields) {
                        if (retired == numbers[i])
                            return false;
                    }
                }
            }
            return true;
        },
        T::fields());
}

// --- The generic codec ------------------------------------------------

namespace detail
{

template <typename V>
inline constexpr bool kIsVarint = std::is_integral_v<V> || std::is_enum_v<V>;

/** Lists of integers/enums travel packed; other lists repeat. */
template <typename V>
struct ListKind
{
    static constexpr bool packed = false;
    static constexpr bool repeated = false;
};
template <typename E, typename A>
struct ListKind<std::vector<E, A>>
{
    static constexpr bool packed =
        kIsVarint<E> && !std::is_same_v<std::vector<E, A>, Bytes>;
    static constexpr bool repeated = !kIsVarint<E>;
};
template <typename E, typename C, typename A>
struct ListKind<std::set<E, C, A>>
{
    static constexpr bool packed = kIsVarint<E>;
    static constexpr bool repeated = !kIsVarint<E>;
};

template <typename V>
constexpr wire::WireType
wireTypeOf()
{
    return kIsVarint<V> ? wire::WireType::Varint : wire::WireType::Len;
}

template <typename V>
std::uint64_t
toVarint(V v)
{
    if constexpr (std::is_enum_v<V> || std::is_same_v<V, bool> ||
                  std::is_unsigned_v<V>)
        return static_cast<std::uint64_t>(v);
    else
        return wire::zigzagEncode(v);
}

/** Inverse of toVarint; false when `raw` does not fit V. */
template <typename V>
bool
fromVarint(std::uint64_t raw, V &out)
{
    if constexpr (std::is_same_v<V, bool>) {
        out = raw != 0;
    } else if constexpr (std::is_enum_v<V>) {
        using U = std::underlying_type_t<V>;
        if (raw > static_cast<std::uint64_t>(std::numeric_limits<U>::max()))
            return false;
        out = static_cast<V>(static_cast<U>(raw));
    } else if constexpr (std::is_unsigned_v<V>) {
        if (raw > std::numeric_limits<V>::max())
            return false;
        out = static_cast<V>(raw);
    } else {
        const std::int64_t s = wire::zigzagDecode(raw);
        if (s < std::numeric_limits<V>::min() ||
            s > std::numeric_limits<V>::max())
            return false;
        out = static_cast<V>(s);
    }
    return true;
}

template <typename C, typename E>
void
insert(C &list, E &&e)
{
    if constexpr (requires { list.push_back(std::forward<E>(e)); })
        list.push_back(std::forward<E>(e));
    else
        list.insert(std::forward<E>(e));
}

/** The default-constructed value omit-default compares against. */
template <typename T>
const T &
defaults()
{
    static const T d{};
    return d;
}

} // namespace detail

template <Declared T>
void encodeInto(wire::WireWriter &w, const T &msg);

template <Declared T>
Status decodeInto(T &msg, const Bytes &data);

/** Encode a declared value. */
template <Declared T>
Bytes
encode(const T &msg)
{
    wire::WireWriter w;
    encodeInto(w, msg);
    return w.take();
}

/** Decode a declared value (unknown fields skipped, missing default). */
template <Declared T>
Result<T>
decode(const Bytes &data)
{
    T msg{};
    Status st = decodeInto(msg, data);
    if (!st)
        return Result<T>::error(st.errorMessage());
    return Result<T>::ok(std::move(msg));
}

/** A list of integers or enums as one packed-varint payload. */
template <typename List>
Bytes
encodePacked(const List &values)
{
    Bytes out;
    for (const auto &v : values)
        wire::appendVarint(out, detail::toVarint(v));
    return out;
}

namespace detail
{

template <typename T, typename M>
void
putField(wire::WireWriter &w, const T &msg, const T &dflt,
         const Field<T, M> &f)
{
    const M &v = msg.*(f.member);
    if constexpr (Declared<M>) {
        Bytes body = encode(v);
        if (f.alwaysEmit || !body.empty())
            w.putLen(f.number, body);
    } else if constexpr (ListKind<M>::repeated) {
        for (const auto &e : v) {
            if constexpr (Declared<typename M::value_type>)
                w.putLen(f.number, encode(e));
            else
                w.putString(f.number, e);
        }
    } else if (f.alwaysEmit || !(v == dflt.*(f.member))) {
        if constexpr (kIsVarint<M>)
            w.putVarint(f.number, toVarint(v));
        else if constexpr (ListKind<M>::packed)
            w.putLen(f.number, encodePacked(v));
        else if constexpr (std::is_same_v<M, std::string>)
            w.putString(f.number, v);
        else
            w.putLen(f.number, v);
    }
}

template <typename T>
void
putField(wire::WireWriter &w, const T &msg, const T &,
         const CustomField<T> &f)
{
    f.put(w, f.number, msg);
}

/** Decode one element of a list field into `out`; error text or "". */
template <typename E>
std::string
takeElement(const wire::WireField &in, E &out)
{
    if constexpr (Declared<E>) {
        Status st = decodeInto(out, in.bytes);
        return st ? std::string() : st.errorMessage();
    } else {
        out.assign(in.bytes.begin(), in.bytes.end());
        return {};
    }
}

/** Fold one received field into `msg` (taking its payload); false
 * (with `err`) on malformed bytes. A wire type the declaration does
 * not expect is skipped. */
template <typename T, typename M>
bool
takeField(T &msg, const Field<T, M> &f, wire::WireField &in,
          std::string &err)
{
    if (in.type != wireTypeOf<M>())
        return true;
    M &v = msg.*(f.member);
    if constexpr (kIsVarint<M>) {
        if (!fromVarint(in.varint, v)) {
            err = "value out of range";
            return false;
        }
    } else if constexpr (std::is_same_v<M, std::string>) {
        v.assign(in.bytes.begin(), in.bytes.end());
    } else if constexpr (std::is_same_v<M, Bytes>) {
        v = std::move(in.bytes);
    } else if constexpr (Declared<M>) {
        v = M{};
        Status st = decodeInto(v, in.bytes);
        if (!st) {
            err = st.errorMessage();
            return false;
        }
    } else if constexpr (ListKind<M>::packed) {
        wire::WireReader r(in.bytes);
        while (!r.atEnd()) {
            auto raw = r.nextVarint();
            typename M::value_type e{};
            if (!raw)
                err = raw.errorMessage();
            else if (v.size() >= f.maxCount)
                err = "too many elements";
            else if (!fromVarint(raw.value(), e))
                err = "value out of range";
            if (!err.empty())
                return false;
            insert(v, e);
        }
    } else {
        if (v.size() >= f.maxCount) {
            err = "too many elements";
            return false;
        }
        typename M::value_type e{};
        err = takeElement(in, e);
        if (!err.empty())
            return false;
        insert(v, std::move(e));
    }
    return true;
}

template <typename T>
bool
takeField(T &msg, const CustomField<T> &f, const wire::WireField &in,
          std::string &err)
{
    if (in.type != f.type || f.take(msg, in))
        return true;
    err = "malformed";
    return false;
}

} // namespace detail

template <Declared T>
void
encodeInto(wire::WireWriter &w, const T &msg)
{
    static_assert(numbersAreValid<T>(), "reused or invalid field number");
    static constexpr auto kFields = T::fields();
    const T &dflt = detail::defaults<T>();
    std::apply(
        [&](const auto &...f) { (detail::putField(w, msg, dflt, f), ...); },
        kFields);
}

template <Declared T>
Status
decodeInto(T &msg, const Bytes &data)
{
    static_assert(numbersAreValid<T>(), "reused or invalid field number");
    static constexpr auto kFields = T::fields();
    wire::WireReader r(data);
    std::string err;
    while (!r.atEnd()) {
        auto in = r.next();
        if (!in)
            return Status::error(in.errorMessage());
        wire::WireField &fld = in.value();
        // Stop at the declaration carrying this number, if any.
        const char *failed = nullptr;
        std::apply(
            [&](const auto &...f) {
                ((f.number == fld.number &&
                  (detail::takeField(msg, f, fld, err) ||
                   (failed = f.name, true))) ||
                 ...);
            },
            kFields);
        if (failed)
            return Status::error(std::string(failed) + ": " + err);
    }
    return Status::ok();
}

} // namespace monatt::proto

#endif // MONATT_PROTO_WIRE_SCHEMA_H
