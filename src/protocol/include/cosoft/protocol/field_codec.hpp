// The field codec: one encode_field/decode_field overload per shape.
//
// A struct with `static constexpr auto fields()` — a tuple of member
// pointers — is its fields in that order. The wire messages (messages.hpp)
// are described this way, and so is the server's persisted state: the
// journal snapshot, its restore and the model checker's state fingerprint
// are all walks of the same descriptions (co_session.hpp and the database
// headers).
//
// Shapes: integers are varints (u8 and bool are one raw byte); enums are one
// byte checked against their enum_max; strings and byte vectors are length
// prefixed; a vector is a u32 count followed by its elements; a tuple is its
// elements; unordered maps and sets are a u32 count followed by their
// entries sorted by key, so equal contents encode to equal bytes whatever the
// hash layout, and decoding rejects a repeated key. Every decoder leaves `r`
// failed on malformed input, and a hostile count never reserves more than
// 4096 elements up front.
//
// Every overload is declared before any template body, so nested shapes (a
// vector of structs holding ObjectRefs) resolve without relying on
// argument-dependent lookup. Types outside this header add a shape by
// declaring their own encode_field/decode_field next to the type, where
// argument-dependent lookup finds it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cosoft/common/bytes.hpp"
#include "cosoft/common/ids.hpp"
#include "cosoft/toolkit/events.hpp"
#include "cosoft/toolkit/snapshot.hpp"

namespace cosoft::protocol {

// Internal linkage on purpose: every translation unit gets its own copy of
// the codec, as when it lived in messages.cpp's anonymous namespace, so the
// compiler may fold each message's decoder into the single fold in
// messages.cpp that calls it. With external linkage (plain inline
// functions) chat_rooms latency measured about 4% higher. No inline
// function or template with external linkage may call into this namespace,
// or each includer would see a different definition. So include this header
// only from .cpp files, never from another header: the files that name it
// are then the whole list to audit.
namespace {

template <typename T>
concept HasFields = requires { T::fields(); };

inline void encode_field(ByteWriter& w, bool v) { w.boolean(v); }
inline void encode_field(ByteWriter& w, std::uint8_t v) { w.u8(v); }
inline void encode_field(ByteWriter& w, std::uint32_t v) { w.u32(v); }
inline void encode_field(ByteWriter& w, std::uint64_t v) { w.u64(v); }
inline void encode_field(ByteWriter& w, const std::string& v) { w.str(v); }
inline void encode_field(ByteWriter& w, const std::vector<std::uint8_t>& v) { w.bytes(v); }
inline void encode_field(ByteWriter& w, const ObjectRef& v) {
    w.u32(v.instance);
    w.str(v.path);
}
inline void encode_field(ByteWriter& w, const toolkit::Event& v) { toolkit::encode(w, v); }
inline void encode_field(ByteWriter& w, const toolkit::UiState& v) { toolkit::encode(w, v); }
template <typename E>
    requires std::is_enum_v<E>
void encode_field(ByteWriter& w, E v);
template <typename T>
void encode_field(ByteWriter& w, const std::vector<T>& v);
template <typename... Ts>
void encode_field(ByteWriter& w, const std::tuple<Ts...>& v);
template <typename K, typename V, typename... Rest>
void encode_field(ByteWriter& w, const std::unordered_map<K, V, Rest...>& v);
template <typename K, typename... Rest>
void encode_field(ByteWriter& w, const std::unordered_set<K, Rest...>& v);
template <HasFields T>
void encode_field(ByteWriter& w, const T& v);

inline void decode_field(ByteReader& r, bool& v) { v = r.boolean(); }
inline void decode_field(ByteReader& r, std::uint8_t& v) { v = r.u8(); }
inline void decode_field(ByteReader& r, std::uint32_t& v) { v = r.u32(); }
inline void decode_field(ByteReader& r, std::uint64_t& v) { v = r.u64(); }
inline void decode_field(ByteReader& r, std::string& v) { v = r.str(); }
inline void decode_field(ByteReader& r, std::vector<std::uint8_t>& v) { v = r.bytes(); }
inline void decode_field(ByteReader& r, ObjectRef& v) {
    v.instance = r.u32();
    v.path = r.str();
}
inline void decode_field(ByteReader& r, toolkit::Event& v) { v = toolkit::decode_event(r); }
inline void decode_field(ByteReader& r, toolkit::UiState& v) { v = toolkit::decode_ui_state(r); }
template <typename E>
    requires std::is_enum_v<E>
void decode_field(ByteReader& r, E& v);
template <typename T>
void decode_field(ByteReader& r, std::vector<T>& v);
template <typename... Ts>
void decode_field(ByteReader& r, std::tuple<Ts&...> v);
template <typename K, typename V, typename... Rest>
void decode_field(ByteReader& r, std::unordered_map<K, V, Rest...>& v);
template <typename K, typename... Rest>
void decode_field(ByteReader& r, std::unordered_set<K, Rest...>& v);
template <HasFields T>
void decode_field(ByteReader& r, T& v);

/// Encodes each argument in turn.
template <typename... Ts>
void encode_fields(ByteWriter& w, const Ts&... vs) {
    (encode_field(w, vs), ...);
}

/// Decodes each argument in turn.
template <typename... Ts>
void decode_fields(ByteReader& r, Ts&&... vs) {
    (decode_field(r, vs), ...);
}

namespace detail {

/// A hostile count must not reserve unbounded memory up front.
inline constexpr std::uint32_t kMaxReserve = 4096;

/// Pointers to the elements of an unordered container, sorted by `key`:
/// the canonical order without copying the elements.
template <typename C, typename Key>
std::vector<const typename C::value_type*> sorted_by(const C& c, Key key) {
    std::vector<const typename C::value_type*> out;
    out.reserve(c.size());
    for (const auto& e : c) out.push_back(&e);
    std::sort(out.begin(), out.end(), [&](const auto* a, const auto* b) { return key(*a) < key(*b); });
    return out;
}

}  // namespace detail

template <typename E>
    requires std::is_enum_v<E>
void encode_field(ByteWriter& w, E v) {
    static_assert(sizeof(E) == 1, "wire enums are one byte");
    w.u8(static_cast<std::uint8_t>(v));
}

template <typename T>
void encode_field(ByteWriter& w, const std::vector<T>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& item : v) encode_field(w, item);
}

template <typename... Ts>
void encode_field(ByteWriter& w, const std::tuple<Ts...>& v) {
    std::apply([&](const auto&... item) { encode_fields(w, item...); }, v);
}

template <typename K, typename V, typename... Rest>
void encode_field(ByteWriter& w, const std::unordered_map<K, V, Rest...>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto* entry : detail::sorted_by(v, [](const auto& e) -> const K& { return e.first; })) {
        encode_fields(w, entry->first, entry->second);
    }
}

template <typename K, typename... Rest>
void encode_field(ByteWriter& w, const std::unordered_set<K, Rest...>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const K* key : detail::sorted_by(v, [](const K& k) -> const K& { return k; })) encode_field(w, *key);
}

template <HasFields T>
void encode_field(ByteWriter& w, const T& v) {
    std::apply([&](auto... member) { (encode_field(w, v.*member), ...); }, T::fields());
}

template <typename E>
    requires std::is_enum_v<E>
void decode_field(ByteReader& r, E& v) {
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(enum_max(E{}))) r.fail();
    v = static_cast<E>(raw);
}

template <typename T>
void decode_field(ByteReader& r, std::vector<T>& v) {
    const std::uint32_t n = r.u32();
    v.reserve(std::min(n, detail::kMaxReserve));
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) decode_field(r, v.emplace_back());
}

template <typename... Ts>
void decode_field(ByteReader& r, std::tuple<Ts&...> v) {
    std::apply([&](auto&... item) { decode_fields(r, item...); }, v);
}

template <typename K, typename V, typename... Rest>
void decode_field(ByteReader& r, std::unordered_map<K, V, Rest...>& v) {
    const std::uint32_t n = r.u32();
    v.reserve(std::min(n, detail::kMaxReserve));
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        K key{};
        V value{};
        decode_fields(r, key, value);
        if (r.ok() && !v.emplace(std::move(key), std::move(value)).second) r.fail();
    }
}

template <typename K, typename... Rest>
void decode_field(ByteReader& r, std::unordered_set<K, Rest...>& v) {
    const std::uint32_t n = r.u32();
    v.reserve(std::min(n, detail::kMaxReserve));
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        K key{};
        decode_field(r, key);
        if (r.ok() && !v.insert(std::move(key)).second) r.fail();
    }
}

template <HasFields T>
void decode_field(ByteReader& r, T& v) {
    std::apply([&](auto... member) { (decode_field(r, v.*member), ...); }, T::fields());
}

}  // namespace
}  // namespace cosoft::protocol
