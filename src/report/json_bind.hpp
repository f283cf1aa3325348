#pragma once
/// \file json_bind.hpp
/// Declarative JSON binding. A struct's schema is one table of field rows
/// (key, member path, required or optional, bound); that table alone drives
/// strict unknown-key rejection, reading with checked conversions and
/// JSON-path diagnostics, and to_json emission in row order. Checks that
/// span several fields or need outside context (cross-field rules,
/// references by name) stay as plain code after the table pass; key() rows
/// reserve their keys for that code.
///
/// Conversions by member type:
///   * unsigned / uint64: exact integers up to 2^53 (unsigned must also fit
///     32 bits); `positive` rejects 0, a row's `max` caps the value;
///   * double: non-negative, `fraction` in [0, 1], `any_sign` any finite;
///   * bool; std::string (`positive` rejects "");
///   * enums, through their name table (common/enum_names.hpp);
///   * std::optional of any of these: absent stays nullopt, and to_json
///     emits the key only when set;
///   * nested structs, through their own table (object());
///   * std::vector of any of these (a list row): a JSON array whose
///     elements get the row's flags, element paths `key[i]`;
///   * no member: constant() schema markers and computed() values.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/cli.hpp"
#include "common/enum_names.hpp"
#include "report/json.hpp"

namespace raa::json::bind {

/// Largest double that still represents integers exactly.
inline constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

/// Shared error sink: first failure wins, every message carries the JSON
/// path of the offending value.
struct Ctx {
  std::string* error = nullptr;

  bool fail(const std::string& path, const std::string& msg) const {
    if (error && error->empty()) *error = path + ": " + msg;
    return false;
  }
};

/// Row flags.
enum Flag : unsigned {
  required = 1u << 0,    ///< an absent key is an error
  positive = 1u << 1,    ///< numbers: reject 0; strings: reject ""
  fraction = 1u << 2,    ///< doubles: [0, 1] instead of [0, inf)
  omit_empty = 1u << 3,  ///< to_json skips a value equal to T{}
  parse_only = 1u << 4,  ///< an accepted alias that to_json never emits
  any_sign = 1u << 5,    ///< doubles: any finite number, negatives too
  derived = 1u << 6,     ///< computed() only: reading checks the value too
};

/// One row of a struct's table. Rows built by key() have neither reader
/// nor writer: the key is allowed (and, when required, must be present),
/// but the caller reads and emits it.
template <class S>
struct Field {
  const char* key;
  unsigned flags = 0;
  std::uint64_t max = 0;  ///< integers: inclusive ceiling; 0 = none
  bool (*read)(const Ctx&, const Value&, const std::string&, const Field&,
               S&) = nullptr;
  void (*write)(const Field&, const S&, Value&) = nullptr;
};

// --- checked converters -------------------------------------------------

template <class T>
  requires std::is_same_v<T, unsigned> || std::is_same_v<T, std::uint64_t>
bool convert(const Ctx& c, const Value& v, const std::string& path,
             unsigned flags, std::uint64_t max, T& out) {
  if (!v.is_number()) return c.fail(path, "expected a non-negative integer");
  const double d = v.as_number();
  if (!(d >= 0.0) || d != std::floor(d) || d > kMaxExactInt)
    return c.fail(path, "expected a non-negative integer");
  const auto x = static_cast<std::uint64_t>(d);
  if (x > std::numeric_limits<T>::max())
    return c.fail(path, "value does not fit in 32 bits");
  if (x == 0 && (flags & positive)) return c.fail(path, "must be positive");
  if (max != 0 && x > max)
    return c.fail(path, "must be at most " + std::to_string(max));
  out = static_cast<T>(x);
  return true;
}

/// !(in range), so that NaN (a command-line strtod can produce it) fails.
inline bool convert(const Ctx& c, const Value& v, const std::string& path,
                    unsigned flags, std::uint64_t, double& out) {
  const double x = v.is_number() ? v.as_number() : NAN;
  if ((flags & fraction) && !(x >= 0.0 && x <= 1.0))
    return c.fail(path, "expected a number in [0, 1]");
  if ((flags & any_sign) && !std::isfinite(x))
    return c.fail(path, "expected a number");
  if (!(flags & (fraction | any_sign)) && !(x >= 0.0))
    return c.fail(path, "expected a non-negative number");
  out = x;
  return true;
}

inline bool convert(const Ctx& c, const Value& v, const std::string& path,
                    unsigned, std::uint64_t, bool& out) {
  if (!v.is_bool()) return c.fail(path, "expected true or false");
  out = v.as_bool();
  return true;
}

inline bool convert(const Ctx& c, const Value& v, const std::string& path,
                    unsigned flags, std::uint64_t, std::string& out) {
  if (!v.is_string()) return c.fail(path, "expected a string");
  if ((flags & positive) && v.as_string().empty())
    return c.fail(path, "must not be empty");
  out = v.as_string();
  return true;
}

template <class E>
  requires std::is_enum_v<E>
bool convert(const Ctx& c, const Value& v, const std::string& path, unsigned,
             std::uint64_t, E& out) {
  if (!v.is_string()) return c.fail(path, "expected a string");
  const auto names = enum_names(E{});
  const std::optional<E> e = names.parse(v.as_string());
  if (!e) return c.fail(path, names.unknown(v.as_string()));
  out = *e;
  return true;
}

template <class T>
bool convert(const Ctx& c, const Value& v, const std::string& path,
             unsigned flags, std::uint64_t max, std::optional<T>& out) {
  T x{};
  if (!convert(c, v, path, flags, max, x)) return false;
  out = x;
  return true;
}

/// A numeric command-line flag through the converter of its JSON twin, so
/// `--name=V` is checked exactly like `"name": V` and a failure names
/// `--name`. An absent flag leaves `out` unchanged; a malformed number
/// reads as -1 (integers) or NaN (doubles) and fails like one. `out` is
/// an integer, a double or an optional of one.
template <class T>
bool convert_flag(const Ctx& c, const Cli& cli, const std::string& name,
                  unsigned flags, std::uint64_t max, T& out) {
  if (!cli.has(name)) return true;
  constexpr bool real = std::is_same_v<T, double> ||
                        std::is_same_v<T, std::optional<double>>;
  const double v = real ? cli.get_double(name, NAN)
                        : static_cast<double>(cli.get_int(name, -1));
  return convert(c, v, "--" + name, flags, max, out);
}

// --- tables -------------------------------------------------------------

/// The table pass over one object: reject unknown keys (strict schema),
/// then read the present rows in row order.
template <class S>
bool read(const Ctx& c, const Value& obj, const std::string& path,
          std::type_identity_t<std::span<const Field<S>>> rows, S& out) {
  if (!obj.is_object()) return c.fail(path, "expected an object");
  for (const auto& [key, value] : obj.as_object())
    if (std::none_of(rows.begin(), rows.end(),
                     [&](const Field<S>& f) { return key == f.key; }))
      return c.fail(path + "." + key, "unknown key");
  for (const Field<S>& f : rows) {
    const Value* v = obj.find(f.key);
    if (v == nullptr) {
      if (f.flags & required)
        return c.fail(path,
                      std::string{"missing required key \""} + f.key + "\"");
      continue;
    }
    if (f.read != nullptr && !f.read(c, *v, path + "." + f.key, f, out))
      return false;
  }
  for (const Field<S>& f : rows) {  // derived rows, against what was read
    if (!(f.flags & derived)) continue;
    Value want{Object{}};
    f.write(f, out, want);
    const Value &v = *obj.find(f.key), &w = *want.find(f.key);
    if (!(v == w))
      return c.fail(path + "." + f.key, "expected " + w.dump() +
                                            " (derived from the other keys), "
                                            "got " + v.dump());
  }
  return true;
}

/// Walk a non-empty array, calling fn(element, path) on each element;
/// `empty_msg` is the diagnostic for anything else.
template <class Fn>
bool each(const Ctx& c, const Value& v, const std::string& path,
          const char* empty_msg, Fn&& fn) {
  if (!v.is_array() || v.as_array().empty()) return c.fail(path, empty_msg);
  for (std::size_t i = 0; i < v.as_array().size(); ++i)
    if (!fn(v.as_array()[i], path + "[" + std::to_string(i) + "]"))
      return false;
  return true;
}

/// Emit the rows in order; key() rows are handed to `custom(key, obj)`.
template <class S>
Value write(std::type_identity_t<std::span<const Field<S>>> rows, const S& s,
            const std::function<void(std::string_view, Value&)>& custom = {}) {
  Value obj{Object{}};
  for (const Field<S>& f : rows) {
    if (f.flags & parse_only) continue;
    if (f.write != nullptr)
      f.write(f, s, obj);
    else
      custom(f.key, obj);
  }
  return obj;
}

// --- making rows ---------------------------------------------------------

template <auto First, auto...>
struct path_owner;
template <class S, class T, T S::*First, auto... Rest>
struct path_owner<First, Rest...> {
  using type = S;
};

/// The struct a member path starts from.
template <auto... Path>
using owner_t = typename path_owner<Path...>::type;

template <class T>
inline constexpr bool is_optional = false;
template <class T>
inline constexpr bool is_optional<std::optional<T>> = true;
template <class T>
inline constexpr bool is_vector = false;
template <class T>
inline constexpr bool is_vector<std::vector<T>> = true;

/// One value: a std::vector of values, or else a scalar (`Table` is
/// nullptr) or a struct through *Table.
template <auto Table, class S, class T>
bool read_value(const Ctx& c, const Value& v, const std::string& path,
                const Field<S>& f, T& x) {
  if constexpr (is_vector<T>) {
    if (!v.is_array())
      return c.fail(path, std::string{"expected an array of "} + f.key);
    T xs(v.as_array().size());
    for (std::size_t i = 0; i < xs.size(); ++i)
      if (!read_value<Table>(c, v.as_array()[i],
                             path + "[" + std::to_string(i) + "]", f, xs[i]))
        return false;
    x = std::move(xs);
    return true;
  } else if constexpr (std::is_null_pointer_v<decltype(Table)>) {
    return convert(c, v, path, f.flags, f.max, x);
  } else {
    return read(c, v, path, *Table, x);
  }
}

template <auto Table, class T>
Value write_value(const T& x) {
  if constexpr (is_vector<T>) {
    Array out;
    for (const auto& e : x) out.push_back(write_value<Table>(e));
    return Value{std::move(out)};
  } else if constexpr (!std::is_null_pointer_v<decltype(Table)>) {
    return write(*Table, x);
  } else if constexpr (std::is_enum_v<T>) {
    return Value{enum_names(x).name(x)};
  } else {
    return Value{x};
  }
}

template <auto Table, auto... Path>
bool read_field(const Ctx& c, const Value& v, const std::string& path,
                const Field<owner_t<Path...>>& f, owner_t<Path...>& s) {
  return read_value<Table>(c, v, path, f, (s .* ... .* Path));
}

template <auto Table, auto... Path>
void write_field(const Field<owner_t<Path...>>& f, const owner_t<Path...>& s,
                 Value& obj) {
  const auto& x = (s .* ... .* Path);
  using T = std::remove_cvref_t<decltype(x)>;
  if constexpr (is_optional<T>) {
    if (x) obj.set(f.key, write_value<Table>(*x));
  } else if (!(f.flags & omit_empty) || !(x == T{})) {
    obj.set(f.key, write_value<Table>(x));
  }
}

/// A scalar row (see the file comment for the member types it takes), or
/// a list row of them. The member is a path: field<&A::b, &B::c> binds
/// a.b.c.
template <auto... Path>
constexpr Field<owner_t<Path...>> field(const char* key, unsigned flags = 0,
                                        std::uint64_t max = 0) {
  return {key, flags, max, &read_field<nullptr, Path...>,
          &write_field<nullptr, Path...>};
}

/// A nested-object row, or a list row of objects, through `Table`.
template <const auto& Table, auto... Path>
constexpr Field<owner_t<Path...>> object(const char* key,
                                         unsigned flags = 0) {
  return {key, flags, 0, &read_field<&Table, Path...>,
          &write_field<&Table, Path...>};
}

/// A schema marker: to_json emits `V`, and a present key must equal it.
template <class S, const auto& V>
constexpr Field<S> constant(const char* key, unsigned flags = 0) {
  return {key, flags, 0,
          [](const Ctx& c, const Value& v, const std::string& path,
             const Field<S>&, S&) {
            return v == Value{V} || c.fail(path, "expected " + Value{V}.dump() +
                                                     ", got " + v.dump());
          },
          [](const Field<S>& f, const S&, Value& obj) {
            obj.set(f.key, Value{V});
          }};
}

/// A required row that to_json fills with Get(s). Reading checks the type
/// and bounds of Get's result; with `derived` the value must also equal
/// Get of the struct as read.
template <class S, auto Get>
constexpr Field<S> computed(const char* key, unsigned flags = 0) {
  return {key, flags | required, 0,
          [](const Ctx& c, const Value& v, const std::string& path,
             const Field<S>& f, S& s) {
            std::remove_cvref_t<decltype(Get(s))> x{};
            return convert(c, v, path, f.flags, f.max, x);
          },
          [](const Field<S>& f, const S& s, Value& obj) {
            obj.set(f.key, write_value<nullptr>(Get(s)));
          }};
}

/// A key the caller reads and emits itself.
template <class S>
constexpr Field<S> key(const char* name, unsigned flags = 0) {
  return {name, flags};
}

}  // namespace raa::json::bind
