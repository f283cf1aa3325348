#pragma once
/// \file enum_names.hpp
/// One {name, value} table per enum. The table is the single source of
/// the enum's to_string, of its parse direction and of the "unknown X 'v'
/// (want a, b or c)" diagnostic. An enum opts in with an `enum_names(E)`
/// overload in its own namespace (found by ADL), so to_string below, the
/// JSON binding (report/json_bind.hpp) and the command-line flags
/// (Cli::get_enum) handle every enum the same way. A namespace that wants
/// `ns::to_string(e)` to work adds `using raa::to_string;`.

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace raa {

template <class E>
struct EnumName {
  const char* name;
  E value;
};

template <class E>
struct EnumNames {
  const char* what;  ///< the enum's noun in diagnostics ("backend")
  std::span<const EnumName<E>> names;

  const char* name(E e) const noexcept {
    for (const auto& n : names)
      if (n.value == e) return n.name;
    return "?";
  }

  std::optional<E> parse(std::string_view s) const noexcept {
    for (const auto& n : names)
      if (s == n.name) return n.value;
    return std::nullopt;
  }

  /// "unknown backend 'bankd' (want flat or banked)".
  std::string unknown(std::string_view s) const {
    std::string msg = std::string{"unknown "} + what + " '" +
                      std::string{s} + "' (want ";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) msg += i + 1 == names.size() ? " or " : ", ";
      msg += names[i].name;
    }
    return msg + ")";
  }
};

template <class E>
  requires requires(E e) { enum_names(e); }
const char* to_string(E e) noexcept {
  return enum_names(e).name(e);
}

}  // namespace raa
