#pragma once
/// \file cli.hpp
/// Minimal --key=value flag parser for examples and benches. Not a general
/// argument library: just enough to parameterise experiment harnesses
/// (sizes, seeds, core counts) without external dependencies.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace raa {

/// Parses flags of the form --name=value or --name (boolean true).
/// Unrecognised positional arguments are ignored.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Look up a flag; returns fallback when absent or malformed.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// True when the flag appeared on the command line.
  bool has(const std::string& name) const;

  /// "unknown flag --x (accepted: --a, --b)" for the first flag given
  /// that `known` does not name, or "" when every flag is known. A tool
  /// that names its flags this way turns a misspelt one into a usage
  /// error instead of a silently kept default.
  std::string unknown_flag(std::initializer_list<std::string_view> known) const;
  std::string unknown_flag(std::span<const std::string_view> known) const;

  /// An enum flag parsed through its name table (common/enum_names.hpp):
  /// nullopt when absent, or when the value is no name, which also sets
  /// `error` to "--name: unknown X 'v' (want a or b)".
  template <class E>
  std::optional<E> get_enum(const std::string& name,
                            std::string& error) const {
    const std::string v = get_string(name, "");
    const auto names = enum_names(E{});
    const std::optional<E> e = names.parse(v);
    if (has(name) && !e) error = "--" + name + ": " + names.unknown(v);
    return e;
  }

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace raa
