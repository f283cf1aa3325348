#include "common/cli.hpp"

#include <algorithm>
#include <cstdlib>

namespace raa {

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg{argv[i]};
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      flags_.emplace(std::string{arg}, "true");
    } else {
      flags_.emplace(std::string{arg.substr(0, eq)},
                     std::string{arg.substr(eq + 1)});
    }
  }
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  return (end && *end == '\0') ? v : fallback;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  return (end && *end == '\0') ? v : fallback;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool Cli::has(const std::string& name) const { return flags_.contains(name); }

std::string Cli::unknown_flag(
    std::initializer_list<std::string_view> known) const {
  return unknown_flag(std::span{known.begin(), known.size()});
}

std::string Cli::unknown_flag(std::span<const std::string_view> known) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string accepted;
    for (const std::string_view k : known)
      accepted += (accepted.empty() ? "--" : ", --") + std::string{k};
    return "unknown flag --" + name + " (accepted: " + accepted + ")";
  }
  return "";
}

}  // namespace raa
