// A tiny key=value configuration store so examples and benches can override
// simulation parameters from the command line ("key=value" arguments)
// without pulling in an external dependency.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace dcs {

class Config {
 public:
  Config() = default;

  /// Parses argv-style "key=value" tokens. Tokens without '=' and keys with
  /// characters outside [A-Za-z0-9_.] (e.g. "--flag=1") are rejected with
  /// std::invalid_argument.
  [[nodiscard]] static Config from_args(std::span<const char* const> args);

  void set(std::string key, std::string value);

  /// Throws std::invalid_argument listing every key not in `allowed` (and
  /// the allowed set), so callers reject misspelled knobs instead of
  /// silently ignoring them.
  void require_known(std::span<const std::string_view> allowed) const;

  /// Typed getters: return the parsed value, or `fallback` when the key is
  /// absent. Throw std::invalid_argument when present but unparsable.
  [[nodiscard]] std::string get_string(const std::string& key, std::string fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  /// A count is a whole number >= 0 that fits std::size_t: "-1", "1.5"
  /// and out-of-range values are unparsable.
  [[nodiscard]] std::size_t get_count(const std::string& key, std::size_t fallback) const;

  [[nodiscard]] const std::map<std::string, std::string>& entries() const noexcept {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace dcs
