#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <stdexcept>

#include "util/check.h"

namespace dcs {

Config Config::from_args(std::span<const char* const> args) {
  Config cfg;
  for (const char* arg : args) {
    std::string_view sv{arg};
    const std::size_t eq = sv.find('=');
    DCS_REQUIRE(eq != std::string_view::npos && eq > 0,
                "argument '" + std::string(sv) + "' is not key=value");
    const std::string_view key = sv.substr(0, eq);
    const bool well_formed =
        std::all_of(key.begin(), key.end(), [](unsigned char c) {
          return std::isalnum(c) || c == '_' || c == '.';
        });
    if (!well_formed) {
      throw std::invalid_argument("argument '" + std::string(sv) +
                                  "' has a malformed key '" + std::string(key) +
                                  "' (keys are [A-Za-z0-9_.]+)");
    }
    cfg.set(std::string{key}, std::string{sv.substr(eq + 1)});
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

void Config::require_known(std::span<const std::string_view> allowed) const {
  std::string unknown;
  for (const auto& [key, value] : entries_) {
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end()) {
      continue;
    }
    unknown += unknown.empty() ? "'" : ", '";
    unknown += key + "'";
  }
  if (unknown.empty()) return;
  std::string known;
  for (const std::string_view key : allowed) {
    known += known.empty() ? "'" : ", '";
    known += std::string(key) + "'";
  }
  throw std::invalid_argument("unknown config key(s) " + unknown +
                              "; known keys: " + known);
}

std::string Config::get_string(const std::string& key, std::string fallback) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? std::move(fallback) : it->second;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double v = std::stod(it->second, &consumed);
    DCS_REQUIRE(consumed == it->second.size(), "trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + key + "' is not a number: '" +
                                it->second + "'");
  }
}

std::size_t Config::get_count(const std::string& key, std::size_t fallback) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  std::size_t v = 0;
  const auto* first = it->second.data();
  const auto* last = first + it->second.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) {
    throw std::invalid_argument("config key '" + key + "' is not a count: '" +
                                it->second + "'");
  }
  return v;
}

}  // namespace dcs
