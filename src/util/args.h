// Tiny CLI argument parser for examples and bench binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--flag`. Numeric
// getters parse the whole value: trailing garbage ("5abc") throws. Values can
// also be supplied via environment variables (used by the bench harness for
// LCRB_BENCH_SCALE-style overrides): env wins over default, CLI wins over env.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/error.h"

namespace lcrb {

/// The one integer-to-count conversion of flags and JSON keys: a negative
/// value (which would wrap: -1 samples is 2^64-1) or one past T's range
/// (which would truncate) throws lcrb::Error naming `what`.
template <class T>
T checked_count(std::int64_t x, const std::string& what) {
  if (x < 0) {
    throw Error("options: " + what + " must be non-negative, got " +
                std::to_string(x));
  }
  if (static_cast<std::uint64_t>(x) > std::numeric_limits<T>::max()) {
    throw Error("options: " + what + " must be at most " +
                std::to_string(std::numeric_limits<T>::max()) + ", got " +
                std::to_string(x));
  }
  return static_cast<T>(x);
}

/// The one comma-list parser of flags: "1,2,3" -> {1, 2, 3}, each item
/// through checked_count<T>. An empty, non-numeric, negative or
/// out-of-range item throws lcrb::Error naming `what` (the flag).
template <class T>
std::vector<T> parse_count_list(const std::string& s, const std::string& what) {
  std::vector<T> out;
  std::size_t begin = 0;
  while (begin <= s.size()) {
    std::size_t end = s.find(',', begin);
    if (end == std::string::npos) end = s.size();
    const std::string item = s.substr(begin, end - begin);
    if (item.empty()) {
      throw Error("options: " + what + ": empty item in list '" + s + "'");
    }
    std::int64_t parsed = 0;
    const auto [ptr, ec] =
        std::from_chars(item.data(), item.data() + item.size(), parsed);
    if (ec != std::errc() || ptr != item.data() + item.size()) {
      throw Error("options: " + what + ": bad number '" + item +
                  "' in list '" + s + "'");
    }
    out.push_back(checked_count<T>(parsed, what));
    begin = end + 1;
  }
  return out;
}

class Args {
 public:
  Args(int argc, const char* const* argv);
  explicit Args(const std::vector<std::string>& argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// get_int through checked_count.
  template <class T>
  T get_count(const std::string& name, T def) const {
    return has(name) ? checked_count<T>(get_int(name, 0), "--" + name) : def;
  }
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  /// Like get_double but also consults environment variable `env` when the
  /// flag is absent on the command line.
  double get_double_env(const std::string& name, const std::string& env,
                        double def) const;
  std::int64_t get_int_env(const std::string& name, const std::string& env,
                           std::int64_t def) const;

  /// Positional arguments (anything not starting with --).
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  void parse(const std::vector<std::string>& argv);

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace lcrb
