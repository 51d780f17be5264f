// ASCII case-insensitive matching for the enum-name parsers.
#pragma once

#include <cctype>
#include <string_view>

namespace lcrb {

/// True when `a` and `b` are equal ignoring ASCII case: "OPOAO", "opoao"
/// and "OpOaO" name the same model.
inline bool iequals_ascii(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace lcrb
