/// \file json.hpp
/// \brief The one JSON string escaper, shared by every JSON writer in the
/// library (flow reports, obs exports, the server protocol, bench rows).

#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace mcs {

/// Appends \p s to \p out with JSON string escaping (quotes not included).
/// `"` and `\` are backslash-escaped, `\n` `\r` `\t` use their short
/// forms, and every other byte below 0x20 becomes `\u00XX`, so any byte
/// sequence round-trips through a single JSON line.
inline void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
        break;
    }
  }
}

/// \p s as a quoted, escaped JSON string literal.
inline std::string json_quote(std::string_view s) {
  std::string out = "\"";
  append_json_escaped(out, s);
  out += '"';
  return out;
}

}  // namespace mcs
