#pragma once
// Minimal JSON rendering helpers shared by the observability sinks (telemetry
// JSONL, Chrome-trace export) and the benchutil BENCH_*.json writer. Rendering
// only: the library never reads JSON back, so there is no reader here (the
// postmortem tools parse what these helpers write with tools/obs/json_min).

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace apa::obs {

/// Escapes `s` for inclusion inside a JSON string (no surrounding quotes).
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
    }
  }
  return out;
}

/// `s` as a quoted JSON string literal.
inline std::string json_quote(std::string_view s) {
  return "\"" + json_escape(s) + "\"";
}

/// A double as a JSON number; non-finite values (which JSON cannot represent)
/// become null — a diverged loss must not corrupt the whole telemetry line.
inline std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace apa::obs
