// The one JSON encoder and file writer behind every exported artifact
// (metrics, timeseries, Chrome trace, collapsed profile, network-state
// traces, bench records).
//
// AppendG17 writes exactly the bytes `printf("%.17g")` writes (17
// significant digits round-trip every double) through std::to_chars,
// which skips the locale and format-string work of printf. NaN and the
// infinities come out as "nan", "-nan", "inf" and "-inf", again as
// printf spells them; AppendJsonNumber is the JSON form, writing them as
// null. number_format_test pins the byte identity.
//
// The encoders stay header-inline so the network-state trace's encode
// loop inlines them.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace leosim::obs {

inline void AppendG17(std::string* out, double value) {
  char buf[32];  // "-1.2345678901234567e-308" is the longest: 24 chars
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  out->append(buf, r.ptr);
}

inline void AppendInt(std::string* out, int64_t value) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

inline void AppendUint(std::string* out, uint64_t value) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

// A finite value as AppendG17 writes it; NaN and the infinities are not
// JSON and become null, so one bad value cannot invalidate a whole file.
inline void AppendJsonNumber(std::string* out, double value) {
  if (!(value >= -std::numeric_limits<double>::max() &&
        value <= std::numeric_limits<double>::max())) {
    out->append("null");
    return;
  }
  AppendG17(out, value);
}

// `text` as a quoted JSON string: '"', '\\' and the control characters
// are escaped (\n, \t and \r by name, the rest as \u00XX); every other
// byte passes through, so UTF-8 stays UTF-8.
inline void AppendJsonString(std::string* out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char escaped[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xf],
                                  kHex[c & 0xf]};
          out->append(escaped, sizeof(escaped));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// Writes `bytes` to `path`, replacing the file. False when the file
// cannot be opened, written or closed: a full device often first reports
// its error when fclose flushes the buffer.
bool WriteFile(const std::string& path, std::string_view bytes);

}  // namespace leosim::obs
