// Number formatting for the JSON exporters (metrics, timeseries, run
// reports, network-state traces).
//
// AppendG17 writes exactly the bytes `printf("%.17g")` writes (17
// significant digits round-trip every double) through std::to_chars,
// which skips the locale and format-string work of printf. NaN and the
// infinities come out as "nan", "-nan", "inf" and "-inf", again as
// printf spells them; they are not JSON, so each caller decides before
// calling whether to write null instead.
// number_format_test pins the byte identity.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>

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

}  // namespace leosim::obs
