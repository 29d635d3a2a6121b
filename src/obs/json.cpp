#include "obs/json.hpp"

#include <cstdio>

namespace leosim::obs {

bool WriteFile(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool written = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  return written && closed;
}

}  // namespace leosim::obs
