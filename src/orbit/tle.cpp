#include "orbit/tle.hpp"

#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "geo/angles.hpp"
#include "geo/coordinates.hpp"
#include "orbit/elements.hpp"

namespace leosim::orbit {

namespace {

constexpr double kMaxCircularEccentricity = 0.05;

// Extracts the 1-indexed column range [first, last] as a trimmed string.
std::string Field(const std::string& line, int first, int last) {
  if (static_cast<int>(line.size()) < last) {
    throw std::invalid_argument("TLE line too short");
  }
  std::string s = line.substr(static_cast<size_t>(first - 1),
                              static_cast<size_t>(last - first + 1));
  const auto begin = s.find_first_not_of(' ');
  const auto end = s.find_last_not_of(' ');
  if (begin == std::string::npos) {
    return "";
  }
  return s.substr(begin, end - begin + 1);
}

// Parses a finite number: std::stod also reads "nan" and "inf".
double ParseDouble(const std::string& line, int first, int last, const char* what) {
  const std::string s = Field(line, first, last);
  try {
    size_t consumed = 0;
    const double v = std::stod(s, &consumed);
    if (consumed != s.size() || !std::isfinite(v)) {
      throw std::invalid_argument(what);
    }
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("malformed TLE field: ") + what);
  }
}

// A whole number that fits the field's digits, so the cast is defined
// ("1e100" fits a 5-column field as text).
int ParseInt(const std::string& line, int first, int last, const char* what) {
  const double v = ParseDouble(line, first, last, what);
  if (v != std::floor(v) || v < 0.0 || v >= std::pow(10.0, last - first + 1)) {
    throw std::invalid_argument(std::string("out-of-range TLE field: ") + what);
  }
  return static_cast<int>(v);
}

void CheckLine(const std::string& line, char expected_tag) {
  if (line.size() < 69) {
    throw std::invalid_argument("TLE line shorter than 69 characters");
  }
  if (line[0] != expected_tag) {
    throw std::invalid_argument("TLE line has wrong leading tag");
  }
  const int expected = line[68] - '0';
  if (TleChecksum(line) != expected) {
    throw std::invalid_argument("TLE checksum mismatch");
  }
}

}  // namespace

double Tle::AltitudeKm() const {
  const double n_rad_s = mean_motion_rev_per_day * 2.0 * geo::kPi / 86400.0;
  const double a = std::cbrt(kMuEarthKm3PerSec2 / (n_rad_s * n_rad_s));
  return a - geo::kEarthRadiusKm;
}

CircularOrbitElements Tle::ToCircularElements() const {
  CircularOrbitElements elements;
  elements.altitude_km = AltitudeKm();
  elements.inclination_deg = inclination_deg;
  elements.raan_deg = raan_deg;
  elements.arg_latitude_epoch_deg =
      std::fmod(arg_perigee_deg + mean_anomaly_deg, 360.0);
  return elements;
}

int TleChecksum(const std::string& line) {
  int sum = 0;
  const size_t limit = std::min<size_t>(line.size(), 68);
  for (size_t i = 0; i < limit; ++i) {
    const char c = line[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      sum += c - '0';
    } else if (c == '-') {
      sum += 1;
    }
  }
  return sum % 10;
}

Tle ParseTle(const std::string& line1, const std::string& line2,
             const std::string& name) {
  CheckLine(line1, '1');
  CheckLine(line2, '2');

  Tle tle;
  tle.name = name;
  tle.catalog_number = ParseInt(line2, 3, 7, "catalog number");
  const int yy = ParseInt(line1, 19, 20, "epoch year");
  tle.epoch_year = yy < 57 ? 2000 + yy : 1900 + yy;
  tle.epoch_day = ParseDouble(line1, 21, 32, "epoch day");
  tle.inclination_deg = ParseDouble(line2, 9, 16, "inclination");
  tle.raan_deg = ParseDouble(line2, 18, 25, "raan");
  // Eccentricity field has an implied leading decimal point.
  const std::string ecc_field = Field(line2, 27, 33);
  const std::string ecc_str = "0." + ecc_field;
  tle.eccentricity =
      ParseDouble(ecc_str, 1, static_cast<int>(ecc_str.size()), "eccentricity");
  tle.arg_perigee_deg = ParseDouble(line2, 35, 42, "argument of perigee");
  tle.mean_anomaly_deg = ParseDouble(line2, 44, 51, "mean anomaly");
  tle.mean_motion_rev_per_day = ParseDouble(line2, 53, 63, "mean motion");

  const auto in_range = [](double deg, double max) { return deg >= 0.0 && deg <= max; };
  if (!in_range(tle.inclination_deg, 180.0) || !in_range(tle.raan_deg, 360.0) ||
      !in_range(tle.arg_perigee_deg, 360.0) || !in_range(tle.mean_anomaly_deg, 360.0)) {
    throw std::invalid_argument("TLE angle outside [0, 180] or [0, 360] degrees");
  }
  // The field has 8 decimals: a smaller mean motion is no TLE value, and
  // its altitude would overflow.
  if (!(tle.mean_motion_rev_per_day >= 1e-8) || !(tle.AltitudeKm() > 0.0)) {
    throw std::invalid_argument(
        "TLE mean motion must be >= 1e-8 and keep the orbit above the Earth");
  }
  if (tle.eccentricity > kMaxCircularEccentricity) {
    throw std::invalid_argument(
        "TLE eccentricity too large for the circular-orbit model");
  }
  return tle;
}

std::vector<Tle> ParseTleCatalog(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == '\n')) {
      line.pop_back();
    }
    if (!line.empty()) {
      lines.push_back(line);
    }
  }

  std::vector<Tle> tles;
  std::string pending_name;
  for (size_t i = 0; i < lines.size();) {
    if (lines[i][0] == '1' && i + 1 < lines.size() && lines[i + 1][0] == '2') {
      tles.push_back(ParseTle(lines[i], lines[i + 1], pending_name));
      pending_name.clear();
      i += 2;
    } else {
      pending_name = lines[i];
      ++i;
    }
  }
  return tles;
}

Constellation ConstellationFromTles(const std::vector<Tle>& tles) {
  if (tles.empty()) {
    throw std::invalid_argument("empty TLE catalogue");
  }
  std::vector<CircularOrbitElements> elements;
  elements.reserve(tles.size());
  double altitude_sum = 0.0;
  double inclination_sum = 0.0;
  for (const Tle& tle : tles) {
    elements.push_back(tle.ToCircularElements());
    altitude_sum += elements.back().altitude_km;
    inclination_sum += elements.back().inclination_deg;
  }
  OrbitalShell metadata;
  metadata.name = "tle-catalogue";
  metadata.num_planes = 1;
  metadata.sats_per_plane = static_cast<int>(tles.size());
  metadata.altitude_km = altitude_sum / static_cast<double>(tles.size());
  metadata.inclination_deg = inclination_sum / static_cast<double>(tles.size());
  return Constellation::FromElements(metadata, elements);
}

}  // namespace leosim::orbit
