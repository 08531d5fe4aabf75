#include "support/format.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace plurality {

std::string format_sig(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::string format_fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string format_count(std::uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i + 3 - lead) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string format_si(double v) {
  static constexpr std::array<const char*, 5> kSuffix = {"", "k", "M", "G", "T"};
  double mag = std::fabs(v);
  std::size_t idx = 0;
  while (mag >= 1000.0 && idx + 1 < kSuffix.size()) {
    mag /= 1000.0;
    v /= 1000.0;
    ++idx;
  }
  char buf[64];
  if (idx == 0 && v == std::floor(v)) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.3g%s", v, kSuffix[idx]);
  }
  return buf;
}

std::string format_duration(double seconds) {
  char buf[64];
  if (seconds < 0) return format_duration(-seconds).insert(0, 1, '-');
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.0fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.0fms", seconds * 1e3);
  } else if (seconds < 120.0) {
    std::snprintf(buf, sizeof buf, "%.1fs", seconds);
  } else {
    int minutes = static_cast<int>(seconds / 60.0);
    std::snprintf(buf, sizeof buf, "%dm%02.0fs", minutes, seconds - 60.0 * minutes);
  }
  return buf;
}

std::string format_percent(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string pad_left(const std::string& s, std::size_t w) {
  if (s.size() >= w) return s;
  return std::string(w - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t w) {
  if (s.size() >= w) return s;
  return s + std::string(w - s.size(), ' ');
}

}  // namespace plurality
