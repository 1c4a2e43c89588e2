#include "sim/time.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

namespace acute::sim {

Duration Duration::micros(double us) {
  return Duration{static_cast<std::int64_t>(std::llround(us * 1e3))};
}

Duration Duration::millis(double ms) {
  return Duration{static_cast<std::int64_t>(std::llround(ms * 1e6))};
}

Duration Duration::seconds(double s) {
  return Duration{static_cast<std::int64_t>(std::llround(s * 1e9))};
}

std::string Duration::to_string() const {
  std::ostringstream os;
  const std::int64_t abs_ns = ns_ < 0 ? -ns_ : ns_;
  if (abs_ns < 1'000) {
    os << ns_ << "ns";
  } else if (abs_ns < 1'000'000) {
    os << to_us() << "us";
  } else if (abs_ns < 1'000'000'000) {
    os << to_ms() << "ms";
  } else {
    os << to_seconds() << "s";
  }
  return os.str();
}

std::string TimePoint::to_string() const {
  std::ostringstream os;
  os << to_seconds() << "s";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, Duration d) {
  return os << d.to_string();
}

std::ostream& operator<<(std::ostream& os, TimePoint t) {
  return os << t.to_string();
}

std::ostream& operator<<(std::ostream& os, OptionalTimePoint t) {
  return t ? os << *t : os << "unset";
}

}  // namespace acute::sim
