// Simulation time primitives.
//
// The whole library measures time as signed 64-bit nanosecond counts, which
// gives ~292 years of range — far beyond any simulated experiment — with no
// floating-point drift. Duration is a span; TimePoint is an offset from the
// simulation epoch (t = 0 when the Simulator is constructed).
#pragma once

#include <compare>
#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>

namespace acute::sim {

/// A span of simulated time, in integer nanoseconds.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration nanos(std::int64_t n) {
    return Duration{n};
  }
  // The unit factories take any integral count, or a floating-point count
  // that is rounded to the nearest nanosecond — millis(10) and millis(1.5)
  // are both canonical; there is no separate from_ms() family. (The
  // integral overloads are constrained templates so that e.g. `int`
  // arguments bind to them exactly instead of tying with `double`.)
  [[nodiscard]] static constexpr Duration micros(std::integral auto us) {
    return Duration{static_cast<std::int64_t>(us) * 1'000};
  }
  [[nodiscard]] static constexpr Duration millis(std::integral auto ms) {
    return Duration{static_cast<std::int64_t>(ms) * 1'000'000};
  }
  [[nodiscard]] static constexpr Duration seconds(std::integral auto s) {
    return Duration{static_cast<std::int64_t>(s) * 1'000'000'000};
  }
  [[nodiscard]] static Duration micros(double us);
  [[nodiscard]] static Duration millis(double ms);
  [[nodiscard]] static Duration seconds(double s);

  [[nodiscard]] constexpr std::int64_t count_nanos() const { return ns_; }
  [[nodiscard]] constexpr double to_ms() const { return double(ns_) / 1e6; }
  [[nodiscard]] constexpr double to_us() const { return double(ns_) / 1e3; }
  [[nodiscard]] constexpr double to_seconds() const {
    return double(ns_) / 1e9;
  }

  [[nodiscard]] constexpr bool is_zero() const { return ns_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return ns_ < 0; }

  constexpr Duration operator+(Duration other) const {
    return Duration{ns_ + other.ns_};
  }
  constexpr Duration operator-(Duration other) const {
    return Duration{ns_ - other.ns_};
  }
  constexpr Duration operator-() const { return Duration{-ns_}; }
  constexpr Duration operator*(std::int64_t k) const {
    return Duration{ns_ * k};
  }
  constexpr Duration operator/(std::int64_t k) const {
    return Duration{ns_ / k};
  }
  /// Ratio between two durations (e.g. to count watchdog ticks in a span).
  [[nodiscard]] constexpr std::int64_t divided_by(Duration other) const {
    return ns_ / other.ns_;
  }
  constexpr Duration& operator+=(Duration other) {
    ns_ += other.ns_;
    return *this;
  }
  constexpr Duration& operator-=(Duration other) {
    ns_ -= other.ns_;
    return *this;
  }

  constexpr auto operator<=>(const Duration&) const = default;

  /// Human-readable rendering with an adaptive unit, e.g. "12.345ms".
  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// An instant in simulated time (nanoseconds since the simulation epoch).
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint epoch() { return TimePoint{}; }
  [[nodiscard]] static constexpr TimePoint from_nanos(std::int64_t ns) {
    return TimePoint{ns};
  }

  [[nodiscard]] constexpr std::int64_t count_nanos() const { return ns_; }
  [[nodiscard]] constexpr double to_ms() const { return double(ns_) / 1e6; }
  [[nodiscard]] constexpr double to_seconds() const {
    return double(ns_) / 1e9;
  }

  constexpr TimePoint operator+(Duration d) const {
    return TimePoint{ns_ + d.count_nanos()};
  }
  constexpr TimePoint operator-(Duration d) const {
    return TimePoint{ns_ - d.count_nanos()};
  }
  constexpr Duration operator-(TimePoint other) const {
    return Duration::nanos(ns_ - other.ns_);
  }
  constexpr TimePoint& operator+=(Duration d) {
    ns_ += d.count_nanos();
    return *this;
  }

  constexpr auto operator<=>(const TimePoint&) const = default;

  /// Human-readable rendering as seconds, e.g. "1.234500s".
  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit TimePoint(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// An instant that may be unset, in the 8 bytes of a TimePoint:
/// TimePoint::from_nanos(INT64_MIN), ~292 years before the epoch and so
/// never a simulated instant, means "unset".
/// It offers the std::optional<TimePoint> subset that per-layer packet
/// stamps use, at half of std::optional's 16 bytes and trivially copyable,
/// so every Packet move through a scheduled event stays cheap.
class OptionalTimePoint {
 public:
  constexpr OptionalTimePoint() = default;
  // Implicit, as std::optional's: `stamps.air = now` and `= std::nullopt`.
  constexpr OptionalTimePoint(std::nullopt_t) {}
  constexpr OptionalTimePoint(TimePoint t) : t_(t) {}

  [[nodiscard]] constexpr bool has_value() const { return t_ != kUnset; }
  constexpr explicit operator bool() const { return has_value(); }

  /// The instant; unchecked, like std::optional's operator*.
  [[nodiscard]] constexpr const TimePoint& operator*() const { return t_; }
  [[nodiscard]] constexpr const TimePoint* operator->() const { return &t_; }
  /// The instant; throws std::bad_optional_access when unset.
  [[nodiscard]] constexpr const TimePoint& value() const {
    if (!has_value()) throw std::bad_optional_access{};
    return t_;
  }

  constexpr void reset() { t_ = kUnset; }

  /// Unset equals unset; set values compare by instant.
  constexpr bool operator==(const OptionalTimePoint&) const = default;
  constexpr bool operator==(TimePoint t) const {
    return has_value() && t_ == t;
  }

 private:
  static constexpr TimePoint kUnset =
      TimePoint::from_nanos(std::numeric_limits<std::int64_t>::min());
  TimePoint t_ = kUnset;
};

std::ostream& operator<<(std::ostream& os, Duration d);
std::ostream& operator<<(std::ostream& os, TimePoint t);
/// Prints the instant, or "unset".
std::ostream& operator<<(std::ostream& os, OptionalTimePoint t);

namespace literals {
constexpr Duration operator""_ns(unsigned long long n) {
  return Duration::nanos(static_cast<std::int64_t>(n));
}
constexpr Duration operator""_us(unsigned long long n) {
  return Duration::micros(static_cast<std::int64_t>(n));
}
constexpr Duration operator""_ms(unsigned long long n) {
  return Duration::millis(static_cast<std::int64_t>(n));
}
constexpr Duration operator""_s(unsigned long long n) {
  return Duration::seconds(static_cast<std::int64_t>(n));
}
}  // namespace literals

}  // namespace acute::sim
