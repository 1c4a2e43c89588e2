#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <type_traits>

#include "sim/time.hpp"

namespace acute::sim {
namespace {

using namespace acute::sim::literals;

TEST(Duration, FactoryUnitsAgree) {
  EXPECT_EQ(Duration::micros(1).count_nanos(), 1'000);
  EXPECT_EQ(Duration::millis(1).count_nanos(), 1'000'000);
  EXPECT_EQ(Duration::seconds(1).count_nanos(), 1'000'000'000);
  EXPECT_EQ(Duration::millis(3), Duration::micros(3'000));
}

TEST(Duration, LiteralsMatchFactories) {
  EXPECT_EQ(5_ns, Duration::nanos(5));
  EXPECT_EQ(5_us, Duration::micros(5));
  EXPECT_EQ(5_ms, Duration::millis(5));
  EXPECT_EQ(5_s, Duration::seconds(5));
}

TEST(Duration, FromMsRoundsToNanos) {
  EXPECT_EQ(Duration::millis(1.5).count_nanos(), 1'500'000);
  EXPECT_EQ(Duration::millis(0.0001).count_nanos(), 100);
  EXPECT_EQ(Duration::micros(2.5).count_nanos(), 2'500);
  EXPECT_EQ(Duration::seconds(0.25).count_nanos(), 250'000'000);
}

TEST(Duration, ConversionRoundTrip) {
  const Duration d = Duration::millis(12.345);
  EXPECT_DOUBLE_EQ(d.to_ms(), 12.345);
  EXPECT_DOUBLE_EQ(d.to_us(), 12'345.0);
  EXPECT_NEAR(d.to_seconds(), 0.012345, 1e-12);
}

TEST(Duration, Arithmetic) {
  EXPECT_EQ(3_ms + 4_ms, 7_ms);
  EXPECT_EQ(10_ms - 4_ms, 6_ms);
  EXPECT_EQ(-(4_ms), Duration::millis(-4));
  EXPECT_EQ(3_ms * 4, 12_ms);
  EXPECT_EQ(12_ms / 4, 3_ms);
  Duration d = 1_ms;
  d += 2_ms;
  EXPECT_EQ(d, 3_ms);
  d -= 1_ms;
  EXPECT_EQ(d, 2_ms);
}

TEST(Duration, DividedByCountsTicks) {
  EXPECT_EQ((55_ms).divided_by(10_ms), 5);
  EXPECT_EQ((50_ms).divided_by(10_ms), 5);
  EXPECT_EQ((49_ms).divided_by(10_ms), 4);
}

TEST(Duration, Comparisons) {
  EXPECT_LT(1_ms, 2_ms);
  EXPECT_GE(2_ms, 2_ms);
  EXPECT_TRUE((0_ms).is_zero());
  EXPECT_TRUE((Duration::millis(-1)).is_negative());
  EXPECT_FALSE((1_ns).is_negative());
}

TEST(Duration, ToStringPicksUnit) {
  EXPECT_EQ(Duration::nanos(12).to_string(), "12ns");
  EXPECT_NE(Duration::micros(12).to_string().find("us"), std::string::npos);
  EXPECT_NE(Duration::millis(12).to_string().find("ms"), std::string::npos);
  EXPECT_NE(Duration::seconds(2).to_string().find("s"), std::string::npos);
}

TEST(TimePoint, EpochAndArithmetic) {
  const TimePoint t0 = TimePoint::epoch();
  EXPECT_EQ(t0.count_nanos(), 0);
  const TimePoint t1 = t0 + 5_ms;
  EXPECT_EQ((t1 - t0), 5_ms);
  EXPECT_EQ((t1 - 2_ms).count_nanos(), 3'000'000);
  TimePoint t = t0;
  t += 7_ms;
  EXPECT_EQ(t.to_ms(), 7.0);
}

TEST(TimePoint, Comparisons) {
  const TimePoint a = TimePoint::from_nanos(10);
  const TimePoint b = TimePoint::from_nanos(20);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, TimePoint::from_nanos(10));
}

TEST(TimePoint, StreamOutput) {
  std::ostringstream os;
  os << (TimePoint::epoch() + 1500_ms) << " " << 250_us;
  EXPECT_EQ(os.str(), "1.5s 250us");
}

static_assert(sizeof(OptionalTimePoint) == sizeof(TimePoint));
static_assert(std::is_trivially_copyable_v<OptionalTimePoint>);

TEST(OptionalTimePoint, DefaultAndNulloptAreUnset) {
  const OptionalTimePoint unset;
  EXPECT_FALSE(unset.has_value());
  EXPECT_FALSE(unset);
  EXPECT_FALSE(OptionalTimePoint(std::nullopt).has_value());
}

TEST(OptionalTimePoint, HoldsAnyInstantIncludingEpochAndNegative) {
  for (const TimePoint t :
       {TimePoint::epoch(), TimePoint::from_nanos(1500),
        TimePoint::from_nanos(-7), TimePoint::epoch() + 3600_s}) {
    const OptionalTimePoint set = t;
    ASSERT_TRUE(set.has_value());
    EXPECT_TRUE(set);
    EXPECT_EQ(*set, t);
    EXPECT_EQ(set.value(), t);
    EXPECT_EQ(set->count_nanos(), t.count_nanos());
  }
}

TEST(OptionalTimePoint, ResetAndNulloptAssignmentUnset) {
  OptionalTimePoint stamp = TimePoint::from_nanos(42);
  stamp.reset();
  EXPECT_FALSE(stamp.has_value());
  stamp = TimePoint::from_nanos(43);
  EXPECT_TRUE(stamp.has_value());
  stamp = std::nullopt;
  EXPECT_FALSE(stamp.has_value());
}

TEST(OptionalTimePoint, ValueThrowsWhenUnset) {
  const OptionalTimePoint unset;
  EXPECT_THROW((void)unset.value(), std::bad_optional_access);
}

TEST(OptionalTimePoint, Equality) {
  const TimePoint t = TimePoint::from_nanos(10);
  const OptionalTimePoint a = t;
  EXPECT_EQ(a, t);
  EXPECT_EQ(t, a);
  EXPECT_EQ(a, OptionalTimePoint(t));
  EXPECT_NE(a, TimePoint::from_nanos(11));
  EXPECT_NE(a, OptionalTimePoint());
  EXPECT_EQ(OptionalTimePoint(), OptionalTimePoint(std::nullopt));
  // Unset never equals an instant, not even the epoch.
  EXPECT_NE(OptionalTimePoint(), TimePoint::epoch());
}

TEST(OptionalTimePoint, StreamOutput) {
  std::ostringstream os;
  os << OptionalTimePoint(TimePoint::epoch() + 1500_ms) << " "
     << OptionalTimePoint();
  EXPECT_EQ(os.str(), "1.5s unset");
}

}  // namespace
}  // namespace acute::sim
