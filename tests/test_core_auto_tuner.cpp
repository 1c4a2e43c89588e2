// AutoTuner: safe (dpre, db) derivation from inferred timeouts — the
// paper's §4.1 future work — including a handset where the paper's
// empirical defaults would fail.
#include <gtest/gtest.h>

#include "core/auto_tuner.hpp"
#include "stats/summary.hpp"
#include "testbed/testbed.hpp"

namespace acute::core {
namespace {

using namespace acute::sim::literals;
using sim::Duration;

TEST(AutoTuner, KeepsPaperDefaultWhenSafe) {
  // Nexus 5-like: Tis = 50 ms, Tip = 205 ms; 20 ms is comfortably safe.
  const auto tuned = AutoTuner::tune(50_ms, 205_ms);
  EXPECT_TRUE(tuned.feasible);
  EXPECT_EQ(tuned.background_interval, 20_ms);
  EXPECT_EQ(tuned.warmup_lead, 20_ms);
  EXPECT_EQ(tuned.binding_timeout, 50_ms);
}

TEST(AutoTuner, TightensCadenceForAggressiveTimeouts) {
  // Hypothetical firmware with Tip = 25 ms: 20 ms leaves no slack against
  // the 10 ms quantization, so the tuner must go faster.
  const auto tuned = AutoTuner::tune(50_ms, 25_ms);
  EXPECT_TRUE(tuned.feasible);
  EXPECT_LT(tuned.background_interval, 20_ms);
  EXPECT_LT(tuned.background_interval + 10_ms, 25_ms);
  EXPECT_GE(tuned.background_interval, 4_ms);
}

TEST(AutoTuner, WarmupExceedsPromotionWhenBudgetAllows) {
  const auto tuned = AutoTuner::tune(50_ms, 205_ms);
  // dpre must exceed the worst-case bus promotion (~14 ms).
  EXPECT_GT(tuned.warmup_lead, 14_ms);
  EXPECT_LT(tuned.warmup_lead, 40_ms);  // and stay below min(Tis, Tip)
}

TEST(AutoTuner, InfeasibleWhenTimeoutBelowFloor) {
  const auto tuned = AutoTuner::tune(50_ms, 12_ms);
  // 12 ms - 10 ms slack leaves 2 ms < the 4 ms cadence floor.
  EXPECT_FALSE(tuned.feasible);
}

TEST(AutoTuner, RequiresPositiveTimeouts) {
  EXPECT_THROW((void)AutoTuner::tune(Duration{}, 100_ms),
               sim::ContractViolation);
}

TEST(AutoTuner, ApplyWritesOptions) {
  TunedParameters tuned;
  tuned.warmup_lead = 17_ms;
  tuned.background_interval = 9_ms;
  const auto options = AutoTuner::apply(tuned);
  EXPECT_EQ(options.warmup_lead, 17_ms);
  EXPECT_EQ(options.background_interval, 9_ms);
  EXPECT_TRUE(options.background_enabled);
}

TEST(AutoTuner, TunedParametersHoldAnAggressivePhoneAwake) {
  // A synthetic handset whose Tip (16 ms) breaks the paper's 20 ms default:
  // with db = 20 ms the station dozes between keep-alives; with the tuned
  // cadence it never does.
  phone::PhoneProfile aggressive = phone::PhoneProfile::nexus4();
  aggressive.name = "Hypothetical AggressivePhone";
  aggressive.psm_timeout = 16_ms;

  const auto run_with = [&](AcuteMon::Options options) {
    testbed::ScenarioSpec scenario;
    scenario.phones.front().profile = aggressive;
    scenario.emulated_rtt = 85_ms;
    testbed::Testbed testbed(scenario);
    testbed.settle(800_ms);
    tools::MeasurementTool::Config mt;
    mt.probe_count = 40;
    mt.timeout = 1_s;
    mt.target = testbed::Testbed::kPhoneId == 1 ? testbed::Testbed::kServerId
                                                : testbed::Testbed::kServerId;
    AcuteMon monitor(testbed.phone(), mt, options);
    const auto dozes_before = testbed.phone().station().doze_count();
    // Sample the counter the instant the measurement completes: dozes
    // after the keep-alives stop are expected and irrelevant.
    std::uint64_t dozes_at_finish = 0;
    monitor.start([&](const tools::ToolRun&) {
      dozes_at_finish = testbed.phone().station().doze_count();
    });
    testbed.run_until_finished(monitor);
    return dozes_at_finish - dozes_before;
  };

  const auto default_dozes = run_with(AcuteMon::Options{});
  EXPECT_GT(default_dozes, 0u);  // the paper's empirical value fails here

  const auto tuned = AutoTuner::tune(50_ms, aggressive.psm_timeout);
  ASSERT_TRUE(tuned.feasible);
  const auto tuned_dozes = run_with(AutoTuner::apply(tuned));
  EXPECT_EQ(tuned_dozes, 0u);
}

}  // namespace
}  // namespace acute::core
