// LayerSample decomposition and the overhead calibrator (§4.2.2).
#include <gtest/gtest.h>

#include "core/calibration.hpp"
#include "core/layer_sample.hpp"
#include "stats/summary.hpp"
#include "testbed/experiment.hpp"

namespace acute::core {
namespace {

using namespace acute::sim::literals;
using net::Packet;
using sim::Duration;
using sim::TimePoint;

Packet stamped_response(double du_ms, double dk_ms, double dn_ms) {
  // Construct a response whose stamps produce exactly the requested RTTs.
  Packet request = Packet::make(net::PacketType::tcp_syn, net::Protocol::tcp,
                                1, 4, 60);
  auto& tx = request.stamps;
  tx.app_send = TimePoint::epoch();
  tx.kernel_send = TimePoint::epoch() + Duration::millis((du_ms - dk_ms) / 2);
  tx.driver_xmit_entry = *tx.kernel_send + Duration::millis(0.05);
  tx.driver_txpkt = *tx.driver_xmit_entry + Duration::millis(0.2);
  tx.air = TimePoint::epoch() + Duration::millis((du_ms - dn_ms) / 2);

  Packet response =
      Packet::make_response(request, net::PacketType::tcp_syn_ack, 60);
  auto& rx = response.stamps;
  rx.air = *tx.air + Duration::millis(dn_ms);
  rx.driver_isr = *rx.air + Duration::millis(0.05);
  rx.driver_rxf_enqueue = *rx.driver_isr + Duration::millis(1.5);
  rx.kernel_recv = *tx.kernel_send + Duration::millis(dk_ms);
  rx.app_recv = TimePoint::epoch() + Duration::millis(du_ms);
  response.probe_id = 7;
  return response;
}

TEST(LayerSample, DecomposesStampsIntoPaperQuantities) {
  const Packet response = stamped_response(33.0, 32.5, 31.0);
  const auto sample = LayerSample::from_response(response);
  ASSERT_TRUE(sample.has_value());
  EXPECT_NEAR(sample->du_ms, 33.0, 1e-9);
  EXPECT_NEAR(sample->dk_ms, 32.5, 1e-9);
  EXPECT_NEAR(sample->dn_ms, 31.0, 1e-9);
  EXPECT_NEAR(sample->du_k(), 0.5, 1e-9);
  EXPECT_NEAR(sample->dk_n(), 1.5, 1e-9);
  EXPECT_NEAR(sample->total_overhead(), 2.0, 1e-9);
  EXPECT_NEAR(sample->dvsend_ms, 0.2, 1e-9);
  EXPECT_NEAR(sample->dvrecv_ms, 1.5, 1e-9);
  EXPECT_EQ(sample->probe_id, 7u);
}

TEST(LayerSample, ReportedDuOverridesStamps) {
  const Packet response = stamped_response(33.0, 32.5, 31.0);
  const auto sample = LayerSample::from_response(response, 33.0 /* floor */);
  ASSERT_TRUE(sample.has_value());
  EXPECT_DOUBLE_EQ(sample->du_ms, 33.0);
}

TEST(LayerSample, MissingStampsYieldNullopt) {
  Packet response = stamped_response(33.0, 32.5, 31.0);
  response.stamps.kernel_recv.reset();
  EXPECT_FALSE(LayerSample::from_response(response).has_value());

  Packet no_request = Packet::make(net::PacketType::tcp_syn_ack,
                                   net::Protocol::tcp, 4, 1, 60);
  EXPECT_FALSE(LayerSample::from_response(no_request).has_value());
}

TEST(LayerSample, ExtractPullsFieldsAndDerived) {
  std::vector<LayerSample> samples;
  for (double overhead : {1.0, 2.0, 3.0}) {
    const auto sample =
        LayerSample::from_response(stamped_response(30.0 + overhead, 30.5,
                                                    30.0));
    samples.push_back(*sample);
  }
  const auto du = extract(samples, &LayerSample::du_ms);
  EXPECT_EQ(du.size(), 3u);
  EXPECT_DOUBLE_EQ(du[0], 31.0);
  const auto overheads = extract(samples, &LayerSample::total_overhead);
  EXPECT_DOUBLE_EQ(overheads[2], 3.0);
}

TEST(Calibrator, LearnsMedianOverhead) {
  std::vector<LayerSample> samples;
  for (double overhead : {1.8, 2.0, 2.2, 2.1, 1.9}) {
    samples.push_back(*LayerSample::from_response(
        stamped_response(30.0 + overhead, 30.2, 30.0)));
  }
  const auto calibration = OverheadCalibrator::learn(samples);
  EXPECT_NEAR(calibration.median_overhead_ms, 2.0, 1e-9);
  EXPECT_EQ(calibration.sample_count, 5u);
  EXPECT_NEAR(calibration.apply(35.0), 33.0, 1e-9);
  EXPECT_GT(calibration.iqr_ms(), 0.0);
  EXPECT_LT(calibration.iqr_ms(), 0.5);
}

TEST(Calibrator, CorrectBatch) {
  CalibrationResult calibration;
  calibration.median_overhead_ms = 2.5;
  const auto corrected =
      OverheadCalibrator::correct(calibration, {10.0, 20.0});
  EXPECT_EQ(corrected, (std::vector<double>{7.5, 17.5}));
}

TEST(Calibrator, RequiresSamples) {
  EXPECT_THROW((void)OverheadCalibrator::learn({}), sim::ContractViolation);
}

TEST(Calibrator, EndToEndCalibrationRecoversEmulatedRtt) {
  // Learn the overhead on a short path, then correct a long-path run:
  // calibrated user-level RTTs land within ~1 ms of the emulated value.
  testbed::ScenarioSpec learn_spec;
  learn_spec.phones.front().workload = {.tool = tools::ToolKind::acutemon,
                                        .probe_count = 60};
  learn_spec.emulated_rtt = 20_ms;
  const auto learn_run = testbed::Experiment::run(learn_spec);
  const auto calibration = OverheadCalibrator::learn(learn_run.samples);

  testbed::ScenarioSpec apply_spec = learn_spec;
  apply_spec.emulated_rtt = 135_ms;
  apply_spec.seed = 99;
  const auto apply_run = testbed::Experiment::run(apply_spec);

  const auto corrected = OverheadCalibrator::correct(
      calibration, apply_run.run.reported_rtts_ms());
  const double median = stats::Summary(corrected).median();
  // The *true* network RTT on this path (emulated + testbed fabric).
  const double dn_median =
      stats::Summary(apply_run.values(&LayerSample::dn_ms)).median();
  EXPECT_NEAR(median, dn_median, 1.0);
}

}  // namespace
}  // namespace acute::core
