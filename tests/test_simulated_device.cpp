#include "device/simulated_device.h"

#include <gtest/gtest.h>

#include "apps/app_profiles.h"
#include "harness/experiment.h"

namespace ccdem::device {
namespace {

harness::ExperimentConfig experiment(const char* app, ControlMode mode,
                                     std::uint64_t seed) {
  harness::ExperimentConfig c;
  c.app = apps::app_by_name(app);
  c.duration = sim::seconds(5);
  c.seed = seed;
  c.mode = mode;
  return c;
}

TEST(SimulatedDevice, ControllerFollowsMode) {
  SimulatedDevice dev;

  DeviceConfig dc;
  dc.mode = ControlMode::kBaseline60;
  dev.configure(dc);
  dev.install_app(apps::app_by_name("Facebook"));
  dev.start_control();
  EXPECT_EQ(dev.dpm(), nullptr);
  EXPECT_EQ(dev.governor(), nullptr);

  dc.mode = ControlMode::kSectionWithBoost;
  dev.configure(dc);
  dev.install_app(apps::app_by_name("Facebook"));
  dev.start_control();
  ASSERT_NE(dev.dpm(), nullptr);
  EXPECT_EQ(dev.governor(), nullptr);

  dc.mode = ControlMode::kE3FrameRate;
  dev.configure(dc);
  dev.install_app(apps::app_by_name("Facebook"));
  dev.start_control();
  EXPECT_EQ(dev.dpm(), nullptr);
  EXPECT_NE(dev.governor(), nullptr);
}

TEST(SimulatedDevice, MeterAttachesLazilyOnFirstRun) {
  SimulatedDevice dev;
  dev.configure(DeviceConfig{});
  dev.install_app(apps::app_by_name("Facebook"));
  dev.start_control();
  EXPECT_EQ(dev.meter(), nullptr);
  dev.run_for(sim::seconds(1));
  ASSERT_NE(dev.meter(), nullptr);
  EXPECT_GT(dev.meter()->mean_power_mw(), 0.0);
}

TEST(SimulatedDevice, PanelStartsAtModeRate) {
  SimulatedDevice dev;
  DeviceConfig dc;
  dc.mode = ControlMode::kBaseline60;
  dc.baseline_hz = 40;
  dev.configure(dc);
  EXPECT_EQ(dev.panel().refresh_hz(), 40);

  dc.mode = ControlMode::kSection;
  dev.configure(dc);
  EXPECT_EQ(dev.panel().refresh_hz(), dc.rates.max_hz());
}

TEST(SimulatedDevice, FocusAppSwitchesForeground) {
  SimulatedDevice dev;
  dev.configure(DeviceConfig{});
  dev.start_control();
  dev.install_app(apps::app_by_name("Facebook"), 100, /*foreground=*/false);
  dev.install_app(apps::app_by_name("Naver"), 101, /*foreground=*/false);
  EXPECT_FALSE(dev.app(0).foreground());
  EXPECT_FALSE(dev.app(1).foreground());

  dev.focus_app(0);
  EXPECT_TRUE(dev.app(0).foreground());
  EXPECT_FALSE(dev.app(1).foreground());

  dev.focus_app(1);
  EXPECT_FALSE(dev.app(0).foreground());
  EXPECT_TRUE(dev.app(1).foreground());
}

// The reuse contract: a reconfigured device replays a config bit-identically
// -- pooled storage carries over, but its contents never do.
TEST(SimulatedDevice, ReconfiguredDeviceReplaysIdentically) {
  const harness::ExperimentConfig config =
      experiment("Jelly Splash", ControlMode::kSectionWithBoost, 11);

  SimulatedDevice dev(/*use_buffer_pool=*/true);
  const harness::ExperimentResult first =
      harness::run_experiment_on(dev, config);
  const harness::ExperimentResult second =
      harness::run_experiment_on(dev, config);

  EXPECT_DOUBLE_EQ(first.mean_power_mw, second.mean_power_mw);
  EXPECT_DOUBLE_EQ(first.mean_refresh_hz, second.mean_refresh_hz);
  EXPECT_EQ(first.frames_composed, second.frames_composed);
  EXPECT_EQ(first.content_frames, second.content_frames);
  EXPECT_EQ(first.frames_posted, second.frames_posted);
  EXPECT_EQ(first.touch_events, second.touch_events);
  EXPECT_EQ(first.rate_switches, second.rate_switches);
}

TEST(SimulatedDevice, PooledRunsMatchFreshDevice) {
  const harness::ExperimentConfig config =
      experiment("Facebook", ControlMode::kSection, 3);

  SimulatedDevice pooled(/*use_buffer_pool=*/true);
  // Warm the pool with a different workload first, so the measured run
  // really executes on recycled storage.
  (void)harness::run_experiment_on(
      pooled, experiment("Cookie Run", ControlMode::kBaseline60, 9));
  const harness::ExperimentResult reused =
      harness::run_experiment_on(pooled, config);
  const harness::ExperimentResult fresh = harness::run_experiment(config);

  EXPECT_DOUBLE_EQ(reused.mean_power_mw, fresh.mean_power_mw);
  EXPECT_DOUBLE_EQ(reused.mean_refresh_hz, fresh.mean_refresh_hz);
  EXPECT_EQ(reused.frames_composed, fresh.frames_composed);
  EXPECT_EQ(reused.content_frames, fresh.content_frames);
  EXPECT_EQ(reused.frames_posted, fresh.frames_posted);
  EXPECT_EQ(reused.meter_error_rate, fresh.meter_error_rate);
}

TEST(SimulatedDevice, BufferPoolRecyclesAcrossConfigures) {
  SimulatedDevice dev(/*use_buffer_pool=*/true);
  ASSERT_NE(dev.buffer_pool(), nullptr);

  (void)harness::run_experiment_on(
      dev, experiment("Facebook", ControlMode::kSectionWithBoost, 1));
  const std::uint64_t after_first = dev.buffer_pool()->reuses();

  (void)harness::run_experiment_on(
      dev, experiment("Facebook", ControlMode::kSectionWithBoost, 2));
  // The second assembly's swapchain, surface and meter snapshots all come
  // out of the pool the first run released into.
  EXPECT_GT(dev.buffer_pool()->reuses(), after_first);
  EXPECT_GT(dev.buffer_pool()->reuses(), 0u);
}

TEST(SimulatedDevice, NoPoolByDefault) {
  SimulatedDevice dev;
  EXPECT_EQ(dev.buffer_pool(), nullptr);
}

// The fault plane redelivers a late touch with its original timestamp.  Its
// energy is charged when the device handles it, so the power model only
// ever integrates forward (it asserts that it does, in builds with asserts
// on).
TEST(SimulatedDevice, DelayedTouchesChargeEnergyWhenDelivered) {
  harness::ExperimentConfig c =
      experiment("Jelly Splash", ControlMode::kSectionWithBoost, 7);
  c.duration = sim::seconds(20);
  c.fault.touch_delay_p = 1.0;
  const harness::ExperimentResult r = harness::run_experiment(c);
  ASSERT_GT(r.touch_events, 0u);
  EXPECT_NEAR(r.energy.touch_mj,
              static_cast<double>(r.touch_events) * c.power.touch_event_mj,
              1e-9 * r.energy.touch_mj);
  EXPECT_GT(r.mean_power_mw, 0.0);
}

}  // namespace
}  // namespace ccdem::device
