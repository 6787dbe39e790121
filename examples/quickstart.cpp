// Quickstart: run one app with and without the proposed system and print
// the power saving and display quality -- the paper's core result in ~40
// lines of API use.
//
//   ./quickstart [app-name] [seconds]
//
// Defaults to Jelly Splash (the paper's poster-child workload) for 30 s.
// An unknown app or a seconds value that is not a positive whole number
// exits with status 2.
#include <iostream>
#include <string>

#include "cli.h"
#include "device/simulated_device.h"
#include "harness/experiment.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  using namespace ccdem;
  constexpr const char* kUsage = "quickstart [app-name] [seconds]";

  examples::check_arg_count(argc, 2, kUsage);
  const std::string app_name = argc > 1 ? argv[1] : "Jelly Splash";
  const int seconds = examples::seconds_arg(argc, argv, 2, 30, kUsage);

  // 1. Pick a workload (one of the paper's 30 commercial apps).
  harness::ExperimentConfig config;
  config.app = examples::app_arg(app_name, kUsage);
  config.duration = sim::seconds(seconds);
  config.seed = 1;

  // 2. Choose the control mode: the full proposed system is section-based
  //    refresh control plus touch boosting.
  config.mode = harness::ControlMode::kSectionWithBoost;

  // The harness sits on the device layer: a DeviceConfig declares the
  // hardware + control mode and SimulatedDevice assembles the whole stack.
  // The same five calls drive every experiment, bench, and test rig:
  //
  //   device::SimulatedDevice dev;
  //   dev.configure(config.device_config());
  //   dev.install_app(config.app);
  //   dev.start_control();
  //   dev.schedule_monkey_script(config.app.monkey, config.duration);
  //   dev.run_until(...); dev.finish();

  // 3. Run the A/B experiment: the same Monkey script is replayed against
  //    the stock fixed-60 Hz device and the controlled device.
  const harness::AbResult ab = harness::run_ab(config);

  std::cout << "App: " << app_name << "  (" << seconds << " s, "
            << ab.baseline.touch_events << " touch events)\n\n";

  harness::TextTable table(
      {"Arm", "Mean power (mW)", "Mean refresh (Hz)", "Content fps"});
  table.add_row({"baseline 60 Hz", harness::fmt(ab.baseline.mean_power_mw),
                 harness::fmt(ab.baseline.mean_refresh_hz),
                 harness::fmt(ab.quality.actual_content_fps)});
  table.add_row({"proposed", harness::fmt(ab.controlled.mean_power_mw),
                 harness::fmt(ab.controlled.mean_refresh_hz),
                 harness::fmt(ab.quality.delivered_content_fps)});
  table.print(std::cout);

  std::cout << "\nSaved power:     " << harness::fmt(ab.saved_power_mw)
            << " mW (" << harness::fmt(ab.saved_power_pct) << " %)\n"
            << "Display quality: "
            << harness::fmt(ab.quality.display_quality_pct) << " %\n"
            << "Dropped frames:  " << harness::fmt(ab.quality.dropped_fps, 2)
            << " fps\n";
  return 0;
}
