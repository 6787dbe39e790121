// Battery life: translate the paper's milliwatt savings into screen-on
// hours on a Galaxy S3-class 2100 mAh pack.
//
//   ./battery_life [seconds-per-run]
#include <iostream>

#include "cli.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "power/battery.h"

int main(int argc, char** argv) {
  using namespace ccdem;
  constexpr const char* kUsage = "battery_life [seconds-per-run]";

  examples::check_arg_count(argc, 1, kUsage);
  const int seconds = examples::seconds_arg(argc, argv, 1, 30, kUsage);
  const power::Battery battery(power::BatterySpec::galaxy_s3());

  harness::TextTable t({"App", "Baseline (mW)", "Saved (mW)",
                        "Screen-on h (before)", "Screen-on h (after)",
                        "Gain"});
  for (const char* name :
       {"Facebook", "MX Player", "Jelly Splash", "Cookie Run"}) {
    harness::ExperimentConfig config;
    config.app = apps::app_by_name(name);
    config.duration = sim::seconds(seconds);
    config.seed = 17;
    config.mode = harness::ControlMode::kSectionWithBoost;
    const harness::AbResult ab = harness::run_ab(config);

    const double before = battery.hours_at_mw(ab.baseline.mean_power_mw);
    const double after = battery.hours_at_mw(ab.controlled.mean_power_mw);
    t.add_row({name, harness::fmt(ab.baseline.mean_power_mw, 0),
               harness::fmt(ab.saved_power_mw, 0), harness::fmt(before, 1),
               harness::fmt(after, 1),
               "+" + harness::fmt(
                         battery.relative_gain(ab.baseline.mean_power_mw,
                                               ab.saved_power_mw) * 100.0,
                         0) + " %"});
  }
  t.print(std::cout);
  std::cout << "\nBattery: " << battery.spec().capacity_mah << " mAh @ "
            << battery.spec().nominal_voltage_v
            << " V (Galaxy S3 class). Screen-on time assumes the app runs "
               "continuously.\n";
  return 0;
}
