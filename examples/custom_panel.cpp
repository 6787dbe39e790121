// Custom panel: the paper notes "the thresholds should be redefined when
// the available refresh rates are changed".  This example builds section
// tables for three different panels -- the paper's Galaxy S3, a hypothetical
// 3-level panel, and a modern LTPO 1-120 Hz stack -- and runs the same
// workload on each to show the scheme generalises beyond one device.
//
//   ./custom_panel [seconds]
#include <iostream>

#include "cli.h"
#include "core/section_table.h"
#include "harness/experiment.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  using namespace ccdem;
  constexpr const char* kUsage = "custom_panel [seconds]";

  examples::check_arg_count(argc, 1, kUsage);
  const int seconds = examples::seconds_arg(argc, argv, 1, 20, kUsage);

  struct Panel {
    const char* name;
    display::RefreshRateSet rates;
  };
  const Panel panels[] = {
      {"Galaxy S3 (paper)", display::RefreshRateSet::galaxy_s3()},
      {"3-level panel", display::RefreshRateSet{30, 48, 60}},
      {"LTPO 1-120 Hz", display::RefreshRateSet::ltpo_120()},
  };

  for (const Panel& p : panels) {
    std::cout << "=== " << p.name << " ===\n";
    std::cout << "Section table (Equation (1)):\n"
              << core::SectionTable::build(p.rates, 0.5).to_string();

    harness::ExperimentConfig config;
    config.app = apps::app_by_name("Jelly Splash");
    config.duration = sim::seconds(seconds);
    config.seed = 21;
    config.mode = harness::ControlMode::kSectionWithBoost;
    config.rates = p.rates;
    // Fair comparison across panels: every baseline is a stock 60 Hz
    // device, boosts target 60 Hz, and LTPO-class floors get the guards
    // the bench_ext_ltpo study motivates.
    config.baseline_hz = 60;
    config.dpm.boost_hz = 60;
    if (p.rates.min_hz() < 20) {
      config.fast_rate_up = true;
      config.dpm.min_hz = 10;
    }
    const harness::AbResult ab = harness::run_ab(config);

    std::cout << "Jelly Splash: saved " << harness::fmt(ab.saved_power_mw)
              << " mW (" << harness::fmt(ab.saved_power_pct)
              << " %), quality "
              << harness::fmt(ab.quality.display_quality_pct)
              << " %, mean refresh "
              << harness::fmt(ab.controlled.mean_refresh_hz) << " Hz\n\n";
  }
  std::cout << "Finer-grained rate ladders harvest more idle headroom: the "
               "LTPO panel\ncan park near the content rate where the S3's "
               "coarse 20 Hz floor cannot.\n";
  return 0;
}
