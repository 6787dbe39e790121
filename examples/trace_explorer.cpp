// Trace explorer: prints the Fig. 2 / Fig. 7-style time series for one app
// as ASCII charts -- frame rate, content rate, refresh rate and power --
// so the control loop's behaviour can be eyeballed.
//
//   ./trace_explorer [app-name] [mode] [seconds]
//     mode: baseline | section | boost | naive
#include <iostream>
#include <string>

#include "cli.h"
#include "harness/experiment.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  using namespace ccdem;
  constexpr const char* kUsage =
      "trace_explorer [app-name] [baseline|section|boost|naive] [seconds]";

  examples::check_arg_count(argc, 3, kUsage);
  const std::string app_name = argc > 1 ? argv[1] : "Facebook";
  const std::string mode_str = argc > 2 ? argv[2] : "boost";
  const int seconds = examples::seconds_arg(argc, argv, 3, 30, kUsage);

  harness::ControlMode mode{};
  if (mode_str == "baseline") {
    mode = harness::ControlMode::kBaseline60;
  } else if (mode_str == "section") {
    mode = harness::ControlMode::kSection;
  } else if (mode_str == "boost") {
    mode = harness::ControlMode::kSectionWithBoost;
  } else if (mode_str == "naive") {
    mode = harness::ControlMode::kNaive;
  } else {
    examples::usage_error(kUsage, "unknown mode '" + mode_str + "'");
  }

  harness::ExperimentConfig config;
  config.app = examples::app_arg(app_name, kUsage);
  config.duration = sim::seconds(seconds);
  config.seed = 5;
  config.mode = mode;
  const harness::ExperimentResult r = harness::run_experiment(config);

  const sim::Time begin{};
  const sim::Time end{config.duration.ticks};
  std::cout << "App: " << app_name
            << "  mode: " << harness::control_mode_name(mode) << "\n\n";
  harness::print_ascii_chart(std::cout, "frame rate (fps)", r.frame_rate,
                             sim::seconds(1), begin, end, 60.0);
  std::cout << "\n";
  harness::print_ascii_chart(std::cout, "content rate (fps)", r.content_rate,
                             sim::seconds(1), begin, end, 60.0);
  std::cout << "\n";
  harness::print_ascii_chart(std::cout, "refresh rate (Hz)", r.refresh_rate,
                             sim::seconds(1), begin, end, 60.0);
  std::cout << "\n";
  harness::print_ascii_chart(std::cout, "device power (mW)", r.power,
                             sim::seconds(1), begin, end, 2000.0);
  std::cout << "\nMean power " << harness::fmt(r.mean_power_mw)
            << " mW, mean refresh " << harness::fmt(r.mean_refresh_hz)
            << " Hz, meter error "
            << harness::fmt(r.meter_error_rate * 100.0, 2) << " %\n";
  return 0;
}
