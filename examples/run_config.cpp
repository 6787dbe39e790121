// Run an experiment described by a config file and optionally dump the
// traces as CSV for plotting.
//
//   ./run_config <config-file> [csv-output-file]
//
// The config is a ccdem-repro-v1 scenario file (see check/scenario.h for
// the full key list), for example:
//
//   schema = ccdem-repro-v1
//   app = Jelly Splash
//   mode = section+boost
//   duration_ms = 30000
//   seed = 7
#include <fstream>
#include <iostream>
#include <sstream>

#include "check/scenario.h"
#include "harness/csv.h"
#include "harness/experiment.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  using namespace ccdem;

  if (argc < 2) {
    std::cerr << "usage: run_config <config-file> [csv-output-file]\n";
    return 2;
  }
  std::ifstream file(argv[1]);
  if (!file) {
    std::cerr << "cannot open " << argv[1] << "\n";
    return 1;
  }
  std::ostringstream text;
  text << file.rdbuf();
  std::string error;
  const auto scenario = check::parse_scenario(text.str(), &error);
  if (!scenario) {
    std::cerr << "config error: " << error << "\n";
    return 1;
  }

  std::cout << "Running:\n" << check::scenario_to_string(*scenario) << "\n";
  const harness::ExperimentResult r =
      harness::run_experiment(scenario->experiment_config());

  harness::TextTable t({"Metric", "Value"});
  t.add_row({"mean power (mW)", harness::fmt(r.mean_power_mw)});
  t.add_row({"mean refresh (Hz)", harness::fmt(r.mean_refresh_hz)});
  t.add_row({"frames composed", std::to_string(r.frames_composed)});
  t.add_row({"content frames", std::to_string(r.content_frames)});
  t.add_row({"rate switches", std::to_string(r.rate_switches)});
  t.add_row({"meter error (%)", harness::fmt(r.meter_error_rate * 100, 2)});
  t.add_row({"touch response p95 (ms)", harness::fmt(r.response_p95_ms)});
  t.print(std::cout);

  if (argc > 2) {
    std::ofstream csv(argv[2]);
    if (!csv) {
      std::cerr << "cannot open " << argv[2] << "\n";
      return 1;
    }
    harness::write_traces_csv(
        csv, {&r.power, &r.frame_rate, &r.content_rate, &r.refresh_rate},
        sim::seconds(1), sim::Time{}, sim::Time{r.duration.ticks});
    std::cout << "\ntraces written to " << argv[2] << "\n";
  }
  return 0;
}
