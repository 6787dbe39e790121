// Run a config with the observability layer attached and export the result
// as a Chrome trace_event JSON (load it in chrome://tracing or
// https://ui.perfetto.dev) plus the per-frame CSV the golden tests lock.
//
//   ./trace_viewer [config-file] [output-basename]
//
// Defaults: configs/jelly_splash.conf and "trace" (writes trace.json +
// trace.csv).  Both outputs are re-parsed after writing, so a zero exit
// status certifies they are well-formed round-trippable trace files.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "check/scenario.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "obs/obs.h"
#include "obs/trace_export.h"

int main(int argc, char** argv) {
  using namespace ccdem;

  const std::string config_path =
      argc > 1 ? argv[1] : "configs/jelly_splash.conf";
  const std::string base = argc > 2 ? argv[2] : "trace";

  std::ifstream file(config_path);
  if (!file) {
    std::cerr << "cannot open " << config_path << "\n";
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
  harness::ExperimentConfig config = scenario->experiment_config();

  obs::ObsSink sink;
  config.obs = &sink;
  std::cout << "Running " << config_path << " with spans "
            << (sink.spans.enabled() ? "on" : "off (compiled out)") << "\n\n";
  const harness::ExperimentResult r = harness::run_experiment(config);

  const std::vector<obs::Span> spans = sink.spans.spans();
  const obs::Counters::Snapshot snap = sink.counters.snapshot();
  std::cout << r.app_name << ": " << r.frames_composed << " frames, "
            << spans.size() << " spans buffered (" << sink.spans.recorded()
            << " recorded, " << sink.spans.dropped() << " dropped)\n\n";
  harness::print_counters(std::cout, sink.counters);

  const std::string json_path = base + ".json";
  const std::string csv_path = base + ".csv";
  {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << "\n";
      return 1;
    }
    obs::write_chrome_trace(out, spans, snap);
  }
  {
    std::ofstream out(csv_path);
    if (!out) {
      std::cerr << "cannot open " << csv_path << "\n";
      return 1;
    }
    obs::write_trace_csv(out, spans, snap);
  }

  // Certify both exports by re-reading them with the bundled parsers.
  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const auto json = obs::parse_chrome_trace(slurp(json_path), &error);
  if (!json || json->spans.size() != spans.size()) {
    std::cerr << "JSON round-trip failed: " << error << "\n";
    return 1;
  }
  const auto csv = obs::parse_trace_csv(slurp(csv_path), &error);
  if (!csv || csv->spans.size() != spans.size()) {
    std::cerr << "CSV round-trip failed: " << error << "\n";
    return 1;
  }

  std::cout << "\nwrote " << json_path << " (" << json->spans.size()
            << " events; open in chrome://tracing) and " << csv_path << "\n";
  return 0;
}
