// Extension: panel self-refresh (PSR) on top of the proposed system.
//
// The section table bottoms out at 20 Hz; with PSR the device powers the
// SoC-panel link down entirely once the content is fully static.  This
// bench runs static-heavy and animated workloads with the full system, with
// and without PSR, and reports the extra saving and the self-refresh
// residency.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "core/self_refresh_controller.h"
#include "device/simulated_device.h"

using namespace ccdem;

namespace {

struct PsrRun {
  double mean_power_mw = 0.0;
  double residency_pct = 0.0;
  std::uint64_t entries = 0;
};

PsrRun run_one(const apps::AppSpec& app, bool with_psr, int seconds,
               std::uint64_t seed) {
  harness::ExperimentConfig cfg = bench::make_config(
      app, harness::ControlMode::kSectionWithBoost, seconds, seed);
  cfg.power = power::DevicePowerParams::galaxy_s3_with_psr_link();
  if (with_psr) cfg.self_refresh = core::SelfRefreshConfig{};

  device::SimulatedDevice dev;
  const harness::ExperimentResult res = harness::run_experiment_on(dev, cfg);

  PsrRun r;
  r.mean_power_mw = res.mean_power_mw;
  if (core::SelfRefreshController* psr = dev.psr()) {
    r.residency_pct = psr->time_in_self_refresh(dev.sim().now()).seconds() /
                      static_cast<double>(seconds) * 100.0;
    r.entries = psr->entries();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int seconds = bench::run_seconds(argc, argv, 40);
  harness::print_bench_header(std::cout, "Extension: panel self-refresh",
                              seconds);

  harness::TextTable t({"App", "No PSR (mW)", "With PSR (mW)",
                        "Extra saved (mW)", "PSR residency (%)", "Entries"});
  double static_extra = 0.0, game_extra = 0.0;
  for (const char* name :
       {"Tiny Flashlight", "PhotoWonder", "Facebook", "Jelly Splash"}) {
    apps::AppSpec app = apps::app_by_name(name);
    if (std::string(name) == "Tiny Flashlight") {
      // A flashlight left on: paints once, then never invalidates and is
      // never touched -- the ideal self-refresh resident.
      app.monkey.mean_gap_s = 1e9;
      app.idle_request_fps = 0.0;
      app.scene.idle_content_fps = 0.0;
    }
    const PsrRun off = run_one(app, false, seconds, 27);
    const PsrRun on = run_one(app, true, seconds, 27);
    const double extra = off.mean_power_mw - on.mean_power_mw;
    t.add_row({name, harness::fmt(off.mean_power_mw, 0),
               harness::fmt(on.mean_power_mw, 0), harness::fmt(extra, 1),
               harness::fmt(on.residency_pct, 1),
               std::to_string(on.entries)});
    if (std::string(name) == "Tiny Flashlight") static_extra = extra;
    if (std::string(name) == "Jelly Splash") game_extra = extra;
  }
  t.print(std::cout);

  std::cout << "\n[check] static content gains the most from PSR: "
            << harness::fmt(static_extra, 0) << " mW extra ("
            << (static_extra > 40.0 ? "OK" : "UNEXPECTED") << ")\n";
  std::cout << "[check] animated content is unaffected: "
            << harness::fmt(game_extra, 1) << " mW ("
            << (std::abs(game_extra) < 15.0 ? "OK" : "UNEXPECTED") << ")\n";
  std::cout << "\nPSR composes with the paper's scheme: the section table "
               "already parked the\npanel at 20 Hz; self-refresh removes "
               "the remaining link power whenever the\ncontent rate is "
               "exactly zero.\n";
  return 0;
}
