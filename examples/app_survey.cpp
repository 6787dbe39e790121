// App survey: the Fig. 3-style redundancy census over all 30 commercial
// app profiles -- meaningful vs redundant frame rate per app at a fixed
// 60 Hz, the observation that motivates the whole system.
//
//   ./app_survey [seconds-per-app]
#include <iostream>

#include "cli.h"
#include "harness/experiment.h"
#include "harness/report.h"

int main(int argc, char** argv) {
  using namespace ccdem;
  constexpr const char* kUsage = "app_survey [seconds-per-app]";

  examples::check_arg_count(argc, 1, kUsage);
  const int seconds = examples::seconds_arg(argc, argv, 1, 20, kUsage);

  harness::TextTable table({"App", "Category", "Frame rate (fps)",
                            "Content rate (fps)", "Redundant (fps)"});
  for (const apps::AppSpec& app : apps::all_apps()) {
    harness::ExperimentConfig config;
    config.app = app;
    config.duration = sim::seconds(seconds);
    config.seed = 11;
    config.mode = harness::ControlMode::kBaseline60;
    const harness::ExperimentResult r = harness::run_experiment(config);

    const double run_s = r.duration.seconds();
    const double frame_fps = static_cast<double>(r.frames_composed) / run_s;
    const double content_fps = static_cast<double>(r.content_frames) / run_s;
    table.add_row({app.name,
                   app.category == apps::AppSpec::Category::kGame
                       ? "game"
                       : "general",
                   harness::fmt(frame_fps), harness::fmt(content_fps),
                   harness::fmt(frame_fps - content_fps)});
  }
  table.print(std::cout);
  std::cout << "\nApps whose redundant rate exceeds 20 fps waste most of "
               "their frame updates;\nthe proposed system eliminates that "
               "waste by lowering the refresh rate.\n";
  return 0;
}
