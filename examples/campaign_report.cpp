// Campaign driver: run a sharded scenario-matrix campaign from a spec
// file, resume one after a crash, convert a binary shard file into a
// results CSV, or print one run's scenario for replay.
//
//   campaign_report run    <spec.campaign> <dir> [workers]
//   campaign_report resume <spec.campaign> <dir> [workers]
//   campaign_report convert <shard.bin> results-csv
//   campaign_report repro  <spec.campaign> <index>
//
// `run` executes the matrix with worker processes (1..64, default 2) and
// leaves `<dir>/manifest.txt` (the checkpoint), one `shard_NNNN.bin` per
// shard, `aggregates.bin` (merged streaming aggregates) and `summary.json`.
// Kill it -- or any worker -- and `resume` continues from the manifest;
// the merged output is byte-identical to an uninterrupted run.
// `convert` decodes a shard file to stdout, so the CSV cost is paid only
// when a human asks.  `repro` prints matrix index <index> as a
// `ccdem-repro-v1` scenario; every run is a pure function of its scenario,
// so `trace_viewer` on that file replays the run with spans on and writes
// its Chrome trace and trace CSV.
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "campaign/campaign.h"
#include "campaign/convert.h"
#include "campaign/coordinator.h"
#include "check/scenario.h"
#include "cli.h"
#include "sim/key_value.h"

namespace {

constexpr const char* kUsage =
    "campaign_report run|resume <spec.campaign> <dir> [workers 1..64]\n"
    "       campaign_report convert <shard.bin> results-csv\n"
    "       campaign_report repro <spec.campaign> <index>";

/// The coordinator forks up to this many workers at once.
constexpr std::int64_t kMaxWorkers = 64;

std::optional<ccdem::campaign::CampaignSpec> load_spec(
    const std::string& spec_path) {
  const auto text = ccdem::campaign::load_file(spec_path);
  if (!text) {
    std::cerr << "campaign: cannot read " << spec_path << "\n";
    return std::nullopt;
  }
  std::string error;
  auto spec = ccdem::campaign::CampaignSpec::parse(*text, &error);
  if (!spec) std::cerr << "campaign: " << spec_path << ": " << error << "\n";
  return spec;
}

int run(const std::string& spec_path, const std::string& dir, int workers,
        bool resume) {
  const auto spec = load_spec(spec_path);
  if (!spec) return 1;

  ccdem::campaign::CampaignOptions options;
  options.workers = workers;
  options.resume = resume;
  options.log = &std::cerr;
  const ccdem::campaign::CampaignResult result =
      ccdem::campaign::run_campaign(*spec, dir, options);
  for (const std::string& repro : result.repro_files) {
    std::cerr << "campaign: wrote " << repro << "\n";
  }
  if (!result.complete) {
    std::cerr << "campaign: " << result.error << "\n";
    return 1;
  }
  std::cerr << "campaign: " << result.runs << " runs, "
            << result.quarantined.size() << " quarantined, mean power "
            << result.aggregates.power.mean() << " mW; see " << dir << "/"
            << ccdem::campaign::summary_file_name() << "\n";
  return 0;
}

int convert(const std::string& bin_path) {
  if (const auto error =
          ccdem::campaign::bin_to_results_csv(bin_path, std::cout)) {
    std::cerr << "campaign: " << bin_path << ": " << *error << "\n";
    return 1;
  }
  return 0;
}

int repro(const std::string& spec_path, std::uint64_t index) {
  const auto spec = load_spec(spec_path);
  if (!spec) return 1;
  if (index >= spec->size()) {
    ccdem::examples::usage_error(
        kUsage, "index " + std::to_string(index) + " is outside the " +
                    std::to_string(spec->size()) + "-run matrix");
  }
  std::cout << ccdem::check::scenario_to_string(spec->scenario_at(index));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using ccdem::examples::usage_error;
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "run" || cmd == "resume") {
    if (argc < 4) usage_error(kUsage, "missing arguments");
    ccdem::examples::check_arg_count(argc, 4, kUsage);
    std::int64_t workers = 2;
    if (argc > 4) {
      const auto w = ccdem::sim::kv::parse_i64(argv[4]);
      if (!w || *w < 1 || *w > kMaxWorkers) {
        usage_error(kUsage, "workers must be a whole number in 1.." +
                                std::to_string(kMaxWorkers) + ", got '" +
                                argv[4] + "'");
      }
      workers = *w;
    }
    return run(argv[2], argv[3], static_cast<int>(workers), cmd == "resume");
  }
  if (cmd == "convert") {
    ccdem::examples::check_arg_count(argc, 3, kUsage);
    if (argc < 4 || std::string(argv[3]) != "results-csv") {
      usage_error(kUsage, "convert writes results-csv only");
    }
    return convert(argv[2]);
  }
  if (cmd == "repro") {
    ccdem::examples::check_arg_count(argc, 3, kUsage);
    if (argc < 4) usage_error(kUsage, "missing arguments");
    const auto index = ccdem::sim::kv::parse_u64(argv[3]);
    if (!index) {
      usage_error(kUsage, std::string("index must be a whole number, got '") +
                              argv[3] + "'");
    }
    return repro(argv[2], *index);
  }
  usage_error(kUsage, cmd.empty() ? "missing command"
                                  : "unknown command '" + cmd + "'");
}
