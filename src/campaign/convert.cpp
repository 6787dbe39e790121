#include "campaign/convert.h"

#include <fstream>
#include <ostream>
#include <variant>
#include <vector>

#include "campaign/campaign.h"

namespace ccdem::campaign {

namespace fs = std::filesystem;

std::optional<std::string> bin_to_results_csv(const fs::path& bin_path,
                                              std::ostream& os) {
  std::ifstream is(bin_path, std::ios::binary);
  if (!is) return "cannot open " + bin_path.string();
  BinReader reader(is);
  std::vector<ResultRecord> results;
  while (auto rec = reader.next()) {
    if (const auto* r = std::get_if<ResultRecord>(&*rec)) {
      results.push_back(*r);
    }
  }
  if (!reader.ok()) return bin_path.string() + ": " + reader.error();
  if (!reader.complete()) {
    return bin_path.string() + ": truncated (no verified end marker)";
  }
  os << "scenario_index,app,mode,seed,duration_ms,mean_power_mw,"
        "mean_refresh_hz,meter_error_rate,response_mean_ms,frames_composed,"
        "content_frames,frames_posted,rate_switches,final_frame_hash,"
        "has_ab,saved_power_pct,quality_pct\n";
  for (const ResultRecord& r : results) {
    os << r.scenario_index << ',' << r.app << ',' << r.mode << ',' << r.seed
       << ',' << r.duration_ms << ',' << format_double(r.mean_power_mw) << ','
       << format_double(r.mean_refresh_hz) << ','
       << format_double(r.meter_error_rate) << ','
       << format_double(r.response_mean_ms) << ',' << r.frames_composed << ','
       << r.content_frames << ',' << r.frames_posted << ',' << r.rate_switches
       << ',' << r.final_frame_hash << ',' << (r.has_ab ? 1 : 0) << ','
       << format_double(r.saved_power_pct) << ','
       << format_double(r.quality_pct) << "\n";
  }
  return std::nullopt;
}

}  // namespace ccdem::campaign
