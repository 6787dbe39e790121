// perfbench: the repo benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <scratch dir>
//
// Runs one workload for about <s> seconds of measurement and prints, on
// stdout, one `perfbench-report` JSON line (host block, sim_digest, every
// metric including the report-only ones, failures) followed by the result
// line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (see
// perfbench/METRICS.md).  Exit status 0 means the run completed; a failed
// output check is reported through "correct", not the exit status.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/json_writer.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

void write_metrics(ccdem::harness::JsonWriter& w,
                   const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

void write_host(ccdem::harness::JsonWriter& w) {
  w.begin_object();
  w.kv("cpu", cpu_model());
  w.kv("nproc", std::uint64_t{std::thread::hardware_concurrency()});
  w.kv("compiler", std::string("g++ ") + __VERSION__);
  w.kv("build_type", PERFBENCH_BUILD_TYPE);
  w.kv("git_sha", env_or("PERFBENCH_GIT_SHA", "none"));
  w.kv("source_sha256", env_or("PERFBENCH_SOURCE_SHA", "none"));
  w.end_object();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --workdir <dir>\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.process_start = std::chrono::steady_clock::now();
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (a == "--workdir") {
        o.workdir = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workdir.empty()) usage("--workdir is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  // Two campaign workers: on a shared 4-vCPU host, four workers measured
  // +-30% run to run and two +-10% (each worker process runs one shard at
  // a time, so the campaign waits for its slowest worker).
  o.workers = std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
  o.workdir /= o.workload + "_" + std::to_string(o.seed);

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(o);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << '\n';
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(o.workdir, ec);

  for (const std::string& p : out.problems) {
    std::cerr << "perfbench: check failed: " << p << '\n';
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(out.sim_digest));
  {
    std::cout << "perfbench-report ";
    ccdem::harness::JsonWriter w(std::cout, /*indent=*/0);
    w.begin_object();
    w.kv("workload", o.workload);
    w.kv("seed", o.seed);
    w.kv("seconds", o.seconds);
    w.kv("trace", o.trace);
    w.key("host");
    write_host(w);
    w.kv("sim_digest", digest);
    w.key("metrics");
    write_metrics(w, out.metrics);
    w.key("report");
    write_metrics(w, out.extra);
    w.key("problems");
    w.begin_array();
    for (const std::string& p : out.problems) w.value(p);
    w.end_array();
    w.end_object();  // ends the line
  }
  ccdem::harness::JsonWriter w(std::cout, /*indent=*/0);
  w.begin_object();
  w.kv("correct", out.correct);
  w.kv("attempted", out.attempted);
  w.kv("failed", out.failed);
  w.key("metrics");
  write_metrics(w, out.metrics);
  w.end_object();
  std::cout.flush();
  return 0;
}
