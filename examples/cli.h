// Strict command-line arguments for the examples.  A bad argument prints
// the reason and the example's usage line to stderr and exits with status 2,
// before any simulation runs.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/app_profiles.h"
#include "sim/key_value.h"

namespace ccdem::examples {

/// Longest run an example accepts: one simulated day.
inline constexpr std::int64_t kMaxSeconds = 24 * 3600;

[[noreturn]] inline void usage_error(const char* usage,
                                     const std::string& why) {
  std::cerr << why << "\nusage: " << usage << "\n";
  std::exit(2);
}

/// Rejects more than `max_args` arguments after the program name.
inline void check_arg_count(int argc, int max_args, const char* usage) {
  if (argc - 1 > max_args) usage_error(usage, "too many arguments");
}

/// argv[i] as a whole number of seconds in [1, kMaxSeconds], or `fallback`
/// when the argument is absent.
inline int seconds_arg(int argc, char** argv, int i, int fallback,
                       const char* usage) {
  if (argc <= i) return fallback;
  const auto s = sim::kv::parse_i64(argv[i]);
  if (!s || *s <= 0 || *s > kMaxSeconds) {
    usage_error(usage, "seconds must be a whole number in 1.." +
                           std::to_string(kMaxSeconds) + ", got '" +
                           argv[i] + "'");
  }
  return static_cast<int>(*s);
}

/// The app profile called `name`.
inline apps::AppSpec app_arg(const std::string& name, const char* usage) {
  auto app = apps::find_profile(name);
  if (!app) usage_error(usage, "unknown app '" + name + "'");
  return *std::move(app);
}

}  // namespace ccdem::examples
