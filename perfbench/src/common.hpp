// Shared plumbing for the perfbench workloads: the clock, process memory
// probes, order statistics, and the result record every workload fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Current resident set, MiB (/proc/self/statm; 0 where unavailable).
double rss_mb();
/// Process high-water resident set, MiB (getrusage ru_maxrss).
double peak_rss_mb();

/// One sample of host speed: milliseconds for a fixed CPU-bound kernel
/// (a dependent floating-point chain over an L2-resident array).
double probe_ms();

/// Linear-interpolated quantile of `v` (q in [0,1]); 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Command-line inputs of one benchmark run.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports. `metrics` carries every end-to-end metric
/// (trace off) or every per-layer metric (trace on); perfbench/run.py
/// attaches units and picks the set. `errors` names each failed check.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  /// Trace digest of the run's first repetition (node workloads), for the
  /// pinned default-seed gate; "" for serve_sweep.
  std::string digest;
  /// probe_ms() samples taken between repetitions, while no simulation or
  /// server thread runs.
  std::vector<double> probes;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
};

RunResult run_node_workload(const RunArgs& args);
RunResult run_serve_workload(const RunArgs& args);

/// Decorator neutrality self-test (small N): wrapping a protocol in the
/// timing decorator must leave every digest unchanged. Returns one message
/// per mismatch; empty on success.
std::vector<std::string> decorator_selftest();

}  // namespace perfbench
