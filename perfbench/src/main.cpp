// perfbench — the measuring half of the repository benchmark. It runs one
// workload for a time budget and prints one JSON object: the host
// fingerprint and speed probe, the operation counts, the first-repetition
// trace digest and the metrics as measured. perfbench/run.py builds this binary, calls it, gates the
// output and prints the benchmark's result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "common.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return pages_resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

volatile double probe_sink = 0;

double probe_ms() {
  // 256 KiB stays in L2, and one untimed pass loads it there, so the
  // probe sees the core's speed rather than what the workload left in the
  // caches.
  static std::vector<double> v(1 << 15, 1.0);
  double s = 0;
  const auto chain = [&s](double& x) {
    s += x * 1.0000001;
    x = s * 1e-9 + 1.0;
  };
  for (double& x : v) chain(x);
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < 96; ++pass)
    for (double& x : v) chain(x);
  probe_sink = s;
  return 1e3 * seconds_between(t0, Clock::now());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench

namespace {

void write_metrics(qlec::JsonWriter& w, const std::map<std::string, double>& m) {
  w.begin_object();
  for (const auto& [name, value] : m) {
    w.key(name);
    w.value(value);
  }
  w.end_object();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::atof(value.c_str());
    else if (flag == "--trace") args.trace = value != "0";
    else return usage();
  }
  if (args.workload.empty() || argc % 2 == 0 || args.seconds <= 0)
    return usage();

  // An idle core starts slow (on a 4-core Xeon VM the probe read ~3.7 ms
  // for its first ~30 ms of load, then ~2.0 ms): load it before anything
  // is measured.
  const Clock::time_point warm_until =
      Clock::now() + std::chrono::milliseconds(300);
  while (Clock::now() < warm_until) probe_ms();

  RunResult result;
  try {
    const std::vector<std::string> selftest = decorator_selftest();
    if (args.workload == "serve_sweep")
      result = run_serve_workload(args);
    else
      result = run_node_workload(args);
    for (const std::string& e : selftest) {
      ++result.attempted;
      result.fail("self-test: " + e);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  qlec::JsonWriter w;
  w.begin_object();
  w.key("workload"); w.value(args.workload);
  w.key("seed"); w.value(static_cast<unsigned long long>(args.seed));
  w.key("trace"); w.value(args.trace);
  w.key("attempted"); w.value(static_cast<unsigned long long>(result.attempted));
  w.key("failed"); w.value(static_cast<unsigned long long>(result.failed));
  w.key("errors");
  w.begin_array();
  for (const std::string& e : result.errors) w.value(e);
  w.end_array();
  w.key("digest"); w.value(result.digest);
  w.key("fingerprint");
  w.begin_object();
  w.key("simd"); w.value(qlec::simd::backend_name(qlec::simd::active()));
#if defined(__clang__)
  w.key("compiler"); w.value(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  w.key("compiler"); w.value(std::string("gcc ") + __VERSION__);
#else
  w.key("compiler"); w.value("unknown");
#endif
  w.key("build_type"); w.value(PERFBENCH_BUILD_TYPE);
  w.end_object();
  // The probe is reported, never applied. host_drift, the ratio of the
  // median probes of the run's two halves (slower over faster), flags a
  // run during which the host's speed changed.
  const std::vector<double>& probes = result.probes;
  const std::size_t half = probes.size() / 2;
  const double first = median({probes.begin(), probes.begin() + half});
  const double second = median({probes.begin() + half, probes.end()});
  const double probe = median(probes);
  w.key("probe_ms"); w.value(probe);
  w.key("host_drift");
  w.value(first > 0 && second > 0 ? std::max(first, second) /
                                        std::min(first, second)
                                  : 1.0);
  w.key("metrics");
  if (args.trace) result.metrics["host.probe_ms"] = probe;
  write_metrics(w, result.metrics);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
