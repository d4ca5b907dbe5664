// The qlec_serve request brain: scenario JSON in, jobs on a shared
// JobRunner, manifests and stats out (DESIGN.md §13). HTTP-agnostic — the
// HttpServer calls handle(), the tests and the load bench may call it
// directly. Thread-safe: handle() runs concurrently from the HTTP worker
// pool.
//
// API (all JSON):
//   GET  /healthz                     liveness + schema/code versions
//   GET  /stats                       scheduler + cache counters
//   POST /v1/runs[?wait=1][&priority=N]
//        body = scenario file (same format as examples/scenarios/*.json);
//        validated through the strict schema -> ConfigError becomes a 400
//        with the path-qualified message. Expands the sweep grid, plans one
//        job per cell, submits all. wait=1 blocks and returns the full
//        manifest; otherwise 202 with {run_id, jobs:[...]}.
//   GET  /v1/runs/<id>                per-job states + aggregate state
//   GET  /v1/runs/<id>/manifest       manifest once every job is done (409
//                                     while incomplete or degraded)
//   POST /v1/runs/<id>/cancel         cancel still-queued jobs
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "config/jobs.hpp"
#include "serve/http.hpp"

namespace qlec::serve {

struct ServiceOptions {
  /// Scheduler width (concurrent cells); 0 = hardware concurrency.
  std::size_t workers = 0;
  /// ResultStore directory; "" keeps the cache in memory only.
  std::string cache_dir;
  /// When set, per-job telemetry file outputs are respooled here as
  /// <dir>/<job key>.{events.jsonl, trace.json, metrics.json}
  /// (OBSERVABILITY.md); "" rejects any cell with a telemetry file output
  /// (a 400 at its sim.telemetry.* leaf), so clients cannot name files.
  std::string telemetry_dir;
  /// Per-submission grid cap (the sweep layer itself caps at 10k).
  std::size_t max_cells = 10000;
};

class JobService {
 public:
  explicit JobService(ServiceOptions opts = {});

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// The HttpHandler: routes `req` and fills `resp`. Never throws for
  /// client errors (those become 4xx bodies).
  void handle(const HttpRequest& req, HttpResponse& resp);

  config::JobRunner& runner() noexcept { return *runner_; }
  config::ResultStore& store() noexcept { return store_; }

 private:
  struct Run {
    std::string id;
    std::string name;
    std::string description;
    std::vector<config::JobHandle> jobs;
  };

  std::shared_ptr<Run> find_run(const std::string& id);
  void post_runs(const HttpRequest& req, HttpResponse& resp);
  void run_status(const Run& run, HttpResponse& resp);
  void run_manifest(const Run& run, HttpResponse& resp);
  void run_cancel(const Run& run, HttpResponse& resp);
  void stats(HttpResponse& resp);

  ServiceOptions opts_;
  config::ResultStore store_;
  std::unique_ptr<config::JobRunner> runner_;
  std::mutex mutex_;  // guards runs_ / next_run_
  std::map<std::string, std::shared_ptr<Run>> runs_;
  std::uint64_t next_run_ = 1;
};

}  // namespace qlec::serve
