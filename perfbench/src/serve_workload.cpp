// serve_sweep: an in-process JobService behind HttpServer on loopback,
// driven as a closed loop by two client connections (each sends its next
// request only when the previous reply is in), with two job workers.
//
// A run repeats identical passes for its time budget and reports the
// median pass. A pass starts a fresh server, prefills the grids that will
// be resubmitted (the set-up), then each client sends kPassRequests
// requests drawn from a generator seeded by --seed, so every pass of a
// seed sends the same requests. The mix (80% / 12% / 8%) is an assumption
// standing in for "most posts resubmit, a few are GETs"; no recorded
// request trace exists to take it from:
//   warm   resubmit a grid this client has already had answered: a read
//          (parse -> plan -> ResultStore hit -> manifest)
//   cold   a grid never posted before: a write (simulate -> insert)
//   status GET /v1/runs/<id> of a prefilled run, or GET /stats
// Grids are two-cell wait=1 sweeps (N <= 140) over all 13 registered
// protocols, five worlds read from examples/scenarios/worlds, and MAC
// and faults on or off, so this workload covers config, serve, the store,
// the twelve non-QLEC protocols, sim/mac, sim/env and sim/fault — none of
// which the node workloads touch. A fresh server per pass keeps the
// retained state (runs_ and the store never shrink) the same on every
// pass; serve.rss_growth_mb_per_1k_req shows its growth.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "config/jobs.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "sim/protocols/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kJobWorkers = 2;
constexpr std::size_t kWarmGrids = 26;  // 13 per client: all 13 protocols
/// Requests per client and pass: enough warm replies (~80%) that a pass's
/// p99 has more than ten samples beyond it.
constexpr std::size_t kPassRequests = 1000;
constexpr std::size_t kMinPasses = 3;
constexpr int kProbesPerPass = 5;
constexpr double kTimeoutS = 30.0;  // a slower reply counts as failed

/// The worlds the grids are posted in, from the committed world library.
const char* const kWorldFiles[] = {"baseline_flat", "urban_canyon",
                                   "underwater_column", "mule_orbit",
                                   "mountain_ridge"};

/// What a world adds to a grid: its JSON under scenario.bs, sim.env,
/// deployment and bs ("" = absent).
struct World {
  std::string scenario_bs, env, deployment, bs;
};

/// Reads kWorldFiles from examples/scenarios/worlds, relative to the
/// working directory (the checkout root).
std::vector<World> load_worlds() {
  std::vector<World> worlds;
  for (const char* name : kWorldFiles) {
    const std::string path =
        std::string("examples/scenarios/worlds/") + name + ".json";
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string error = "cannot open";
    const std::optional<qlec::JsonValue> doc =
        in.is_open() ? qlec::parse_json(text.str(), &error) : std::nullopt;
    if (!doc) throw std::runtime_error("world " + path + ": " + error);
    const auto block = [](const qlec::JsonValue* parent, const char* key) {
      const qlec::JsonValue* v = parent != nullptr ? parent->get(key) : nullptr;
      return v != nullptr ? qlec::dump_json(*v) : std::string();
    };
    worlds.push_back({block(doc->get("scenario"), "bs"),
                      block(doc->get("sim"), "env"),
                      block(&*doc, "deployment"), block(&*doc, "bs")});
  }
  return worlds;
}

const std::vector<World>& worlds() {
  static const std::vector<World> loaded = load_worlds();
  return loaded;
}

const char* const kMac =
    R"({"enabled": true, "seed": 940, "cca_range": 150,
        "airtime_subslots": 2, "duty_cycle": 0.1, "idle_j_per_subslot": 1e-05})";
const char* const kFault =
    R"({"enabled": true, "seed": 64023, "hazards": {
        "crash_per_node": 0.004, "stun_per_node": 0.010, "stun_rounds": 2,
        "fade_per_node": 0.006, "fade_fraction": 0.15, "degrade_episode": 0.06,
        "degrade_rounds": 3, "degrade_factor": 0.5, "bs_outage": 0.03,
        "bs_outage_rounds": 1}})";

/// One sweep grid; its cells are the protocols.
struct Grid {
  std::vector<std::string> protocols;
  std::size_t world = 0;
  bool mac = false, fault = false;
  int n = 100, rounds = 8;
  std::uint64_t base_seed = 1;

  std::string body() const {
    const World& w = worlds()[world];
    const auto member = [](const char* key, const std::string& value) {
      return value.empty() ? std::string() : ", \"" + std::string(key) +
                                                 "\": " + value;
    };
    std::string protos;
    for (const std::string& p : protocols)
      protos += (protos.empty() ? "\"" : ", \"") + p + "\"";
    return "{\"name\": \"perfbench\", \"scenario\": {\"n\": " +
           std::to_string(n) + ", \"m_side\": 200, \"initial_energy\": 5" +
           member("bs", w.scenario_bs) + "}, \"sim\": {\"rounds\": " +
           std::to_string(rounds) +
           ", \"slots_per_round\": 10, \"trace\": {\"record\": true}" +
           member("env", w.env) + member("mac", mac ? kMac : "") +
           member("fault", fault ? kFault : "") +
           "}, \"protocol\": {\"qlec\": {\"total_rounds\": " +
           std::to_string(rounds) + "}}, \"seeds\": 1, \"base_seed\": " +
           std::to_string(base_seed) + member("deployment", w.deployment) +
           member("bs", w.bs) + ", \"sweep\": {\"protocol.name\": [" +
           protos + "]}}";
  }
};

enum class Kind { kWarm, kCold, kStatus };
const char* kind_name(Kind k) {
  return k == Kind::kWarm ? "warm" : k == Kind::kCold ? "cold" : "status";
}

/// One client's request stream. The mix is fixed — every block of 25
/// requests holds 20 warm, 3 cold and 2 status requests in a seeded order
/// — and the i-th fresh grid walks fixed cycles over protocol pairs,
/// worlds, MAC, faults, N and rounds from seeded offsets. The seed thus
/// changes placements, traffic and order but not how much work a pass
/// holds. base_seed is unique per grid, so a fresh grid is never a cache
/// hit until it is deliberately resubmitted.
class RequestGen {
 public:
  RequestGen(std::uint64_t seed, std::uint64_t stream)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + stream), next_seed_(stream << 32) {
    for (std::uint64_t& o : offset_) o = rng_.uniform_int(std::uint64_t{60});
  }

  Kind next_kind() {
    if (block_pos_ == block_.size()) {
      block_.assign(20, Kind::kWarm);
      block_.insert(block_.end(), 3, Kind::kCold);
      block_.insert(block_.end(), 2, Kind::kStatus);
      for (std::size_t i = block_.size() - 1; i > 0; --i)
        std::swap(block_[i], block_[rng_.uniform_int(std::uint64_t{i + 1})]);
      block_pos_ = 0;
    }
    return block_[block_pos_++];
  }

  Grid next_grid() {
    static const int kNs[] = {50, 80, 110, 140};
    static const int kRounds[] = {6, 8, 10};
    const std::vector<std::string> names = qlec::protocol_names();
    const std::uint64_t i = drawn_++;
    Grid g;
    const std::uint64_t p = 2 * (i + offset_[0]);
    g.protocols = {names[p % names.size()], names[(p + 1) % names.size()]};
    g.world = (i + offset_[1]) % worlds().size();
    g.mac = (i / 5 + offset_[2]) % 2 == 1;
    g.fault = (i / 10 + offset_[3]) % 2 == 1;
    g.n = kNs[(i + offset_[4]) % 4];
    g.rounds = kRounds[(i + offset_[5]) % 3];
    g.base_seed = ++next_seed_;
    return g;
  }

  qlec::Rng& rng() { return rng_; }

 private:
  qlec::Rng rng_;
  std::uint64_t next_seed_;
  std::uint64_t drawn_ = 0;
  std::uint64_t offset_[6] = {};
  std::vector<Kind> block_;
  std::size_t block_pos_ = 0;
};

/// One completed request as the client saw it.
struct Sample {
  Kind kind;
  std::uint64_t seq;
  double rtt_s = 0;
  std::size_t cells = 0;
  /// Rounds simulated and packets generated by a cold request's cells.
  double fresh_rounds = 0;
  double fresh_packets = 0;
};

/// Handler-side timings of one request, keyed by its seq query parameter.
struct HandlerTime {
  double handle_s = 0;
  double parse_plan_s = -1;  // POST only
};
struct HandlerTrace {
  std::mutex mutex;
  std::unordered_map<std::uint64_t, HandlerTime> by_seq;
};

/// What one pass measured.
struct Pass {
  bool traced = false;
  double setup_s = 0;  // server start + prefill
  double loop_s = 0;   // the closed loop
  std::vector<Sample> samples;
  std::map<std::string, double> layer;  // per-layer figures (traced only)
};

/// Cross-checks manifests: every cell's digests must equal the first
/// answer for that job key.
class DigestBook {
 public:
  /// Records `cells`; returns false on a disagreement with earlier answers.
  bool check(const std::vector<qlec::config::CellResult>& cells) {
    std::vector<std::string> keys;
    for (const qlec::config::CellResult& c : cells)
      keys.push_back(qlec::config::job_key(c.config));
    const std::lock_guard<std::mutex> lock(mutex_);
    bool ok = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const qlec::config::CellResult& c = cells[i];
      if (c.digests.empty()) ok = false;
      const auto [it, fresh] = first_.try_emplace(keys[i], c);
      if (!fresh && it->second.digests != c.digests) ok = false;
    }
    return ok;
  }
  std::vector<qlec::config::CellResult> cells() const {
    std::vector<qlec::config::CellResult> out;
    for (const auto& [key, c] : first_) out.push_back(c);
    return out;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::string, qlec::config::CellResult> first_;
};

/// The generator state a pass starts from: the per-client generators
/// and warm sets right after the prefill grids were drawn.
struct PassInputs {
  std::vector<RequestGen> gens;
  std::vector<std::vector<Grid>> warm;
  std::vector<std::string> prefill;
};

PassInputs pass_inputs(std::uint64_t seed) {
  PassInputs in;
  in.warm.resize(kClients);
  for (std::size_t c = 0; c < kClients; ++c) in.gens.emplace_back(seed, c + 1);
  for (std::size_t i = 0; i < kWarmGrids; ++i) {
    const Grid g = in.gens[i % kClients].next_grid();
    in.warm[i % kClients].push_back(g);
    in.prefill.push_back(g.body());
  }
  return in;
}

/// Times JobService::handle (the HttpHandler seam) and, on a copy of the
/// body, the config layer's parse -> expand -> plan. Both run while the
/// client waits, so serve.http_overhead_ms subtracts both.
void traced_handle(qlec::serve::JobService& service, HandlerTrace& trace,
                   const qlec::serve::HttpRequest& req,
                   qlec::serve::HttpResponse& resp) {
  HandlerTime t;
  if (req.method == "POST") {
    const Clock::time_point p0 = Clock::now();
    try {
      (void)qlec::config::plan(
          qlec::config::expand_grid(qlec::config::parse_scenario(req.body)));
    } catch (const std::exception&) {
    }
    t.parse_plan_s = seconds_between(p0, Clock::now());
  }
  const Clock::time_point t0 = Clock::now();
  service.handle(req, resp);
  t.handle_s = seconds_between(t0, Clock::now());
  const auto seq = req.query.find("seq");
  if (seq == req.query.end()) return;
  const std::lock_guard<std::mutex> lock(trace.mutex);
  trace.by_seq[std::strtoull(seq->second.c_str(), nullptr, 10)] = t;
}

Pass run_pass(PassInputs in, bool traced, DigestBook& book, RunResult& out) {
  Pass pass;
  pass.traced = traced;
  HandlerTrace trace;
  std::mutex out_mutex;  // guards out
  const auto record = [&](const std::string& why) {
    const std::lock_guard<std::mutex> lock(out_mutex);
    ++out.attempted;
    if (!why.empty()) out.fail(why);
  };
  const auto check_reply = [&](const std::optional<qlec::serve::ClientResponse>& r,
                               const std::string& error, const char* what,
                               std::vector<qlec::config::CellResult>* cells) {
    if (!r || r->status < 200 || r->status > 299)
      return std::string(what) + " request failed: " +
             (r ? "status " + std::to_string(r->status) : error);
    if (cells == nullptr) return std::string();
    try {
      *cells = qlec::config::manifest_from_json(r->body).cells;
    } catch (const std::exception& e) {
      return std::string(what) + " manifest unreadable: " + e.what();
    }
    return book.check(*cells)
               ? std::string()
               : std::string(what) + " manifest digests disagree with the "
                                     "first answer";
  };

  // Set-up: server start and the prefill of the grids to be resubmitted.
  const Clock::time_point s0 = Clock::now();
  qlec::serve::ServiceOptions opts;
  opts.workers = kJobWorkers;
  qlec::serve::JobService service(opts);
  qlec::serve::HttpServer http(
      "127.0.0.1", 0,
      [&service, &trace, traced](const qlec::serve::HttpRequest& req,
                                 qlec::serve::HttpResponse& resp) {
        if (traced) return traced_handle(service, trace, req, resp);
        service.handle(req, resp);
      },
      kClients);
  const std::uint16_t port = http.port();
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        for (std::size_t i = c; i < in.prefill.size(); i += kClients) {
          std::string error;
          const auto r = qlec::serve::http_request(
              "127.0.0.1", port, "POST", "/v1/runs?wait=1", in.prefill[i],
              &error);
          std::vector<qlec::config::CellResult> cells;
          record(check_reply(r, error, "prefill", &cells));
        }
      });
    for (std::thread& t : clients) t.join();
  }
  pass.setup_s = seconds_between(s0, Clock::now());

  const qlec::config::JobRunner::Stats runner0 = service.runner().stats();
  const qlec::config::ResultStore::Stats store0 = service.store().stats();
  const double rss0 = rss_mb();
  std::vector<std::vector<Sample>> samples(kClients);
  std::atomic<std::uint64_t> next_seq{1};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      RequestGen& gen = in.gens[c];
      std::vector<Grid>& seen = in.warm[c];
      std::uint64_t status_turn = 0;
      for (std::size_t i = 0; i < kPassRequests; ++i) {
        const Kind kind = gen.next_kind();
        Sample smp{kind, next_seq++};
        std::string method = "POST", target, body;
        Grid grid;
        if (kind == Kind::kStatus) {
          method = "GET";
          target = (status_turn++ % 2 == 0)
                       ? "/v1/runs/r" +
                             std::to_string(1 + gen.rng().uniform_int(
                                                     std::uint64_t{kWarmGrids}))
                       : std::string("/stats");
        } else {
          grid = kind == Kind::kWarm ? seen[gen.rng().uniform_int(seen.size())]
                                     : gen.next_grid();
          target = "/v1/runs?wait=1";
          body = grid.body();
        }
        target += (target.find('?') == std::string::npos ? "?" : "&");
        target += "seq=" + std::to_string(smp.seq);
        const Clock::time_point t0 = Clock::now();
        std::string error;
        const auto r = qlec::serve::http_request("127.0.0.1", port, method,
                                                 target, body, &error);
        smp.rtt_s = seconds_between(t0, Clock::now());
        std::vector<qlec::config::CellResult> cells;
        std::string why = check_reply(r, error, kind_name(kind),
                                      kind == Kind::kStatus ? nullptr : &cells);
        if (why.empty() && smp.rtt_s > kTimeoutS)
          why = std::string(kind_name(kind)) + " request timed out";
        record(why);
        if (!why.empty()) continue;
        if (kind == Kind::kCold) {
          seen.push_back(grid);
          smp.cells = cells.size();
          for (const qlec::config::CellResult& cell : cells) {
            smp.fresh_rounds +=
                static_cast<double>(cell.config.sim.rounds) * cell.config.seeds;
            smp.fresh_packets += cell.metrics.generated.sum();
          }
        }
        samples[c].push_back(smp);
      }
    });
  for (std::thread& t : clients) t.join();
  pass.loop_s = seconds_between(start, Clock::now());
  for (const std::vector<Sample>& per_client : samples)
    pass.samples.insert(pass.samples.end(), per_client.begin(),
                        per_client.end());
  if (!traced) return pass;

  // Per-layer figures: join client round trips with handler times by seq.
  const double rss1 = rss_mb();
  const qlec::config::JobRunner::Stats runner1 = service.runner().stats();
  const qlec::config::ResultStore::Stats store1 = service.store().stats();
  std::vector<double> handle_ms[3], overhead_ms, parse_plan_ms;
  for (const Sample& s : pass.samples) {
    const auto it = trace.by_seq.find(s.seq);
    if (it == trace.by_seq.end()) continue;
    const HandlerTime& t = it->second;
    handle_ms[static_cast<int>(s.kind)].push_back(1e3 * t.handle_s);
    const double parse_plan_s = std::max(0.0, t.parse_plan_s);
    if (t.parse_plan_s >= 0) parse_plan_ms.push_back(1e3 * t.parse_plan_s);
    overhead_ms.push_back(1e3 * (s.rtt_s - t.handle_s - parse_plan_s));
  }
  auto& m = pass.layer;
  m["serve.handle_ms.warm"] = median(handle_ms[0]);
  m["serve.handle_ms.cold"] = median(handle_ms[1]);
  m["serve.handle_ms.status"] = median(handle_ms[2]);
  m["serve.http_overhead_ms"] = median(overhead_ms);
  m["serve.cold_tail_ms"] = quantile(handle_ms[1], 0.9);
  m["serve.rss_growth_mb_per_1k_req"] =
      (rss1 - rss0) / (static_cast<double>(pass.samples.size()) / 1000.0);
  m["config.parse_plan_ms"] = median(parse_plan_ms);
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  m["config.runner.submitted"] = delta(runner0.submitted, runner1.submitted);
  m["config.runner.simulated"] = delta(runner0.simulated, runner1.simulated);
  m["config.runner.cache_hits"] = delta(runner0.cache_hits, runner1.cache_hits);
  m["config.runner.coalesced"] = delta(runner0.coalesced, runner1.coalesced);
  m["config.runner.failed"] = delta(runner0.failed, runner1.failed);
  m["config.store.hits"] = delta(store0.hits, store1.hits);
  m["config.store.misses"] = delta(store0.misses, store1.misses);
  m["config.store.inserts"] = delta(store0.inserts, store1.inserts);
  const double lookups = m["config.store.hits"] + m["config.store.misses"];
  m["config.store.hit_ratio"] =
      lookups > 0 ? m["config.store.hits"] / lookups : 0.0;
  return pass;
}

/// The end-to-end figures of one pass.
std::map<std::string, double> pass_metrics(const Pass& pass) {
  std::vector<double> warm, cold;
  double rounds = 0, packets = 0, cold_cells = 0, cold_wait = 0;
  for (const Sample& s : pass.samples) {
    rounds += s.fresh_rounds;
    packets += s.fresh_packets;
    if (s.kind == Kind::kWarm) warm.push_back(s.rtt_s);
    if (s.kind == Kind::kCold) {
      cold.push_back(s.rtt_s);
      cold_cells += static_cast<double>(s.cells);
      cold_wait += s.rtt_s;
    }
  }
  return {
      {"rounds_per_s", rounds / pass.loop_s},
      {"packets_per_s", packets / pass.loop_s},
      {"requests_per_s",
       static_cast<double>(pass.samples.size()) / pass.loop_s},
      {"warm_p50_ms", 1e3 * median(warm)},
      {"warm_p99_ms", 1e3 * quantile(warm, 0.99)},
      {"cold_p50_ms", 1e3 * median(cold)},
      {"cold_cells_per_s", cold_wait > 0 ? cold_cells / cold_wait : 0.0},
  };
}

}  // namespace

RunResult run_serve_workload(const RunArgs& args) {
  RunResult out;
  DigestBook book;
  const PassInputs inputs = pass_inputs(args.seed);

  // A traced run alternates untraced and traced passes, so the trace
  // overhead is measured on the same requests in the same process.
  std::vector<Pass> passes;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  while (passes.size() < kMinPasses || Clock::now() < deadline) {
    for (int i = 0; i < kProbesPerPass; ++i) out.probes.push_back(probe_ms());
    passes.push_back(
        run_pass(inputs, args.trace && passes.size() % 2 == 1, book, out));
    // As on the node workloads: the high-water mark of one pass.
    if (passes.size() == 1) out.metrics["peak_rss_mb"] = peak_rss_mb();
  }

  // Every distinct cell answered must match a direct run_replications
  // run. Traced runs re-run them one at a time on this thread to time each
  // protocol's cells; untraced runs fan them over a pool.
  const std::vector<qlec::config::CellResult> cells = book.cells();
  std::vector<std::string> direct(cells.size());
  std::vector<double> direct_s(cells.size());
  auto rerun = [&](std::size_t i) {
    const qlec::config::CellResult& c = cells[i];
    const Clock::time_point t0 = Clock::now();
    std::vector<std::string> digests;
    for (const qlec::SimResult& r :
         qlec::run_replications(c.config.protocol.name, c.config))
      digests.push_back(qlec::trace_digest_hex(r.trace));
    direct_s[i] = seconds_between(t0, Clock::now());
    direct[i] = digests == c.digests ? "" : c.config.protocol.name;
  };
  if (args.trace) {
    for (std::size_t i = 0; i < cells.size(); ++i) rerun(i);
  } else {
    qlec::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
    pool.parallel_for(cells.size(), rerun);
  }
  for (const std::string& bad : direct) {
    ++out.attempted;
    if (!bad.empty())
      out.fail("a " + bad + " cell differs from its direct run_replications");
  }

  std::map<std::string, std::vector<double>> untraced, traced;
  std::vector<double> setup_s;
  for (const Pass& p : passes) {
    setup_s.push_back(p.setup_s);
    for (const auto& [name, value] : pass_metrics(p))
      (p.traced ? traced : untraced)[name].push_back(value);
    for (const auto& [name, value] : p.layer) traced[name].push_back(value);
  }
  auto& m = out.metrics;
  if (!args.trace) {
    for (const auto& [name, values] : untraced) m[name] = median(values);
    m["setup_s"] = median(setup_s);
    return out;
  }
  for (const auto& [name, values] : traced)
    if (name.find('.') != std::string::npos) m[name] = median(values);
  std::map<std::string, std::vector<double>> cell_ms;
  for (std::size_t i = 0; i < cells.size(); ++i)
    cell_ms[cells[i].config.protocol.name].push_back(1e3 * direct_s[i]);
  for (const std::string& name : qlec::protocol_names())
    m["sim.cell_ms." + name] = median(cell_ms[name]);
  m["trace.overhead_ratio"] =
      median(traced["warm_p50_ms"]) / median(untraced["warm_p50_ms"]);
  return out;
}

}  // namespace perfbench
