// The two node workloads: one QLEC deployment simulated again and again
// for the run's time budget, every repetition from the same seed.
//
//   qlec_traffic_100k  N = 100k, mean inter-arrival 4 slots, serial: the
//                      per-packet relay decision (route + ACK feedback)
//                      dominates.
//   qlec_rotation_1m   N = 1M, mean inter-arrival 200 slots, 4 shards: head
//                      rotation (election, HELLO, assignment, prefill) and
//                      the simulator's per-round refresh dominate, and the
//                      sharded ExecContext paths run.
//
// Both use the perf_scaling density (m_side = 200 * cbrt(N / 100)), 20
// slots per round and death_line = -1 so every node lives throughout.
#include <cmath>
#include <map>
#include <stdexcept>

#include "common.hpp"
#include "sim/experiment.hpp"
#include "sim/protocols/registry.hpp"
#include "timing_protocol.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMinSetups = 15;
constexpr int kProbesPerRep = 5;

struct NodeSpec {
  std::size_t n;
  int rounds;
  double mean_interarrival;
  int shards;
};

NodeSpec node_spec(const std::string& workload) {
  if (workload == "qlec_traffic_100k") return {100000, 5, 4.0, 1};
  if (workload == "qlec_rotation_1m") return {1000000, 8, 200.0, 4};
  throw std::invalid_argument("unknown node workload: " + workload);
}

qlec::ExperimentConfig node_config(const NodeSpec& s, std::uint64_t seed) {
  qlec::ExperimentConfig cfg;
  cfg.scenario.n = s.n;
  cfg.scenario.m_side = 200.0 * std::cbrt(static_cast<double>(s.n) / 100.0);
  cfg.scenario.initial_energy = 5.0;
  cfg.sim.rounds = s.rounds;
  cfg.sim.slots_per_round = 20;
  cfg.sim.mean_interarrival = s.mean_interarrival;
  cfg.sim.death_line = -1.0;
  cfg.sim.trace.record = true;
  cfg.sim.exec.shards = s.shards;
  cfg.protocol.qlec.total_rounds = s.rounds;
  cfg.seeds = 1;
  cfg.base_seed = seed;
  return cfg;
}

/// One simulation run, timed from the outside.
struct Rep {
  double build_s = 0, protocol_s = 0, sim_s = 0;
  LayerLedger ledger;
  qlec::SimResult result;
  std::string digest;
};

/// The set-up of one replication, as run_replications does it.
struct SetUp {
  qlec::Network net;
  std::unique_ptr<qlec::ClusteringProtocol> protocol;
  double build_s = 0, protocol_s = 0;
};

SetUp set_up(const std::string& protocol, const qlec::ExperimentConfig& cfg) {
  const Clock::time_point t0 = Clock::now();
  SetUp s{qlec::build_network(cfg, cfg.base_seed), nullptr};
  const Clock::time_point t1 = Clock::now();
  qlec::ProtocolOptions opts = cfg.protocol;
  opts.death_line = cfg.sim.death_line;
  s.protocol = qlec::make_protocol(protocol, s.net, opts);
  s.build_s = seconds_between(t0, t1);
  s.protocol_s = seconds_between(t1, Clock::now());
  return s;
}

/// The cfg.base_seed replication of `protocol` exactly as run_replications
/// does it, with the protocol wrapped in the timing decorator.
Rep run_wrapped(const std::string& protocol, const qlec::ExperimentConfig& cfg,
                bool traced) {
  Rep rep;
  rep.ledger.per_call = traced;
  SetUp s = set_up(protocol, cfg);
  rep.build_s = s.build_s;
  rep.protocol_s = s.protocol_s;
  TimingProtocol wrapped(std::move(s.protocol), rep.ledger,
                         cfg.sim.death_line);
  qlec::Rng rng(cfg.base_seed ^ 0xD1B54A32D192ED03ULL);
  wrapped.begin_run();
  const Clock::time_point t0 = Clock::now();
  rep.result = qlec::run_simulation(s.net, wrapped, cfg.sim, rng);
  rep.sim_s = seconds_between(t0, Clock::now());
  wrapped.end_run();
  rep.digest = qlec::trace_digest_hex(rep.result.trace);
  // The trace and per-node vectors are large at 1M; keep only counts.
  rep.result.trace.clear();
  rep.result.per_node_consumed.clear();
  rep.result.per_node_rate.clear();
  return rep;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

template <class F>
double median_of(const std::vector<Rep>& reps, F f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return median(v);
}

/// Exact work counts that must repeat bit-for-bit across traced
/// repetitions of one seed.
std::vector<std::uint64_t> exact_counts(const Rep& r) {
  const LayerLedger& l = r.ledger;
  return {l.rounds,   l.route_calls,    l.to_bs,      l.feedback_calls,
          l.feedback_acks, l.uplink_calls, l.uplink_acks, l.q_evals,
          l.eligible, l.elected,        l.pruned,     l.drafted,
          l.heads};
}

/// A "request" on a node workload is one complete run (set-up +
/// simulation), its "cell" the simulation alone, and its rounds the warm
/// (round 1 on) and cold (round 0) latencies. Each figure is taken per
/// repetition, and the run reports its median over the repetitions.
void end_to_end_metrics(const std::vector<Rep>& reps,
                        const std::vector<double>& setup_s, RunResult& out) {
  std::map<std::string, std::vector<double>> per_rep;
  for (const Rep& r : reps) {
    const std::vector<double>& rounds = r.ledger.round_s;
    double run_s = 0;
    for (const double s : rounds) run_s += s;
    const std::vector<double> warm(rounds.begin() + 1, rounds.end());
    per_rep["rounds_per_s"].push_back(
        ratio(static_cast<double>(rounds.size()), run_s));
    per_rep["packets_per_s"].push_back(
        ratio(static_cast<double>(r.result.generated), run_s));
    per_rep["requests_per_s"].push_back(
        ratio(1.0, r.build_s + r.protocol_s + run_s));
    per_rep["warm_p50_ms"].push_back(1e3 * median(warm));
    per_rep["warm_p99_ms"].push_back(1e3 * quantile(warm, 0.99));
    per_rep["cold_p50_ms"].push_back(1e3 * rounds.front());
    per_rep["cold_cells_per_s"].push_back(ratio(1.0, run_s));
  }
  for (const auto& [name, values] : per_rep)
    out.metrics[name] = median(values);
  out.metrics["setup_s"] = median(setup_s);
}

void per_layer_metrics(const std::vector<Rep>& reps,
                       const std::vector<double>& build_s,
                       const std::vector<double>& protocol_s,
                       RunResult& out) {
  std::vector<Rep> traced, plain;
  for (const Rep& r : reps) (r.ledger.per_call ? traced : plain).push_back(r);
  const Rep& first = traced.front();
  const LayerLedger& l = first.ledger;
  const double rounds = static_cast<double>(l.rounds);
  auto& m = out.metrics;
  auto busy = [&](double LayerLedger::*field) {
    return median_of(traced, [field](const Rep& r) { return r.ledger.*field; });
  };
  m["setup.build_network_s"] = median(build_s);
  m["setup.make_protocol_s"] = median(protocol_s);
  m["core.election.busy_s"] = busy(&LayerLedger::election_s);
  m["core.election.calls"] = rounds;
  m["core.election.eligible"] = static_cast<double>(l.eligible);
  m["core.election.elected"] = static_cast<double>(l.elected);
  m["core.election.pruned"] = static_cast<double>(l.pruned);
  m["core.election.drafted"] = static_cast<double>(l.drafted);
  m["core.election.heads_mean"] = ratio(static_cast<double>(l.heads), rounds);
  m["core.prepare_tx.busy_s"] = busy(&LayerLedger::prepare_s);
  m["core.prepare_tx.rows_used_ratio"] = ratio(l.rows_used_ratio_sum, rounds);
  m["core.route.busy_s"] = busy(&LayerLedger::route_s);
  m["core.route.calls"] = static_cast<double>(l.route_calls);
  m["core.route.q_evals"] = static_cast<double>(l.q_evals);
  m["core.route.q_evals_per_call"] = ratio(static_cast<double>(l.q_evals),
                                           static_cast<double>(l.route_calls));
  m["core.route.to_bs_share"] = ratio(static_cast<double>(l.to_bs),
                                      static_cast<double>(l.route_calls));
  m["core.feedback.busy_s"] = busy(&LayerLedger::feedback_s);
  m["core.feedback.calls"] = static_cast<double>(l.feedback_calls);
  m["core.feedback.ack_ratio"] =
      ratio(static_cast<double>(l.feedback_acks),
            static_cast<double>(l.feedback_calls));
  m["core.uplink.busy_s"] = busy(&LayerLedger::uplink_s);
  m["core.uplink.calls"] = static_cast<double>(l.uplink_calls);
  m["core.uplink.ack_ratio"] = ratio(static_cast<double>(l.uplink_acks),
                                     static_cast<double>(l.uplink_calls));
  m["sim.refresh_s"] = busy(&LayerLedger::refresh_s);
  m["sim.transmission_self_s"] = busy(&LayerLedger::tx_self_s);
  m["sim.uplink_self_s"] = busy(&LayerLedger::uplink_self_s);
  m["sim.between_rounds_s"] = busy(&LayerLedger::between_s);
  m["sim.generated"] = static_cast<double>(first.result.generated);
  m["sim.delivered"] = static_cast<double>(first.result.delivered);
  m["sim.lost_link"] = static_cast<double>(first.result.lost_link);
  m["sim.lost_queue"] = static_cast<double>(first.result.lost_queue);
  m["sim.lost_dead"] = static_cast<double>(first.result.lost_dead);
  m["sim.run_s"] = median_of(traced, [](const Rep& r) { return r.sim_s; });
  m["mem.rss_round1_mb"] = l.rss_round1_mb;
  m["mem.rss_growth_mb"] = l.rss_max_mb - l.rss_round1_mb;
  m["trace.overhead_ratio"] =
      ratio(median_of(traced, [](const Rep& r) { return r.sim_s; }),
            median_of(plain, [](const Rep& r) { return r.sim_s; }));
}

}  // namespace

RunResult run_node_workload(const RunArgs& args) {
  const NodeSpec spec = node_spec(args.workload);
  const qlec::ExperimentConfig cfg = node_config(spec, args.seed);
  RunResult out;
  std::vector<Rep> reps;
  std::vector<double> setup_s, build_s, protocol_s;

  // A traced run alternates untraced and traced repetitions, so the trace
  // overhead is measured on the same seed in the same process.
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  while (reps.size() < 2 || Clock::now() < deadline) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    for (int i = 0; i < kProbesPerRep; ++i) out.probes.push_back(probe_ms());
    Rep rep = run_wrapped("qlec", cfg, traced);
    ++out.attempted;
    if (!reps.empty() && rep.digest != reps.front().digest)
      out.fail("repetition " + std::to_string(reps.size()) + " digest " +
               rep.digest + " != " + reps.front().digest);
    if (traced) {
      for (const Rep& r : reps)
        if (r.ledger.per_call && exact_counts(r) != exact_counts(rep)) {
          out.fail("traced repetition " + std::to_string(reps.size()) +
                   " work counts differ from the first traced one");
          break;
        }
    }
    // Later repetitions can only raise the high-water mark through
    // allocator reuse, and how many fit depends on the host's speed.
    if (reps.empty()) out.metrics["peak_rss_mb"] = peak_rss_mb();
    setup_s.push_back(rep.build_s + rep.protocol_s);
    build_s.push_back(rep.build_s);
    protocol_s.push_back(rep.protocol_s);
    reps.push_back(std::move(rep));
  }
  out.digest = reps.front().digest;

  // setup_s is a median of at least kMinSetups set-ups, also when the
  // window fits fewer repetitions.
  while (setup_s.size() < kMinSetups) {
    const SetUp s = set_up("qlec", cfg);
    setup_s.push_back(s.build_s + s.protocol_s);
    build_s.push_back(s.build_s);
    protocol_s.push_back(s.protocol_s);
  }

  if (args.trace)
    per_layer_metrics(reps, build_s, protocol_s, out);
  else
    end_to_end_metrics(reps, setup_s, out);
  return out;
}

namespace {

/// A protocol that records which of the decorator's forwards reached it:
/// no heads, every packet straight to the BS, one "learning update" per
/// route call. Digests cannot show whether set_exec, set_telemetry or
/// prepare_tx were forwarded (they are behaviourally invisible), so the
/// self-test asks this protocol instead.
class ForwardingProbe final : public qlec::ClusteringProtocol {
 public:
  explicit ForwardingProbe(bool flat) : flat_(flat) {}
  std::string name() const override { return "forwarding-probe"; }
  bool flat_routing() const override { return flat_; }
  void on_round_start(qlec::Network& net, int, qlec::Rng&,
                      qlec::EnergyLedger&) override {
    net.reset_heads();
  }
  int route(const qlec::Network&, int, double, qlec::Rng&) override {
    ++routes_;
    return qlec::kBaseStationId;
  }
  std::size_t learning_updates() const override { return routes_; }
  void prepare_tx(const qlec::Network&, double) override { ++prepares_; }
  void set_exec(qlec::ExecContext* exec) override {
    saw_exec_ = saw_exec_ || exec != nullptr;
    ClusteringProtocol::set_exec(exec);
  }
  void set_telemetry(qlec::obs::Telemetry* telemetry) override {
    saw_telemetry_ = saw_telemetry_ || telemetry != nullptr;
    ClusteringProtocol::set_telemetry(telemetry);
  }

  bool flat_;
  std::size_t routes_ = 0, prepares_ = 0;
  bool saw_exec_ = false, saw_telemetry_ = false;
};

/// Runs a ForwardingProbe behind the decorator, traced and untraced, at 4
/// shards with telemetry on; returns one message per forward that did not
/// reach it.
std::vector<std::string> forwarding_selftest(qlec::ExperimentConfig cfg) {
  std::vector<std::string> errors;
  cfg.sim.exec.shards = 4;
  cfg.sim.telemetry.enabled = true;
  cfg.sim.telemetry.sink = qlec::obs::TelemetryOptions::Sink::kNull;
  for (const int variant : {0, 1, 2, 3}) {
    const bool flat = variant % 2 == 1, traced = variant >= 2;
    qlec::Network net = qlec::build_network(cfg, cfg.base_seed);
    auto inner = std::make_unique<ForwardingProbe>(flat);
    const ForwardingProbe& probe = *inner;
    LayerLedger ledger;
    ledger.per_call = traced;
    TimingProtocol wrapped(std::move(inner), ledger, cfg.sim.death_line);
    qlec::Rng rng(cfg.base_seed);
    const qlec::SimResult r = qlec::run_simulation(net, wrapped, cfg.sim, rng);
    const std::string what = std::string(flat ? " (flat" : " (clustered") +
                             (traced ? ", traced)" : ")");
    if (wrapped.flat_routing() != flat)
      errors.push_back("flat_routing not forwarded" + what);
    if (!probe.saw_exec_) errors.push_back("set_exec not forwarded" + what);
    if (!probe.saw_telemetry_)
      errors.push_back("set_telemetry not forwarded" + what);
    if (probe.prepares_ == 0) errors.push_back("prepare_tx not forwarded" + what);
    if (probe.routes_ == 0 || r.q_evaluations != probe.routes_)
      errors.push_back("learning_updates not forwarded" + what);
  }
  return errors;
}

}  // namespace

std::vector<std::string> decorator_selftest() {
  qlec::ExperimentConfig cfg;
  cfg.scenario.n = 60;
  cfg.sim.rounds = 6;
  cfg.sim.slots_per_round = 10;
  cfg.sim.trace.record = true;
  cfg.protocol.qlec.total_rounds = 6;
  cfg.seeds = 1;
  cfg.base_seed = 7;
  std::vector<std::string> errors = forwarding_selftest(cfg);
  struct Case {
    std::string protocol;
    int shards;
  };
  std::vector<Case> cases;
  for (const std::string& name : qlec::protocol_names())
    cases.push_back({name, 1});
  cases.push_back({"qlec", 4});
  for (const Case& c : cases) {
    cfg.sim.exec.shards = c.shards;
    const qlec::SimResult want = qlec::run_replications(c.protocol, cfg)[0];
    const std::string want_digest = qlec::trace_digest_hex(want.trace);
    for (const bool traced : {false, true}) {
      const Rep got = run_wrapped(c.protocol, cfg, traced);
      const std::string where = c.protocol + " (shards " +
                                std::to_string(c.shards) +
                                (traced ? ", traced" : "") + ")";
      if (got.digest != want_digest)
        errors.push_back("wrapping " + where + " changed digest " +
                         want_digest + " to " + got.digest);
      if (got.result.q_evaluations != want.q_evaluations ||
          (traced && got.ledger.q_evals != want.q_evaluations))
        errors.push_back("wrapping " + where + " changed the learning "
                         "update count");
    }
  }
  return errors;
}

}  // namespace perfbench
