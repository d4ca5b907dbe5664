// The timing decorator: a ClusteringProtocol that wraps the protocol from
// make_protocol, forwards every virtual, and records where a run's time
// goes from the outside — the program itself carries no spans. Because
// the simulator calls the protocol at fixed points of each round, the gaps
// between those calls are the simulator's own time:
//
//   between  on_round_end (or run start) -> on_round_start
//            (mobility, region partition, lifespan bookkeeping)
//   election on_round_start
//   refresh  on_round_start -> prepare_tx (round-state refresh)
//   prepare  prepare_tx
//   tx       prepare_tx -> first uplink_target (route + ACK feedback calls
//            are subtracted, leaving the simulator's transmission self time)
//   uplink   first uplink_target -> on_round_end (on_uplink_result calls
//            subtracted)
//
// Per-packet calls (route, on_tx_result) are millions per run, so only a
// fixed-stride sample of them is timed and scaled up (timing_protocol.cpp);
// their call counts stay exact. The neutrality self-test proves that wrapping, traced or not,
// changes no digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/protocol.hpp"

namespace qlec {
class QlecProtocol;
}

namespace perfbench {

/// Time and work of one simulation run, as seen from the decorator.
struct LayerLedger {
  /// false: only round boundaries are clocked (end-to-end runs);
  /// true: every layer is timed and counted (traced runs).
  bool per_call = false;

  // Seconds.
  double between_s = 0, election_s = 0, refresh_s = 0, prepare_s = 0;
  double tx_self_s = 0, uplink_self_s = 0;
  double route_s = 0, feedback_s = 0, uplink_s = 0;  // sampled estimates
  // Exact counts.
  std::uint64_t rounds = 0;
  std::uint64_t route_calls = 0, to_bs = 0;
  std::uint64_t feedback_calls = 0, feedback_acks = 0;
  std::uint64_t uplink_calls = 0, uplink_acks = 0;
  std::uint64_t q_evals = 0;
  // Election totals over rounds (QLEC only).
  std::uint64_t eligible = 0, elected = 0, pruned = 0, drafted = 0,
                heads = 0;
  /// Sum over rounds of distinct routing sources / alive members.
  double rows_used_ratio_sum = 0;
  /// RSS after the first round and the highest RSS seen at a round end.
  double rss_round1_mb = 0, rss_max_mb = 0;
  /// Wall seconds of each round, run start or previous round end to
  /// this round's end.
  std::vector<double> round_s;
};

class TimingProtocol final : public qlec::ClusteringProtocol {
 public:
  /// Records into `ledger`, which must outlive the wrapper. `death_line`
  /// decides which members count as alive for
  /// core.prepare_tx.rows_used_ratio.
  TimingProtocol(std::unique_ptr<qlec::ClusteringProtocol> inner,
                 LayerLedger& ledger, double death_line);

  /// Marks run_simulation's start and end; call right around it.
  void begin_run();
  void end_run();

  std::string name() const override { return inner_->name(); }
  bool flat_routing() const override { return inner_->flat_routing(); }
  void on_round_start(qlec::Network& net, int round, qlec::Rng& rng,
                      qlec::EnergyLedger& ledger) override;
  int route(const qlec::Network& net, int src, double bits,
            qlec::Rng& rng) override;
  int uplink_target(const qlec::Network& net, int head,
                    qlec::Rng& rng) override;
  void on_tx_result(const qlec::Network& net, int src, int target,
                    bool success) override;
  void on_uplink_result(const qlec::Network& net, int head,
                        bool success) override;
  void on_round_end(qlec::Network& net, int round) override;
  std::size_t learning_updates() const override {
    return inner_->learning_updates();
  }
  void prepare_tx(const qlec::Network& net, double packet_bits) override;
  void set_exec(qlec::ExecContext* exec) override;
  void set_telemetry(qlec::obs::Telemetry* telemetry) override;

 private:
  enum class Window { kBetween, kRefresh, kTx, kUplink };
  /// Charges the open tx/uplink window up to `now`, minus the protocol
  /// time spent inside it.
  void close_window(Clock::time_point now);

  std::unique_ptr<qlec::ClusteringProtocol> inner_;
  const qlec::QlecProtocol* qlec_ = nullptr;  // for election counts
  LayerLedger& ledger_;
  double death_line_;
  std::uint32_t route_countdown_, feedback_countdown_;
  double clock_cost_s_ = 0;  // one clock read, subtracted per sample

  Window window_ = Window::kBetween;
  Clock::time_point mark_{};        // start of the open window
  Clock::time_point round_mark_{};  // end of the previous round
  double window_busy_s_ = 0;        // protocol time inside the window
  std::size_t q_evals_at_start_ = 0;
  std::vector<std::uint8_t> routed_;  // per node: routed this round
  std::uint64_t distinct_sources_ = 0;
  std::uint64_t alive_members_ = 0;
};

}  // namespace perfbench
