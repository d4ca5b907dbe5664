#include "timing_protocol.hpp"

#include <algorithm>

#include "core/qlec.hpp"

namespace perfbench {

namespace {

/// A clock read around each of the ~7M route/feedback calls of a 100k run
/// made it 40% slower, so only every kStride-th per-packet call is timed and
/// its time scaled by kStride; at 31 the traced 100k run is about 2% slower
/// than the untraced one.
constexpr std::uint32_t kStride = 31;

/// Cost of one steady_clock read: the median gap between back-to-back
/// reads. A timed call spans about one read more than the call itself.
double measure_clock_cost() {
  std::vector<double> gaps(256);
  for (double& g : gaps) {
    const Clock::time_point a = Clock::now();
    const Clock::time_point b = Clock::now();
    g = seconds_between(a, b);
  }
  return median(gaps);
}

}  // namespace

TimingProtocol::TimingProtocol(std::unique_ptr<qlec::ClusteringProtocol> inner,
                               LayerLedger& ledger, double death_line)
    : inner_(std::move(inner)),
      qlec_(dynamic_cast<const qlec::QlecProtocol*>(inner_.get())),
      ledger_(ledger),
      death_line_(death_line),
      route_countdown_(kStride),
      feedback_countdown_(kStride) {
  if (ledger_.per_call) clock_cost_s_ = measure_clock_cost();
}

void TimingProtocol::begin_run() {
  mark_ = round_mark_ = Clock::now();
  window_ = Window::kBetween;
  q_evals_at_start_ = inner_->learning_updates();
}

void TimingProtocol::end_run() {
  if (ledger_.per_call) {
    ledger_.between_s += seconds_between(mark_, Clock::now());
    ledger_.q_evals = inner_->learning_updates() - q_evals_at_start_;
  }
}

void TimingProtocol::close_window(Clock::time_point now) {
  const double span = seconds_between(mark_, now) - window_busy_s_;
  if (window_ == Window::kTx) ledger_.tx_self_s += span;
  if (window_ == Window::kUplink) ledger_.uplink_self_s += span;
  window_busy_s_ = 0;
  mark_ = now;
}

void TimingProtocol::on_round_start(qlec::Network& net, int round,
                                    qlec::Rng& rng,
                                    qlec::EnergyLedger& ledger) {
  if (!ledger_.per_call)
    return inner_->on_round_start(net, round, rng, ledger);
  const Clock::time_point t0 = Clock::now();
  ledger_.between_s += seconds_between(mark_, t0);
  inner_->on_round_start(net, round, rng, ledger);
  const Clock::time_point t1 = Clock::now();
  ledger_.election_s += seconds_between(t0, t1);
  if (qlec_ != nullptr) {
    const qlec::ElectionStats& e = qlec_->last_election();
    ledger_.eligible += static_cast<std::uint64_t>(e.eligible);
    ledger_.elected += static_cast<std::uint64_t>(e.elected);
    ledger_.pruned += static_cast<std::uint64_t>(e.pruned);
    ledger_.drafted += static_cast<std::uint64_t>(e.drafted);
    ledger_.heads += static_cast<std::uint64_t>(e.final_heads);
  }
  mark_ = t1;
  window_ = Window::kRefresh;
}

void TimingProtocol::prepare_tx(const qlec::Network& net, double packet_bits) {
  if (!ledger_.per_call)
    return inner_->prepare_tx(net, packet_bits);
  const Clock::time_point t0 = Clock::now();
  ledger_.refresh_s += seconds_between(mark_, t0);
  inner_->prepare_tx(net, packet_bits);
  const Clock::time_point t1 = Clock::now();
  ledger_.prepare_s += seconds_between(t0, t1);
  // Members that could route this round: alive, reachable, not a head.
  // Counted outside the timed windows (the next window opens below).
  routed_.assign(net.size(), 0);
  distinct_sources_ = 0;
  alive_members_ = 0;
  for (const qlec::SensorNode& node : net.nodes())
    if (!node.is_head && node.operational(death_line_)) ++alive_members_;
  mark_ = Clock::now();
  window_ = Window::kTx;
  window_busy_s_ = 0;
}

int TimingProtocol::route(const qlec::Network& net, int src, double bits,
                          qlec::Rng& rng) {
  if (!ledger_.per_call)
    return inner_->route(net, src, bits, rng);
  ++ledger_.route_calls;
  std::uint8_t& seen = routed_[static_cast<std::size_t>(src)];
  distinct_sources_ += seen == 0 ? 1 : 0;
  seen = 1;
  int target;
  if (--route_countdown_ == 0) {
    route_countdown_ = kStride;
    const Clock::time_point t0 = Clock::now();
    target = inner_->route(net, src, bits, rng);
    const double est =
        std::max(0.0, seconds_between(t0, Clock::now()) - clock_cost_s_) *
        kStride;
    ledger_.route_s += est;
    window_busy_s_ += est;
  } else {
    target = inner_->route(net, src, bits, rng);
  }
  if (target == qlec::kBaseStationId) ++ledger_.to_bs;
  return target;
}

void TimingProtocol::on_tx_result(const qlec::Network& net, int src,
                                  int target, bool success) {
  if (!ledger_.per_call)
    return inner_->on_tx_result(net, src, target, success);
  ++ledger_.feedback_calls;
  if (success) ++ledger_.feedback_acks;
  if (--feedback_countdown_ == 0) {
    feedback_countdown_ = kStride;
    const Clock::time_point t0 = Clock::now();
    inner_->on_tx_result(net, src, target, success);
    const double est =
        std::max(0.0, seconds_between(t0, Clock::now()) - clock_cost_s_) *
        kStride;
    ledger_.feedback_s += est;
    window_busy_s_ += est;
  } else {
    inner_->on_tx_result(net, src, target, success);
  }
}

int TimingProtocol::uplink_target(const qlec::Network& net, int head,
                                  qlec::Rng& rng) {
  if (ledger_.per_call && window_ == Window::kTx) {
    close_window(Clock::now());
    window_ = Window::kUplink;
  }
  return inner_->uplink_target(net, head, rng);
}

void TimingProtocol::on_uplink_result(const qlec::Network& net, int head,
                                      bool success) {
  if (!ledger_.per_call)
    return inner_->on_uplink_result(net, head, success);
  ++ledger_.uplink_calls;
  if (success) ++ledger_.uplink_acks;
  const Clock::time_point t0 = Clock::now();
  inner_->on_uplink_result(net, head, success);
  const double d = std::max(0.0, seconds_between(t0, Clock::now()) -
                                     clock_cost_s_);
  ledger_.uplink_s += d;
  window_busy_s_ += d;
}

void TimingProtocol::on_round_end(qlec::Network& net, int round) {
  const Clock::time_point t0 = Clock::now();
  if (ledger_.per_call) {
    close_window(t0);
    if (alive_members_ > 0)
      ledger_.rows_used_ratio_sum += static_cast<double>(distinct_sources_) /
                                      static_cast<double>(alive_members_);
  }
  inner_->on_round_end(net, round);
  const Clock::time_point t1 = Clock::now();
  ++ledger_.rounds;
  ledger_.round_s.push_back(seconds_between(round_mark_, t1));
  round_mark_ = t1;
  if (ledger_.per_call) {
    const double rss = rss_mb();
    if (ledger_.rounds == 1) ledger_.rss_round1_mb = rss;
    ledger_.rss_max_mb = std::max(ledger_.rss_max_mb, rss);
    // on_round_end itself is simulator-side bookkeeping time; the RSS
    // probe is not.
    ledger_.between_s += seconds_between(t0, t1);
    mark_ = Clock::now();
    window_ = Window::kBetween;
  }
}

void TimingProtocol::set_exec(qlec::ExecContext* exec) {
  ClusteringProtocol::set_exec(exec);
  inner_->set_exec(exec);
}

void TimingProtocol::set_telemetry(qlec::obs::Telemetry* telemetry) {
  ClusteringProtocol::set_telemetry(telemetry);
  inner_->set_telemetry(telemetry);
}

}  // namespace perfbench
