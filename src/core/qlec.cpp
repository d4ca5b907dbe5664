#include "core/qlec.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"
#include "util/exec.hpp"
#include "util/simd.hpp"

namespace qlec {

namespace {

/// Regime-appropriate uplink normalization (see params.hpp): unless set,
/// scale the uplink y by the amplifier energy at the deployment's mean BS
/// distance.
QlecParams with_uplink_scale(QlecParams params, const RadioModel& radio,
                             const Network& net) {
  if (params.y_scale_bs <= 0.0 && net.size() > 0)
    params.y_scale_bs = radio.amp_energy(1.0, net.mean_dist_to_bs());
  return params;
}

}  // namespace

QlecProtocol::QlecProtocol(const Network& net, QlecParams params,
                           RadioModel radio, double death_line)
    : params_(with_uplink_scale(params, radio, net)),
      radio_(radio),
      death_line_(death_line),
      router_(params_, radio_, net.size()) {
  const double m_side = std::cbrt(std::max(net.domain().volume(), 0.0));
  if (params_.force_k > 0) {
    k_opt_ = static_cast<std::size_t>(params_.force_k);
  } else {
    k_opt_ = optimal_cluster_count_rounded(net.size(), m_side,
                                           net.mean_dist_to_bs(),
                                           radio_.params());
  }
  k_opt_ = std::clamp<std::size_t>(k_opt_, 1, std::max<std::size_t>(net.size(), 1));
  d_c_ = cluster_radius(m_side, static_cast<double>(k_opt_));
}

void QlecProtocol::on_round_start(Network& net, int round, Rng& rng,
                                  EnergyLedger& ledger) {
  cur_round_ = round;
  ImprovedDeecConfig cfg;
  cfg.p_opt = static_cast<double>(k_opt_) /
              static_cast<double>(std::max<std::size_t>(net.size(), 1));
  cfg.total_rounds = params_.total_rounds;
  cfg.coverage_radius = d_c_;
  cfg.use_energy_threshold = params_.use_energy_threshold;
  cfg.reduce_redundancy = params_.reduce_redundancy;
  cfg.top_up_to_k = params_.top_up_to_k;
  heads_ = improved_deec_elect(net, cfg, round, rng, death_line_,
                               &last_stats_, exec_);

  // Control plane: each surviving head broadcasts its HELLO across d_c, and
  // every alive node inside the coverage ball spends receive energy on it.
  if (params_.hello_bits > 0.0 && !heads_.empty()) charge_hello(net, ledger);

  router_.begin_round(net, heads_);
  // Seed each head's V with one model-based Eq. 15 backup (known y, prior
  // P estimate). Without this, never-elected heads keep the optimistic
  // V = 0 of initialization and members flood the freshest head every
  // round regardless of its uplink cost.
  for (const int h : heads_)
    router_.update_head_value(net, h, uplink_bits_hint_);

  if (telemetry_ != nullptr) {
    const ElectionStats& s = last_stats_;
    obs::MetricsRegistry& m = telemetry_->metrics();
    m.counter("qlec.election.elected").inc(s.elected);
    m.counter("qlec.election.pruned").inc(s.pruned);
    m.counter("qlec.election.drafted").inc(s.drafted);
    if (s.used_fallback) m.counter("qlec.election.fallbacks").inc();
    m.gauge("qlec.k_opt").set(static_cast<double>(k_opt_));
    m.gauge("qlec.router.q_evals")
        .set(static_cast<double>(router_.q_evaluations()));
    m.gauge("qlec.router.max_v_delta").set(router_.max_v_delta_this_round());
    telemetry_->emit(obs::Event("election_stats", round)
                         .with("alive", s.alive)
                         .with("eligible", s.eligible)
                         .with("elected", s.elected)
                         .with("pruned", s.pruned)
                         .with("drafted", s.drafted)
                         .with("final_heads", s.final_heads)
                         .with("k_opt", k_opt_)
                         .with("used_fallback", s.used_fallback));
    // Algorithm 3 fired: the redundancy pass actually removed heads.
    if (s.pruned > 0)
      telemetry_->emit(obs::Event("prune", round)
                           .with("pruned", s.pruned)
                           .with("final_heads", s.final_heads));
  }
}

void QlecProtocol::charge_hello(Network& net, EnergyLedger& ledger) {
  // Receiver-centric HELLO walk. In ascending head-id order, every head
  // pays its broadcast tx and every other node j pays one rx per head h
  // covering it (distance2(h, j) <= d_c², a symmetric predicate), gated on
  // j being operational *at that moment*. operational() reads only j's own
  // battery, so j's charge sequence is fixed by how many other covering
  // heads precede and follow it in id order and by whether j is a head.
  const std::size_t n = net.size();
  const std::size_t k = heads_.size();
  std::vector<double> hx(k), hy(k), hz(k);
  for (std::size_t s = 0; s < k; ++s) {
    const Vec3& p = net.node(heads_[s]).pos;
    hx[s] = p.x;
    hy[s] = p.y;
    hz[s] = p.z;
  }
  const double r2 = d_c_ * d_c_;

  // Parallel half (RNG-free, disjoint per-node writes): each block scans
  // the head set around its own nodes with the SIMD squared-distance
  // kernel (bit-identical to distance2; the head set is small, so a scan
  // beats a grid query) and counts the other covering heads.
  hello_cover_.resize(n);
  const simd::Kernels& kr = simd::kernels();
  for_blocks(exec_, n, [&](std::size_t begin, std::size_t end) {
    std::vector<double> d2(k);
    for (std::size_t id = begin; id < end; ++id) {
      const Vec3& p = net.node(static_cast<int>(id)).pos;
      kr.dist2_to_point(hx.data(), hy.data(), hz.data(), k, p.x, p.y, p.z,
                        d2.data());
      HelloCover c;
      for (std::size_t s = 0; s < k; ++s) {
        if (!(d2[s] <= r2)) continue;
        const auto h = static_cast<std::size_t>(heads_[s]);
        if (h < id) ++c.before;
        if (h > id) ++c.after;
      }
      hello_cover_[id] = c;
    }
  });

  // Serial half: commit the charges node by node in id order, so batteries
  // and every ledger bucket are the same at any block count.
  const double tx = radio_.tx_energy(params_.hello_bits, d_c_);
  const double rx = radio_.rx_energy(params_.hello_bits);
  for (std::size_t id = 0; id < n; ++id) {
    const int nid = static_cast<int>(id);
    SensorNode& node = net.node(nid);
    const auto hear = [&](std::uint32_t times) {
      for (; times > 0; --times)
        if (node.operational(death_line_))
          ledger.charge(EnergyUse::kControl, node.battery.consume(rx), nid);
    };
    const HelloCover& c = hello_cover_[id];
    hear(c.before);
    if (node.is_head)
      ledger.charge(EnergyUse::kControl, node.battery.consume(tx), nid);
    hear(c.after);
  }
}

int QlecProtocol::route(const Network& net, int src, double bits, Rng& rng) {
  uplink_bits_hint_ = bits;
  return router_.choose_target(net, src, bits, rng);
}

void QlecProtocol::on_tx_result(const Network& net, int src, int target,
                                bool success) {
  (void)net;
  router_.record_outcome(src, target, success);
}

void QlecProtocol::on_uplink_result(const Network& net, int head,
                                    bool success) {
  router_.record_outcome(head, kBaseStationId, success);
  router_.update_head_value(net, head, uplink_bits_hint_);
  if (telemetry_ != nullptr) {
    telemetry_->metrics().counter("qlec.q_updates").inc();
    if (telemetry_->per_packet_events())
      telemetry_->emit(obs::Event("q_update", cur_round_)
                           .with("head", head)
                           .with("success", success)
                           .with("v", router_.v(head)));
  }
}

}  // namespace qlec
