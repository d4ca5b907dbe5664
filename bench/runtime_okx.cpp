// Theorem 3 runtime microbenchmarks (google-benchmark):
//   * Send-Data (Algorithm 4) cost scales linearly in k (k+1 Q
//     evaluations per call) -> O(kX) once X updates are needed.
//   * Cluster head selection (Algorithms 2+3) is O(N) per round.
// Complexity is reported via benchmark's oN/oNSquared fitting.
#include <benchmark/benchmark.h>

#include "core/improved_deec.hpp"
#include "core/optimal_k.hpp"
#include "core/qlec_routing.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace qlec;

Network make_net(std::size_t n, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.n = n;
  Rng rng(seed);
  return make_uniform_network(cfg, rng);
}

// Algorithm 4: one Send-Data call as a function of cluster count k.
void BM_SendDataVsK(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Network net = make_net(k + 64, 1);
  QlecParams params;
  params.epsilon = 0.0;
  QlecRouter router(params, RadioModel{}, net.size());
  std::vector<int> heads;
  for (std::size_t i = 0; i < k; ++i) heads.push_back(static_cast<int>(i));
  router.begin_round(net, heads);
  Rng rng(2);
  const int src = static_cast<int>(k + 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.choose_target(net, src, 4000.0, rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SendDataVsK)->RangeMultiplier(2)->Range(2, 256)->Complexity();

// Algorithms 2+3: one election round as a function of N.
void BM_HeadSelectionVsN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Network net = make_net(n, 3);
  ImprovedDeecConfig cfg;
  cfg.p_opt = 0.05;
  cfg.total_rounds = 1000000;  // keep Eq. 2 average stable
  cfg.coverage_radius =
      cluster_radius(200.0, 0.05 * static_cast<double>(n));
  Rng rng(4);
  int round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        improved_deec_elect(net, cfg, round++, rng, 0.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HeadSelectionVsN)
    ->RangeMultiplier(2)
    ->Range(64, 4096)
    ->Complexity();

// V-update cost per head (Algorithm 1 line 15) is O(1).
void BM_HeadValueUpdate(benchmark::State& state) {
  Network net = make_net(128, 5);
  QlecRouter router(QlecParams{}, RadioModel{}, net.size());
  router.begin_round(net, {1, 2, 3});
  for (auto _ : state) {
    router.update_head_value(net, 1, 2000.0);
  }
}
BENCHMARK(BM_HeadValueUpdate);

// Convergence measurement: how many Send-Data sweeps (X) until the max V
// delta per round falls below tolerance, as a function of k. Reported as
// the X counter of Theorem 3 rather than wall time.
void BM_ConvergenceUpdatesX(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::size_t x_updates = 0;
  for (auto _ : state) {
    Network net = make_net(k + 64, 6);
    QlecParams params;
    params.epsilon = 0.0;
    QlecRouter router(params, RadioModel{}, net.size());
    std::vector<int> heads;
    for (std::size_t i = 0; i < k; ++i)
      heads.push_back(static_cast<int>(i));
    Rng rng(7);
    std::size_t sweeps = 0;
    for (; sweeps < 500; ++sweeps) {
      router.begin_round(net, heads);
      for (std::size_t src = k; src < net.size(); ++src)
        router.choose_target(net, static_cast<int>(src), 4000.0, rng);
      if (router.max_v_delta_this_round() < 1e-9) break;
    }
    x_updates = router.q_evaluations();
    benchmark::DoNotOptimize(sweeps);
  }
  state.counters["X_q_evaluations"] =
      static_cast<double>(x_updates);
}
BENCHMARK(BM_ConvergenceUpdatesX)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
