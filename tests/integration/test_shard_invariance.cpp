// Shard-invariance battery for the sharded round core (DESIGN.md §12).
//
// The determinism contract of util/exec.hpp is that sim.exec.shards is a
// pure performance knob: every shard count — including 1, the fully serial
// core — must produce bit-identical runs. This suite proves it end to end:
// for every protocol in the registry, the golden-trace digests, every
// energy-ledger bucket, the ledger total and (in audited runs) every
// per-node ledger total at shard counts {2, 3, 7, 16, 64} must equal the
// serial run's bit for bit, and the digests must equal the committed
// tests/golden/ files (so a sharded run can never drift from the frozen
// replay baseline either). Fault-storm and telemetry variants cover the
// paths where fanned-out phases interleave with fault liveness flips and
// observational instrumentation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"

namespace qlec {
namespace {

#ifndef QLEC_GOLDEN_DIR
#error "QLEC_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

// Shard counts chosen to hit the interesting decompositions: the serial
// baseline, even/odd splits, a count that does not divide typical node
// counts, one far above the pool width of any CI machine, and one above
// the golden scenario's 40 nodes (blocks cap at one node each).
const int kShardCounts[] = {1, 2, 3, 7, 16, 64};

/// The SAME frozen scenario as tests/sim/test_golden_traces.cpp — that is
/// the point: a sharded run must reproduce the committed digests exactly.
ExperimentConfig golden_config() {
  ExperimentConfig cfg;
  cfg.scenario.n = 40;
  cfg.sim.rounds = 10;
  cfg.sim.slots_per_round = 10;
  cfg.sim.trace.record = true;
  cfg.seeds = 2;
  cfg.base_seed = 42;
  cfg.protocol.qlec.total_rounds = 10;
  return cfg;
}

/// Everything one replication must reproduce bit for bit at any shard
/// count: the trace digest, then the raw bits of every ledger bucket, the
/// ledger total and (when the auditor enabled them) every per-node total.
struct RunBits {
  std::string digest;
  std::vector<std::uint64_t> ledger;

  friend bool operator==(const RunBits&, const RunBits&) = default;
  friend void PrintTo(const RunBits& r, std::ostream* os) {
    *os << r.digest << " ledger:" << std::hex;
    for (const std::uint64_t b : r.ledger) *os << ' ' << b;
    *os << std::dec;
  }
};

std::vector<RunBits> run_bits(const std::string& protocol,
                              ExperimentConfig cfg, int shards) {
  cfg.sim.exec.shards = shards;
  const auto results = run_replications(protocol, cfg);
  std::vector<RunBits> out;
  out.reserve(results.size());
  for (const SimResult& r : results) {
    RunBits run{trace_digest_hex(r.trace), {}};
    for (int u = 0; u < static_cast<int>(EnergyUse::kCount_); ++u)
      run.ledger.push_back(std::bit_cast<std::uint64_t>(
          r.energy.by_use(static_cast<EnergyUse>(u))));
    run.ledger.push_back(std::bit_cast<std::uint64_t>(r.energy.total()));
    for (const double j : r.energy.per_node())
      run.ledger.push_back(std::bit_cast<std::uint64_t>(j));
    out.push_back(std::move(run));
  }
  return out;
}

std::vector<std::string> digests_of(const std::vector<RunBits>& runs) {
  std::vector<std::string> out;
  for (const RunBits& r : runs) out.push_back(r.digest);
  return out;
}

std::vector<std::string> read_golden(const std::string& protocol) {
  std::ifstream in(std::string(QLEC_GOLDEN_DIR) + "/" + protocol + ".digest");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

TEST(ShardInvariance, EveryProtocolMatchesCommittedGoldensAtEveryShardCount) {
  const ExperimentConfig cfg = golden_config();
  for (const std::string& name : protocol_names()) {
    const std::vector<std::string> golden = read_golden(name);
    ASSERT_FALSE(golden.empty())
        << name << ": missing committed golden digests";
    const std::vector<RunBits> serial = run_bits(name, cfg, 1);
    EXPECT_EQ(digests_of(serial), golden)
        << name << " diverged from the committed goldens";
    for (const int shards : kShardCounts) {
      EXPECT_EQ(run_bits(name, cfg, shards), serial)
          << name << " diverged from the serial run at shards=" << shards
          << " — the sharded round core is NOT bit-identical to the "
          << "serial one.";
    }
  }
}

TEST(ShardInvariance, LargerScenarioIsShardCountInvariant) {
  // Big enough that the grid-backed assignment path engages (k_opt well
  // above the brute-scan threshold) and HELLO coverage balls overlap.
  ExperimentConfig cfg = golden_config();
  cfg.scenario.n = 300;
  cfg.seeds = 1;
  const std::vector<RunBits> serial = run_bits("qlec", cfg, 1);
  for (const int shards : kShardCounts)
    EXPECT_EQ(run_bits("qlec", cfg, shards), serial) << shards;
}

TEST(ShardInvariance, FaultStormDigestsAreShardCountInvariant) {
  // A dense fault mix: crashes, stuns, fades, degradation episodes and BS
  // outages all enabled, so shard-phase inputs (liveness, batteries)
  // churn mid-run. The fault layer draws from its own replayed stream;
  // sharding must not perturb it or the main stream.
  ExperimentConfig cfg = golden_config();
  cfg.sim.fault.enabled = true;
  cfg.sim.fault.hazards.crash_per_node = 0.02;
  cfg.sim.fault.hazards.stun_per_node = 0.04;
  cfg.sim.fault.hazards.fade_per_node = 0.02;
  cfg.sim.fault.hazards.degrade_episode = 0.15;
  cfg.sim.fault.hazards.bs_outage = 0.05;
  for (const std::string& name : protocol_names()) {
    const std::vector<RunBits> serial = run_bits(name, cfg, 1);
    for (const int shards : kShardCounts)
      EXPECT_EQ(run_bits(name, cfg, shards), serial)
          << name << " at shards=" << shards;
  }
}

TEST(ShardInvariance, TelemetryAndAuditRunsAreShardCountInvariant) {
  // Observational layers on top of the sharded core: neither telemetry
  // counters nor the per-round auditor may perturb — or be perturbed by —
  // the block decomposition. The audit also turns on per-node ledger
  // totals, which must match bit for bit too.
  ExperimentConfig cfg = golden_config();
  cfg.sim.telemetry.enabled = true;
  cfg.sim.audit.enabled = true;
  cfg.sim.audit.throw_on_violation = true;
  const std::vector<RunBits> serial = run_bits("qlec", cfg, 1);
  EXPECT_EQ(digests_of(serial), read_golden("qlec"))
      << "telemetry+audit must not change the trace";
  for (const int shards : kShardCounts)
    EXPECT_EQ(run_bits("qlec", cfg, shards), serial) << shards;
}

TEST(ShardInvariance, TerrainWorldDigestsAreShardCountInvariant) {
  // The full environment stack at once — terrain + obstacle occlusion,
  // underwater amp scaling, depth-decayed harvesting, and an orbiting
  // sink — on top of the audited sharded core. Env and trajectory are
  // RNG-free pure functions of geometry and the round index, so the
  // shard decomposition must not perturb a terrain-aware world either.
  ExperimentConfig cfg = golden_config();
  cfg.sim.audit.enabled = true;
  cfg.sim.audit.throw_on_violation = true;
  cfg.sim.env.enabled = true;
  cfg.sim.env.atten_per_unit = 0.015;
  cfg.sim.env.sever_depth = 120.0;
  cfg.sim.env.obstacles.push_back(
      EnvObstacle{Aabb{{40, 40, 0}, {120, 120, 160}}, 0.01});
  cfg.sim.env.terrain = EnvTerrain{true, 0.25, 0.5};
  cfg.sim.env.water = EnvWater{true, 0.9, 0.002, 0.005};
  cfg.sim.env.harvest = EnvHarvest{0.01, 0.02, 0.1};
  cfg.sim.bs_trajectory.kind = TrajectoryKind::kOrbit;
  cfg.sim.bs_trajectory.orbit_center = {100, 100, 190};
  cfg.sim.bs_trajectory.orbit_radius = 60.0;
  cfg.sim.bs_trajectory.orbit_period = 4;
  for (const std::string& name : {std::string("qlec"), std::string("leach")}) {
    const std::vector<RunBits> serial = run_bits(name, cfg, 1);
    for (const int shards : kShardCounts)
      EXPECT_EQ(run_bits(name, cfg, shards), serial)
          << name << " at shards=" << shards;
  }
}

TEST(ShardInvariance, ShardedRerunsAreBitIdentical) {
  // Same shard count twice: the pool schedule varies between runs, the
  // digests must not.
  ExperimentConfig cfg = golden_config();
  EXPECT_EQ(run_bits("qlec", cfg, 7), run_bits("qlec", cfg, 7));
}

}  // namespace
}  // namespace qlec
