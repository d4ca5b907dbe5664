// Intra-round execution context for the sharded round core (DESIGN.md §12).
//
// A round's RNG-free per-node phases — election precompute, HELLO coverage
// queries, nearest-head assignment — fan out over
// contiguous node-id blocks through `for_blocks`; everything RNG-consuming
// or order-sensitive stays on the calling thread and commits in canonical
// (node-id or head-index) order. The determinism contract: changing the
// shard count (including to 1) or the pool width must never change a
// single bit of simulation output — fanned-out phases perform only
// disjoint per-index writes of values that are themselves block-invariant.
//
// This reuses the ExecPolicy machinery one level down: the simulator owns a
// dedicated pool per run (ExecPolicy::pool semantics) precisely so a SimRun
// executing inside the *seed* fan-out pool never schedules block tasks onto
// the pool it is itself running on (nested parallel_for on one pool can
// deadlock). A null context runs every phase inline on the caller.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

#include "util/thread_pool.hpp"

namespace qlec {

/// Config-facing knobs ("sim.exec" in the JSON schema).
struct ExecOptions {
  /// Blocks per fanned-out round phase. 1 = the fully serial round core
  /// (default); > 1 fans RNG-free phases across an internal pool sized
  /// min(shards, hardware). Any value produces bit-identical output.
  int shards = 1;

  friend bool operator==(const ExecOptions&, const ExecOptions&) = default;
};

class ExecContext {
 public:
  /// `pool` is borrowed and must outlive this context.
  ExecContext(ThreadPool& pool, int shards)
      : pool_(pool), shards_(std::max(1, shards)) {}

  int shards() const noexcept { return shards_; }

  /// Splits [0, n) into min(shards, n) contiguous blocks and runs
  /// fn(begin, end) once per block — on the pool when there are several,
  /// inline on the caller when `exec` is null or there is one block.
  /// Blocks until all complete; exceptions propagate (first one wins,
  /// matching ThreadPool::parallel_for). Block boundaries are
  /// deterministic but must not matter: fn owns [begin, end) exclusively
  /// and performs only disjoint writes.
  friend void for_blocks(const ExecContext* exec, std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>&
                             fn) {
    const std::size_t blocks =
        exec == nullptr
            ? 1
            : std::min(static_cast<std::size_t>(exec->shards_), n);
    if (blocks <= 1) {
      if (n > 0) fn(0, n);
      return;
    }
    exec->pool_.parallel_for(blocks, [&fn, blocks, n](std::size_t b) {
      fn(b * n / blocks, (b + 1) * n / blocks);
    });
  }

 private:
  ThreadPool& pool_;
  int shards_;
};

}  // namespace qlec
