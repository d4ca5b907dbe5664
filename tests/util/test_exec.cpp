// for_blocks contract (util/exec.hpp): [0, n) is covered exactly once by at
// most min(shards, n) contiguous blocks, inline for a null context.
#include "util/exec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace qlec {
namespace {

std::vector<std::pair<std::size_t, std::size_t>> blocks_of(
    const ExecContext* exec, std::size_t n) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for_blocks(exec, n, [&](std::size_t begin, std::size_t end) {
    const std::lock_guard<std::mutex> lock(mu);
    out.emplace_back(begin, end);
  });
  return out;
}

TEST(ExecContext, ForBlocksCoversEveryIndexOnceInContiguousBlocks) {
  ThreadPool pool(3);
  for (const int shards : {1, 2, 3, 7, 64}) {
    const ExecContext exec(pool, shards);
    for (const std::size_t n : {0u, 1u, 5u, 40u, 1001u}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<std::size_t> blocks{0};
      for_blocks(&exec, n, [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        ++blocks;
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "shards=" << shards << " n=" << n;
      EXPECT_EQ(blocks.load(),
                std::min(static_cast<std::size_t>(shards), n))
          << "shards=" << shards << " n=" << n;
    }
  }
}

TEST(ExecContext, NullContextRunsOneInlineBlock) {
  EXPECT_TRUE(blocks_of(nullptr, 0).empty());
  const auto one = blocks_of(nullptr, 9);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], std::make_pair(std::size_t{0}, std::size_t{9}));
}

}  // namespace
}  // namespace qlec
