// The StagePipeline oracle kept in tests/support/reference_communicator.h:
// the op table's admission rule and launch order are checked against it by
// CommunicatorDifferential, so the oracle itself stays pinned here.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tests/support/reference_communicator.h"

namespace hpn::reference {
namespace {

TEST(StagePipeline, RunsAllChunksThroughAllStages) {
  std::vector<std::pair<int, int>> log;  // (stage, chunk)
  bool done = false;
  auto p = StagePipeline::create(
      {
          [&](int chunk, std::function<void()> next) {
            log.emplace_back(0, chunk);
            next();
          },
          [&](int chunk, std::function<void()> next) {
            log.emplace_back(1, chunk);
            next();
          },
      },
      3, [&] { done = true; });
  p->start();
  EXPECT_TRUE(done);
  EXPECT_EQ(log.size(), 6u);
  // Each chunk passes stage 0 before stage 1.
  for (int c = 0; c < 3; ++c) {
    auto pos = [&](int stage, int chunk) {
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i] == std::make_pair(stage, chunk)) return static_cast<int>(i);
      }
      return -1;
    };
    EXPECT_LT(pos(0, c), pos(1, c));
  }
}

TEST(StagePipeline, StageSerializesChunksInOrder) {
  std::vector<int> stage0_order;
  bool done = false;
  auto p = StagePipeline::create(
      {
          [&](int chunk, std::function<void()> next) {
            stage0_order.push_back(chunk);
            next();
          },
      },
      5, [&] { done = true; });
  p->start();
  EXPECT_TRUE(done);
  EXPECT_EQ(stage0_order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(StagePipeline, DeferredCompletionOverlapsStages) {
  // Hold stage-0 chunk-1's completion until stage 1 has started chunk 0:
  // proves the pipeline runs stages concurrently across chunks.
  std::function<void()> release_stage0_chunk1;
  std::vector<std::pair<int, int>> started;
  bool done = false;
  auto p = StagePipeline::create(
      {
          [&](int chunk, std::function<void()> next) {
            started.emplace_back(0, chunk);
            if (chunk == 1) {
              release_stage0_chunk1 = std::move(next);
            } else {
              next();
            }
          },
          [&](int chunk, std::function<void()> next) {
            started.emplace_back(1, chunk);
            next();
          },
      },
      2, [&] { done = true; });
  p->start();
  // Stage 1 chunk 0 must have run even though stage 0 chunk 1 is pending.
  EXPECT_FALSE(done);
  EXPECT_NE(std::find(started.begin(), started.end(), std::make_pair(1, 0)), started.end());
  release_stage0_chunk1();
  EXPECT_TRUE(done);
}

TEST(StagePipeline, SingleChunkSingleStage) {
  bool done = false;
  auto p = StagePipeline::create({[&](int, std::function<void()> next) { next(); }}, 1,
                                 [&] { done = true; });
  p->start();
  EXPECT_TRUE(done);
}

TEST(StagePipeline, DoubleStartThrows) {
  auto p = StagePipeline::create({[](int, std::function<void()> next) { next(); }}, 1, nullptr);
  p->start();
  EXPECT_THROW(p->start(), CheckError);
}

}  // namespace
}  // namespace hpn::reference
