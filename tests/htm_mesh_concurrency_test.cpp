// First use of the memoized mesh from several threads at once.
//
// The level tables of htm/mesh.h are built lazily under std::call_once.
// This binary holds one test so that nothing has built a table before it
// runs: four threads released together make the process's first cover and
// locate calls, at the deepest memoized level, and so race to build every
// level. Each must see complete tables and get the results a single thread
// gets afterwards. Under the TSan build, a missing happens-before between a
// table's builder and its readers is reported here.
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "htm/cover.h"
#include "htm/mesh.h"
#include "util/rng.h"

namespace delta::htm {
namespace {

struct Results {
  std::vector<std::vector<HtmId>> covers;
  std::vector<HtmId> located;
};

std::vector<Vec3> sample_points(std::uint64_t seed, int n) {
  util::Rng rng{seed};
  std::vector<Vec3> points;
  for (int i = 0; i < n; ++i) {
    points.push_back(normalized(
        {rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)}));
  }
  return points;
}

Results run(const std::vector<Vec3>& points, int level) {
  Results r;
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Alternate which call touches the tables first.
    if (i % 2 == 0) r.located.push_back(locate(points[i], level));
    r.covers.push_back(cover_region(Cone{points[i], 0.03}, level));
    if (i % 2 == 1) r.located.push_back(locate(points[i], level));
  }
  return r;
}

TEST(HtmMeshConcurrencyTest, ConcurrentFirstUseBuildsOneConsistentMesh) {
  constexpr int kThreads = 4;
  constexpr int kLevel = kMeshMemoDepth;
  const std::vector<Vec3> points = sample_points(0x5EED, 64);

  std::latch start{kThreads};
  std::vector<Results> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[static_cast<std::size_t>(t)] = run(points, kLevel);
    });
  }
  for (std::thread& th : threads) th.join();

  const Results expected = run(points, kLevel);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<std::size_t>(t)].covers, expected.covers)
        << "thread " << t;
    EXPECT_EQ(results[static_cast<std::size_t>(t)].located, expected.located)
        << "thread " << t;
  }
  for (int level = 0; level <= kLevel; ++level) {
    EXPECT_EQ(static_cast<std::int64_t>(mesh_level(level).size()),
              trixel_count_at_level(level));
  }
}

}  // namespace
}  // namespace delta::htm
