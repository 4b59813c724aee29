// Golden regression test: the full simulation output for a fixed-seed trace
// is pinned, per policy, so a refactor anywhere in the stack (htm → workload
// → cache → core → sim) cannot silently change simulation results. All
// randomness flows through util::Rng (xoshiro256**), so these numbers are
// stable across platforms and standard libraries.
//
// The parallel engine must reproduce the same goldens for every thread
// count — that is asserted here too, not just sequential-vs-parallel
// equality, so a bug that shifted BOTH engines the same way still trips.
//
// To regenerate after an *intentional* behavior change, run (as one line)
//   ./build/tests/sim_golden_test --gtest_also_run_disabled_tests
//       --gtest_filter='*PrintGoldenTables*'
// and paste the printed rows below.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ios>
#include <iostream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/multi_cache.h"
#include "workload/trace_split.h"

namespace delta::sim {
namespace {

using World = Setup;  // ::testing::Test::Setup shadows sim::Setup in TESTs

/// The pinned world: small enough to replay five policies in seconds, big
/// enough that every mechanism (shipping, update pull, loading, eviction)
/// fires for every policy.
SetupParams golden_params() {
  SetupParams p;
  p.base_level = 4;
  p.total_rows = 4e7;
  p.object_target = 30;
  p.trace_seed = 2718;
  p.trace.query_count = 2000;
  p.trace.update_count = 2000;
  p.trace.postwarmup_query_gb = 8.0;
  p.trace.mean_postwarmup_update_mb = 2.0;
  p.trace.hotspot_max_object_gb = 1.0;
  p.benefit_window = 500;
  return p;
}

constexpr PolicyKind kAllKinds[] = {PolicyKind::kNoCache,
                                    PolicyKind::kReplica,
                                    PolicyKind::kBenefit, PolicyKind::kVCover,
                                    PolicyKind::kSOptimal};

struct GoldenRun {
  const char* policy;
  std::int64_t queries;
  std::int64_t cache_fresh;
  std::int64_t cache_after_updates;
  std::int64_t shipped;
  std::int64_t objects_loaded;
  std::int64_t total_traffic;
  std::int64_t postwarmup_traffic;
  std::int64_t by_query_ship;
  std::int64_t by_update_ship;
  std::int64_t by_object_load;
  std::int64_t overhead;
};

void expect_matches(const RunResult& r, const GoldenRun& g) {
  SCOPED_TRACE(g.policy);
  EXPECT_EQ(r.policy_name, g.policy);
  EXPECT_EQ(r.queries, g.queries);
  EXPECT_EQ(r.cache_fresh, g.cache_fresh);
  EXPECT_EQ(r.cache_after_updates, g.cache_after_updates);
  EXPECT_EQ(r.shipped, g.shipped);
  EXPECT_EQ(r.objects_loaded, g.objects_loaded);
  EXPECT_EQ(r.total_traffic.count(), g.total_traffic);
  EXPECT_EQ(r.postwarmup_traffic.count(), g.postwarmup_traffic);
  EXPECT_EQ(r.postwarmup_by_mechanism[0].count(), g.by_query_ship);
  EXPECT_EQ(r.postwarmup_by_mechanism[1].count(), g.by_update_ship);
  EXPECT_EQ(r.postwarmup_by_mechanism[2].count(), g.by_object_load);
  EXPECT_EQ(r.overhead_traffic.count(), g.overhead);
}

void print_row(const RunResult& r) {
  std::cout << "    {\"" << r.policy_name << "\", " << r.queries << ", "
            << r.cache_fresh << ", " << r.cache_after_updates << ", "
            << r.shipped << ", " << r.objects_loaded << ", "
            << r.total_traffic.count() << ", " << r.postwarmup_traffic.count()
            << ", " << r.postwarmup_by_mechanism[0].count() << ", "
            << r.postwarmup_by_mechanism[1].count() << ", "
            << r.postwarmup_by_mechanism[2].count() << ", "
            << r.overhead_traffic.count() << "},\n";
}

/// What the counter rows leave open: the post-warm-up latency moments
/// (exact hex-float bits — their low bits depend on the order samples are
/// added in) and the shape of the cumulative series.
struct GoldenShape {
  std::int64_t latency_count;
  double latency_sum;
  double latency_mean;
  double latency_variance;
  std::size_t series_points;
  std::int64_t last_index;
  double last_value;
};

void expect_series(const RunResult& r, const GoldenShape& g) {
  ASSERT_EQ(r.series.points().size(), g.series_points);
  EXPECT_EQ(r.series.points().back().event_index, g.last_index);
  EXPECT_EQ(r.series.points().back().value, g.last_value);
}

/// The synchronous engines' analytic latency proxy plus the series (the
/// event engine measures latency instead, so it checks the series only).
void expect_shape(const RunResult& r, const GoldenShape& g) {
  EXPECT_EQ(r.postwarmup_latency.count(), g.latency_count);
  EXPECT_EQ(r.postwarmup_latency.sum(), g.latency_sum);
  EXPECT_EQ(r.postwarmup_latency.mean(), g.latency_mean);
  EXPECT_EQ(r.postwarmup_latency.variance(), g.latency_variance);
  expect_series(r, g);
}

void print_shape(const RunResult& r) {
  const auto& last = r.series.points().back();
  std::cout << "    {" << r.postwarmup_latency.count() << ", " << std::hexfloat
            << r.postwarmup_latency.sum() << ", "
            << r.postwarmup_latency.mean() << ", "
            << r.postwarmup_latency.variance() << ", " << std::defaultfloat
            << r.series.points().size() << ", " << last.event_index << ", "
            << std::hexfloat << last.value << std::defaultfloat << "},\n";
}

// ----------------------------------------------------------- golden tables

// Single-cache run_one over the golden trace, one row per policy.
constexpr GoldenRun kSingleCacheGolden[] = {
    {"NoCache", 2000, 0, 0, 2000, 0, 14635445515, 7999999508, 7999999508, 0, 0, 256000},
    {"Replica", 2000, 2000, 0, 0, 0, 3544553626, 2723999319, 0, 2723999319, 0, 384000},
    {"Benefit", 2000, 286, 0, 1714, 0, 14878100589, 7634332058, 7633086983, 1245075, 0, 347904},
    {"VCover", 2000, 1328, 2, 670, 3, 7707438424, 1238688276, 1218079838, 20608438, 0, 93824},
    {"SOptimal", 2000, 1854, 0, 146, 0, 4874712980, 1256046449, 1208306382, 47740067, 0, 39616},
};

// Latency moments and series shape of the same runs, row for row.
constexpr GoldenShape kSingleCacheShape[] = {
    {1000, 0x1.97ffff7bee046p+7, 0x1.a1cabffbd502ep-3, 0x1.be20c22c93eep-6, 3, 3999, 0x1.b42b96858p+33},
    {1000, 0x1.8ffffffffff9dp+5, 0x1.999999999999ap-5, 0x0p+0, 3, 3999, 0x1.a68b3134p+31},
    {1000, 0x1.70d453042b569p+7, 0x1.79ae697d19f0ep-3, 0x1.f4256ef8a5bc1p-6, 3, 3999, 0x1.bb66e6368p+33},
    {1000, 0x1.0cde7e09bd8b5p+6, 0x1.13526c953cfe4p-4, 0x1.976b42bae7845p-7, 3, 3999, 0x1.cb662d58p+32},
    {1000, 0x1.09aa722547997p+6, 0x1.100ab2533b001p-4, 0x1.95c5adf604a8dp-7, 3, 3999, 0x1.228e3794p+32},
};

// Multi-endpoint run_one_multi (VCover, N=4) combined + per-endpoint rows,
// one table per split strategy. The same tables must hold for the
// sequential engine and the parallel engine at every thread count.
struct GoldenMulti {
  workload::SplitStrategy strategy;
  GoldenRun combined;
  std::array<GoldenRun, 4> per_endpoint;
  GoldenShape combined_shape;
  std::array<GoldenShape, 4> per_endpoint_shape;
};

const GoldenMulti kMultiGolden[] = {
    {workload::SplitStrategy::kRoundRobin,
     {"VCover", 2000, 440, 2, 1558, 8, 18700273193, 11249914867, 5501706060, 354266, 5747854541, 201344},
     {{
         {"VCover", 500, 118, 0, 382, 2, 4923170220, 3066485943, 1422983716, 0, 1643502227, 24704},
         {"VCover", 500, 110, 1, 389, 2, 4575325703, 2981865224, 1338362997, 177133, 1643325094, 25280},
         {"VCover", 500, 95, 0, 405, 2, 4751133805, 3023776003, 1380273776, 0, 1643502227, 26176},
         {"VCover", 500, 117, 1, 382, 2, 4450643465, 2177787697, 1360085571, 177133, 817524993, 24832},
     }},
     {1000, 0x1.22f9143f96ddcp+7, 0x1.29f4d1267dd04p-3, 0x1.d214d56e9215fp-6, 3, 3999, 0x1.16a7e18a4p+34},
     {{
         {250, 0x1.1e1c67bb6150ep+5, 0x1.24fa455b86775p-3, 0x1.2566cd2404d39p-5, 3, 3999, 0x1.25719dacp+32},
         {250, 0x1.1e110a9f15599p+5, 0x1.24eea26da744fp-3, 0x1.1327dcbb6527p-5, 3, 3999, 0x1.10b5ee07p+32},
         {250, 0x1.2bf0016b762bap+5, 0x1.3322d2598f893p-3, 0x1.5043d5bebfa87p-6, 3, 3999, 0x1.1b308c6dp+32},
         {250, 0x1.23c6dd386ea02p+5, 0x1.2ac78a7739fc3p-3, 0x1.8c08357a225aap-6, 3, 3999, 0x1.09476e09p+32},
     }}},
    {workload::SplitStrategy::kHashByRegion,
     {"VCover", 2000, 709, 3, 1288, 5, 13030291767, 5573712881, 3028062329, 20785571, 2524864981, 175872},
     {{
         {"VCover", 315, 0, 0, 315, 0, 875668499, 534687299, 534687299, 0, 0, 20160},
         {"VCover", 20, 0, 0, 20, 0, 7947222, 3399751, 3399751, 0, 0, 1280},
         {"VCover", 1097, 366, 2, 729, 2, 5057927325, 2273469278, 1000644002, 20608438, 1252216838, 52736},
         {"VCover", 568, 343, 1, 224, 3, 7088748721, 2762156553, 1489331277, 177133, 1272648143, 17152},
     }},
     {1000, 0x1.c8ea0a3bdce46p+6, 0x1.d3e15228d1d4ap-4, 0x1.476993ca23eb1p-6, 3, 3999, 0x1.84553c9b8p+33},
     {{
         {146, 0x1.8b7adf9809295p+4, 0x1.5ab8e015128d7p-3, 0x1.1b453ec050157p-8, 3, 3999, 0x1.a18d2098p+29},
         {9, 0x1.4985cf03d61acp+0, 0x1.24e8b80368fb7p-3, 0x1.913a3d08ea9fbp-17, 3, 3999, 0x1.e50f58p+22},
         {563, 0x1.ca765b1e9240ep+5, 0x1.a0ee971240cffp-4, 0x1.e66bfe7b95df7p-8, 3, 3999, 0x1.2d79d89dp+32},
         {282, 0x1.eea8362a0893cp+4, 0x1.c10ce6bb0998ep-4, 0x1.aa48922de4c2ep-5, 3, 3999, 0x1.a685b8b1p+32},
     }}},
};

// ----------------------------------------------------------------- tests

TEST(SimGoldenTest, SingleCachePolicyRunsMatchGoldenTable) {
  const World setup{golden_params()};
  for (std::size_t i = 0; i < std::size(kAllKinds); ++i) {
    const RunResult r = run_one(kAllKinds[i], setup.trace(),
                                setup.cache_capacity(), setup.params());
    expect_matches(r, kSingleCacheGolden[i]);
    expect_shape(r, kSingleCacheShape[i]);
  }
}

TEST(SimGoldenTest, MultiEndpointRunsMatchGoldenTable) {
  const World setup{golden_params()};
  for (const GoldenMulti& golden : kMultiGolden) {
    const MultiRunResult multi = run_one_multi(
        PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
        setup.params(), 4, golden.strategy);
    SCOPED_TRACE(workload::to_string(golden.strategy));
    expect_matches(multi.combined, golden.combined);
    expect_shape(multi.combined, golden.combined_shape);
    ASSERT_EQ(multi.per_endpoint.size(), golden.per_endpoint.size());
    for (std::size_t e = 0; e < golden.per_endpoint.size(); ++e) {
      expect_matches(multi.per_endpoint[e], golden.per_endpoint[e]);
      expect_shape(multi.per_endpoint[e], golden.per_endpoint_shape[e]);
    }
  }
}

// The parallel engine reproduces the pinned goldens for every thread count
// (not merely "matches sequential": if both engines drifted together, this
// still fails).
TEST(SimGoldenTest, ParallelEngineReproducesGoldensForEveryThreadCount) {
  const World setup{golden_params()};
  for (const GoldenMulti& golden : kMultiGolden) {
    for (const std::size_t threads : {2u, 4u, 8u}) {
      const MultiRunResult multi = run_one_multi(
          PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
          setup.params(), 4, golden.strategy, PolicyOverrides{}, 2000,
          ParallelOptions{threads, true});
      SCOPED_TRACE(::testing::Message()
                   << workload::to_string(golden.strategy) << " T=" << threads);
      expect_matches(multi.combined, golden.combined);
      expect_shape(multi.combined, golden.combined_shape);
      ASSERT_EQ(multi.per_endpoint.size(), golden.per_endpoint.size());
      for (std::size_t e = 0; e < golden.per_endpoint.size(); ++e) {
        expect_matches(multi.per_endpoint[e], golden.per_endpoint[e]);
        expect_shape(multi.per_endpoint[e], golden.per_endpoint_shape[e]);
      }
    }
  }
}

// The event-driven engine over zero-latency links must reproduce the same
// pinned tables byte-for-byte: DelayedTransport delivery degenerates to
// synchronous order when every link is instantaneous, so any divergence
// means the asynchronous protocol changed replay semantics, not just
// timing. Single-cache rows cover all five policies; the multi tables the
// VCover N=4 splits. (At zero latency the simulated response times reduce
// to the execution surcharges and staleness to zero — the WAN behavior is
// covered by event_engine_test.)
TEST(SimGoldenTest, EventEngineAtZeroLatencyMatchesGoldenTables) {
  const World setup{golden_params()};
  for (std::size_t i = 0; i < std::size(kAllKinds); ++i) {
    const EventRunResult r = run_one_event(
        kAllKinds[i], setup.trace(), setup.cache_capacity(), setup.params(),
        1, workload::SplitStrategy::kRoundRobin);
    expect_matches(r.replay.combined, kSingleCacheGolden[i]);
    EXPECT_EQ(r.staleness_seconds.max(), 0.0) << kSingleCacheGolden[i].policy;
  }
  for (const GoldenMulti& golden : kMultiGolden) {
    const EventRunResult multi = run_one_event(
        PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
        setup.params(), 4, golden.strategy);
    SCOPED_TRACE(workload::to_string(golden.strategy));
    expect_matches(multi.replay.combined, golden.combined);
    expect_series(multi.replay.combined, golden.combined_shape);
    ASSERT_EQ(multi.replay.per_endpoint.size(), golden.per_endpoint.size());
    for (std::size_t e = 0; e < golden.per_endpoint.size(); ++e) {
      expect_matches(multi.replay.per_endpoint[e], golden.per_endpoint[e]);
      expect_series(multi.replay.per_endpoint[e],
                    golden.per_endpoint_shape[e]);
    }
  }
}

// The parallel per-partition event engine must reproduce the same pinned
// tables for every thread count at zero latency — the partitions replay
// replica worlds whose merge is the sequential stream, so no thread count
// may perturb a single byte (and if both engines drifted together, the
// pinned constants still catch it).
TEST(SimGoldenTest, ParallelEventEngineReproducesGoldensForEveryThreadCount) {
  const World setup{golden_params()};
  for (const GoldenMulti& golden : kMultiGolden) {
    for (const std::size_t threads : {2u, 4u, 8u}) {
      EventEngineOptions options;
      options.parallel.num_threads = threads;
      const EventRunResult multi = run_one_event(
          PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
          setup.params(), 4, golden.strategy, options);
      SCOPED_TRACE(::testing::Message()
                   << workload::to_string(golden.strategy)
                   << " T=" << threads);
      expect_matches(multi.replay.combined, golden.combined);
      expect_series(multi.replay.combined, golden.combined_shape);
      ASSERT_EQ(multi.replay.per_endpoint.size(), golden.per_endpoint.size());
      for (std::size_t e = 0; e < golden.per_endpoint.size(); ++e) {
        expect_matches(multi.replay.per_endpoint[e], golden.per_endpoint[e]);
        expect_series(multi.replay.per_endpoint[e],
                      golden.per_endpoint_shape[e]);
      }
      EXPECT_EQ(multi.staleness_seconds.max(), 0.0);
      EXPECT_EQ(multi.dispatch_lag_seconds.max(), 0.0);
    }
  }
}

// Regeneration helper, not a test: prints the golden tables in source form.
TEST(SimGoldenTest, DISABLED_PrintGoldenTables) {
  const World setup{golden_params()};
  std::vector<RunResult> single;
  for (const PolicyKind kind : kAllKinds) {
    single.push_back(run_one(kind, setup.trace(), setup.cache_capacity(),
                             setup.params()));
  }
  std::cout << "constexpr GoldenRun kSingleCacheGolden[] = {\n";
  for (const RunResult& r : single) print_row(r);
  std::cout << "};\n\nconstexpr GoldenShape kSingleCacheShape[] = {\n";
  for (const RunResult& r : single) print_shape(r);
  std::cout << "};\n\nkMultiGolden and kMultiShape rows:\n";
  for (const auto strategy : {workload::SplitStrategy::kRoundRobin,
                              workload::SplitStrategy::kHashByRegion}) {
    const MultiRunResult multi =
        run_one_multi(PolicyKind::kVCover, setup.trace(),
                      setup.cache_capacity(), setup.params(), 4, strategy);
    std::cout << "  // strategy = " << workload::to_string(strategy)
              << "\n  combined:\n";
    print_row(multi.combined);
    print_shape(multi.combined);
    std::cout << "  per_endpoint:\n";
    for (const RunResult& r : multi.per_endpoint) print_row(r);
    for (const RunResult& r : multi.per_endpoint) print_shape(r);
  }
}

}  // namespace
}  // namespace delta::sim
