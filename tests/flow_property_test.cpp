// Property-based validation of the incremental min-weight vertex cover:
//  * cover weight equals a brute-force minimum on random small graphs;
//  * the cover stays valid (every edge covered) under random incremental
//    add/remove workloads mimicking the UpdateManager's remainder pruning;
//  * incremental flow equals from-scratch flow after every mutation batch;
//  * the component-local compute() matches a whole-graph oracle exactly
//    (cover lists, order and weight) under churn on many small components.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "flow/bipartite_cover.h"
#include "flow/dinic.h"
#include "flow/edmonds_karp.h"
#include "util/rng.h"

namespace delta::flow {
namespace {

using UpdateNode = BipartiteCoverSolver::UpdateNode;
using QueryNode = BipartiteCoverSolver::QueryNode;

struct RandomGraph {
  std::vector<Capacity> update_weights;
  std::vector<Capacity> query_weights;
  std::vector<std::pair<std::size_t, std::size_t>> edges;  // (update, query)
};

RandomGraph make_random_graph(util::Rng& rng, std::size_t max_side) {
  RandomGraph g;
  const auto nu = static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(max_side)));
  const auto nq = static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(max_side)));
  for (std::size_t i = 0; i < nu; ++i) {
    g.update_weights.push_back(rng.uniform_int(1, 30));
  }
  for (std::size_t i = 0; i < nq; ++i) {
    g.query_weights.push_back(rng.uniform_int(1, 30));
  }
  for (std::size_t u = 0; u < nu; ++u) {
    for (std::size_t q = 0; q < nq; ++q) {
      if (rng.bernoulli(0.4)) g.edges.emplace_back(u, q);
    }
  }
  return g;
}

/// Exponential-time exact minimum-weight vertex cover over update subsets:
/// choosing the update subset determines the forced query side (any query
/// with an uncovered incident edge must be picked).
Capacity brute_force_cover(const RandomGraph& g) {
  const std::size_t nu = g.update_weights.size();
  Capacity best = kInfiniteCapacity;
  for (std::uint64_t mask = 0; mask < (1ULL << nu); ++mask) {
    Capacity weight = 0;
    for (std::size_t u = 0; u < nu; ++u) {
      if (mask & (1ULL << u)) weight += g.update_weights[u];
    }
    std::vector<bool> query_needed(g.query_weights.size(), false);
    for (const auto& [u, q] : g.edges) {
      if (!(mask & (1ULL << u))) query_needed[q] = true;
    }
    for (std::size_t q = 0; q < g.query_weights.size(); ++q) {
      if (query_needed[q]) weight += g.query_weights[q];
    }
    best = std::min(best, weight);
  }
  return best;
}

class CoverPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoverPropertyTest, MatchesBruteForceMinimum) {
  util::Rng rng{GetParam()};
  for (int trial = 0; trial < 25; ++trial) {
    const RandomGraph g = make_random_graph(rng, 7);
    BipartiteCoverSolver solver;
    std::vector<UpdateNode> us;
    std::vector<QueryNode> qs;
    us.reserve(g.update_weights.size());
    qs.reserve(g.query_weights.size());
    for (const Capacity w : g.update_weights) us.push_back(solver.add_update(w));
    for (const Capacity w : g.query_weights) qs.push_back(solver.add_query(w));
    for (const auto& [u, q] : g.edges) solver.connect(us[u], qs[q]);
    const auto cover = solver.compute();
    EXPECT_EQ(cover.weight, brute_force_cover(g)) << "trial " << trial;
    EXPECT_TRUE(solver.last_cover_is_valid());
  }
}

TEST_P(CoverPropertyTest, IncrementalEqualsScratchUnderChurn) {
  util::Rng rng{GetParam() * 977};
  BipartiteCoverSolver solver;
  std::vector<UpdateNode> live_updates;
  std::vector<QueryNode> live_queries;

  for (int step = 0; step < 120; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.35 || live_updates.empty()) {
      live_updates.push_back(solver.add_update(rng.uniform_int(1, 40)));
    } else if (roll < 0.7 || live_queries.empty()) {
      const auto q = solver.add_query(rng.uniform_int(1, 40));
      live_queries.push_back(q);
      // Connect to a few random live updates.
      const auto conns = rng.uniform_int(0, 3);
      for (std::int64_t c = 0; c < conns; ++c) {
        const auto ui = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live_updates.size()) - 1));
        solver.connect(live_updates[ui], live_queries.back());
      }
    } else if (roll < 0.85) {
      // Remove a random update (simulates shipping or eviction).
      const auto ui = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_updates.size()) - 1));
      solver.remove_update(live_updates[ui]);
      live_updates.erase(live_updates.begin() +
                         static_cast<std::ptrdiff_t>(ui));
      // Prune isolated queries, as the remainder rule does.
      for (std::size_t i = live_queries.size(); i-- > 0;) {
        if (solver.degree(live_queries[i]) == 0) {
          solver.remove_query(live_queries[i]);
          live_queries.erase(live_queries.begin() +
                             static_cast<std::ptrdiff_t>(i));
        }
      }
    }

    if (step % 5 == 0) {
      const auto cover = solver.compute();
      EXPECT_TRUE(solver.last_cover_is_valid()) << "step " << step;
      // Incremental flow value must match a from-scratch computation.
      FlowNetwork scratch = solver.network().zero_flow_copy();
      // Locate source/sink: they are nodes 0 and 1 by construction order.
      const Capacity scratch_flow = max_flow_edmonds_karp(scratch, 0, 1);
      EXPECT_EQ(cover.weight, scratch_flow) << "step " << step;
    }
  }
}

TEST_P(CoverPropertyTest, CoverWeightNeverExceedsEitherSide) {
  util::Rng rng{GetParam() * 31 + 7};
  for (int trial = 0; trial < 20; ++trial) {
    const RandomGraph g = make_random_graph(rng, 8);
    BipartiteCoverSolver solver;
    std::vector<UpdateNode> us;
    std::vector<QueryNode> qs;
    Capacity touched_updates = 0;
    Capacity touched_queries = 0;
    std::vector<bool> utouched(g.update_weights.size(), false);
    std::vector<bool> qtouched(g.query_weights.size(), false);
    for (const Capacity w : g.update_weights) us.push_back(solver.add_update(w));
    for (const Capacity w : g.query_weights) qs.push_back(solver.add_query(w));
    for (const auto& [u, q] : g.edges) {
      solver.connect(us[u], qs[q]);
      if (!utouched[u]) {
        utouched[u] = true;
        touched_updates += g.update_weights[u];
      }
      if (!qtouched[q]) {
        qtouched[q] = true;
        touched_queries += g.query_weights[q];
      }
    }
    const auto cover = solver.compute();
    // Taking all touched updates, or all touched queries, are both valid
    // covers; the minimum can be no worse.
    EXPECT_LE(cover.weight, touched_updates);
    EXPECT_LE(cover.weight, touched_queries);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ------------------------------------------------------------------------
// Differential suite: the Dinic-powered production solver and the retained
// Edmonds-Karp engine must agree on every randomized incremental
// add/remove sequence — not only on the max-flow value and cover weight,
// but on the exact cover membership: the extracted cover is the *minimal*
// source-side min cut, a flow-independent property of the network, so any
// correct engine yields the same vertex set. This is the invariant that
// lets the engine swap keep the sim golden tables byte-identical.

using DinicSolver = BasicBipartiteCoverSolver<Dinic>;
using EkSolver = BasicBipartiteCoverSolver<EdmondsKarp>;

class EngineDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

/// Drives both solvers through the same mutation and compares the covers.
struct SolverPair {
  DinicSolver dinic;
  EkSolver ek;
  std::vector<DinicSolver::UpdateNode> d_updates;
  std::vector<EkSolver::UpdateNode> e_updates;
  std::vector<DinicSolver::QueryNode> d_queries;
  std::vector<EkSolver::QueryNode> e_queries;

  void add_update(Capacity w) {
    d_updates.push_back(dinic.add_update(w));
    e_updates.push_back(ek.add_update(w));
  }
  void add_query(Capacity w) {
    d_queries.push_back(dinic.add_query(w));
    e_queries.push_back(ek.add_query(w));
  }
  void connect(std::size_t u, std::size_t q) {
    dinic.connect(d_updates[u], d_queries[q]);
    ek.connect(e_updates[u], e_queries[q]);
  }
  void remove_update(std::size_t u) {
    dinic.remove_update(d_updates[u]);
    ek.remove_update(e_updates[u]);
    d_updates.erase(d_updates.begin() + static_cast<std::ptrdiff_t>(u));
    e_updates.erase(e_updates.begin() + static_cast<std::ptrdiff_t>(u));
  }
  void remove_query_force(std::size_t q) {
    dinic.remove_query_force(d_queries[q]);
    ek.remove_query_force(e_queries[q]);
    d_queries.erase(d_queries.begin() + static_cast<std::ptrdiff_t>(q));
    e_queries.erase(e_queries.begin() + static_cast<std::ptrdiff_t>(q));
  }
  void prune_isolated_queries() {
    for (std::size_t i = d_queries.size(); i-- > 0;) {
      ASSERT_EQ(dinic.degree(d_queries[i]), ek.degree(e_queries[i]));
      if (dinic.degree(d_queries[i]) == 0) {
        dinic.remove_query(d_queries[i]);
        ek.remove_query(e_queries[i]);
        d_queries.erase(d_queries.begin() + static_cast<std::ptrdiff_t>(i));
        e_queries.erase(e_queries.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  /// Both engines built the network through identical operations, so node
  /// indices correspond one-to-one and cover sets compare by index.
  void expect_identical_covers(int step) {
    const auto& dc = dinic.compute();
    const auto& ec = ek.compute();
    EXPECT_EQ(dc.weight, ec.weight) << "step " << step;
    EXPECT_EQ(dinic.current_flow(), ek.current_flow()) << "step " << step;
    EXPECT_TRUE(dinic.last_cover_is_valid()) << "step " << step;
    EXPECT_TRUE(ek.last_cover_is_valid()) << "step " << step;

    const auto indices_of = [](const auto& nodes) {
      std::vector<NodeIndex> out;
      out.reserve(nodes.size());
      for (const auto& n : nodes) out.push_back(n.index);
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(indices_of(dc.updates), indices_of(ec.updates))
        << "step " << step << ": cover update sets differ";
    EXPECT_EQ(indices_of(dc.queries()), indices_of(ec.queries()))
        << "step " << step << ": cover query sets differ";
  }
};

TEST_P(EngineDifferentialTest, DinicAndEdmondsKarpAgreeUnderChurn) {
  util::Rng rng{GetParam() * 7919 + 3};
  SolverPair pair;

  for (int step = 0; step < 150; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.30 || pair.d_updates.empty()) {
      pair.add_update(rng.uniform_int(1, 50));
    } else if (roll < 0.60 || pair.d_queries.empty()) {
      pair.add_query(rng.uniform_int(1, 50));
      const auto conns = rng.uniform_int(0, 3);
      for (std::int64_t c = 0; c < conns; ++c) {
        const auto ui = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(pair.d_updates.size()) - 1));
        pair.connect(ui, pair.d_queries.size() - 1);
      }
    } else if (roll < 0.80) {
      // Ship/evict an update group, then prune isolated queries — the
      // remainder-rule shape UpdateManager drives.
      const auto ui = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pair.d_updates.size()) - 1));
      pair.remove_update(ui);
      pair.prune_isolated_queries();
      if (::testing::Test::HasFatalFailure()) return;
    } else if (!pair.d_queries.empty() && roll < 0.88) {
      // The forget-shipped-queries ablation shape.
      const auto qi = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pair.d_queries.size()) - 1));
      pair.remove_query_force(qi);
    } else if (!pair.d_queries.empty()) {
      // Weight growth (query-vertex merging adds weight in place).
      const auto qi = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pair.d_queries.size()) - 1));
      const Capacity extra = rng.uniform_int(1, 20);
      pair.dinic.add_weight(pair.d_queries[qi], extra);
      pair.ek.add_weight(pair.e_queries[qi], extra);
    }

    if (step % 4 == 0) {
      pair.expect_identical_covers(step);
    }
  }
  pair.expect_identical_covers(150);
}

// A same-weight tie that a naive "any min cut" extraction could break
// differently: two disjoint (update, query) pairs with equal weights. The
// minimal source-side cut puts every saturated update OUT of the reachable
// set, so both engines must pick the update vertices.
TEST(EngineDifferentialTest, EqualWeightTiesResolveIdentically) {
  DinicSolver dinic;
  EkSolver ek;
  const auto du1 = dinic.add_update(10);
  const auto du2 = dinic.add_update(10);
  const auto dq1 = dinic.add_query(10);
  const auto dq2 = dinic.add_query(10);
  dinic.connect(du1, dq1);
  dinic.connect(du2, dq2);
  const auto eu1 = ek.add_update(10);
  const auto eu2 = ek.add_update(10);
  const auto eq1 = ek.add_query(10);
  const auto eq2 = ek.add_query(10);
  ek.connect(eu1, eq1);
  ek.connect(eu2, eq2);

  const auto& dc = dinic.compute();
  const auto& ec = ek.compute();
  ASSERT_EQ(dc.weight, 20);
  ASSERT_EQ(ec.weight, 20);
  EXPECT_EQ(dc.updates.size(), ec.updates.size());
  EXPECT_EQ(dc.queries().size(), ec.queries().size());
  EXPECT_EQ(dinic.in_last_cover(du1), ek.in_last_cover(eu1));
  EXPECT_EQ(dinic.in_last_cover(du2), ek.in_last_cover(eu2));
  EXPECT_EQ(dinic.in_last_cover(dq1), ek.in_last_cover(eq1));
  EXPECT_EQ(dinic.in_last_cover(dq2), ek.in_last_cover(eq2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

// ------------------------------------------------------------------------
// Component-local compute() vs a whole-graph oracle. compute() re-solves
// only the components touched since the previous call; the oracle re-solves
// everything from zero flow and reads the minimal min cut by a plain BFS
// from the source over the whole residual network. The graphs are many
// small components (vertices carry a group; edges mostly stay inside it,
// occasionally bridging two), which is the shape where a wrong dirty mark
// leaves a stale component behind.

/// The cover a from-scratch whole-graph solve extracts, in the solver's
/// list order: updates by the source's adjacency list, queries by the
/// sink's (both newest first).
struct OracleCover {
  std::vector<NodeIndex> updates;
  std::vector<NodeIndex> queries;
  Capacity weight = 0;
};

OracleCover oracle_cover(const FlowNetwork& live) {
  constexpr NodeIndex kSource = 0;  // by the solver's construction order
  constexpr NodeIndex kSink = 1;
  FlowNetwork net = live.zero_flow_copy();
  OracleCover out;
  out.weight = max_flow_dinic(net, kSource, kSink);
  std::vector<char> reach(net.node_bound(), 0);
  std::vector<NodeIndex> queue{kSource};
  reach[kSource] = 1;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (EdgeId e = net.first_edge(queue[i]); e != kNoEdge;
         e = net.edge(e).next) {
      const NodeIndex w = net.edge(e).to;
      if (net.residual(e) <= 0 || reach[static_cast<std::size_t>(w)]) {
        continue;
      }
      reach[static_cast<std::size_t>(w)] = 1;
      queue.push_back(w);
    }
  }
  for (EdgeId e = net.first_edge(kSource); e != kNoEdge;
       e = net.edge(e).next) {
    const NodeIndex u = net.edge(e).to;
    if (!reach[static_cast<std::size_t>(u)]) out.updates.push_back(u);
  }
  for (EdgeId e = net.first_edge(kSink); e != kNoEdge;
       e = net.edge(e).next) {
    const NodeIndex q = net.edge(e).to;
    if (reach[static_cast<std::size_t>(q)]) out.queries.push_back(q);
  }
  return out;
}

template <typename Solver>
struct ChurnDriver {
  using U = typename Solver::UpdateNode;
  using Q = typename Solver::QueryNode;
  static constexpr std::int64_t kGroups = 24;

  Solver solver;
  util::Rng rng;
  std::vector<std::pair<U, std::int64_t>> updates;  // (handle, group)
  std::vector<std::pair<Q, std::int64_t>> queries;
  int computes = 0;

  explicit ChurnDriver(std::uint64_t seed) : rng(seed) {}

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  std::int64_t group() { return rng.uniform_int(0, kGroups - 1); }

  /// Connects q to a random live update of `g` (or, rarely, of any group,
  /// bridging two components); skips edges that already exist.
  void connect_somewhere(Q q, std::int64_t g) {
    std::vector<U> candidates;
    const bool bridge = rng.bernoulli(0.08);
    for (const auto& [u, ug] : updates) {
      if (bridge || ug == g) candidates.push_back(u);
    }
    if (candidates.empty()) return;
    const U u = candidates[pick(candidates.size())];
    const auto present = solver.neighbors(q);
    if (std::find(present.begin(), present.end(), u) != present.end()) return;
    solver.connect(u, q);
  }

  void prune_isolated_queries() {
    for (std::size_t i = queries.size(); i-- > 0;) {
      if (solver.degree(queries[i].first) == 0) {
        solver.remove_query(queries[i].first);
        queries.erase(queries.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  /// The crash-restart wipe, in UpdateManager::clear()'s order: query
  /// vertices first (forced: they may still carry edges), then updates.
  void crash_restart() {
    for (const auto& [q, g] : queries) solver.remove_query_force(q);
    for (const auto& [u, g] : updates) solver.remove_update(u);
    queries.clear();
    updates.clear();
  }

  void step() {
    const double roll = rng.next_double();
    if (roll < 0.22 || updates.empty()) {
      updates.emplace_back(solver.add_update(rng.uniform_int(1, 40)), group());
    } else if (roll < 0.50 || queries.empty()) {
      const std::int64_t g = group();
      const Q q = solver.add_query(rng.uniform_int(1, 40));
      queries.emplace_back(q, g);
      const auto links = rng.uniform_int(0, 2);
      for (std::int64_t i = 0; i < links; ++i) connect_somewhere(q, g);
    } else if (roll < 0.62) {
      const auto& [q, g] = queries[pick(queries.size())];
      connect_somewhere(q, g);
    } else if (roll < 0.72) {
      if (rng.bernoulli(0.5)) {
        solver.add_weight(queries[pick(queries.size())].first,
                          rng.uniform_int(1, 20));
      } else {
        solver.add_weight(updates[pick(updates.size())].first,
                          rng.uniform_int(1, 20));
      }
    } else if (roll < 0.88) {
      // Ship or evict an update group; the remainder rule then prunes the
      // queries it left isolated.
      const std::size_t i = pick(updates.size());
      solver.remove_update(updates[i].first);
      updates.erase(updates.begin() + static_cast<std::ptrdiff_t>(i));
      prune_isolated_queries();
    } else {
      const std::size_t i = pick(queries.size());
      solver.remove_query_force(queries[i].first);
      queries.erase(queries.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  void compute_and_compare(int at) {
    const auto& cover = solver.compute();
    ++computes;
    const OracleCover want = oracle_cover(solver.network());
    std::vector<NodeIndex> got_updates;
    for (const U u : cover.updates) got_updates.push_back(u.index);
    std::vector<NodeIndex> got_queries;
    for (const Q q : cover.queries()) got_queries.push_back(q.index);
    ASSERT_EQ(got_updates, want.updates) << "step " << at;
    ASSERT_EQ(got_queries, want.queries) << "step " << at;
    ASSERT_EQ(cover.weight, want.weight) << "step " << at;
    ASSERT_EQ(solver.current_flow(), want.weight) << "step " << at;
    ASSERT_TRUE(solver.last_cover_is_valid()) << "step " << at;
    ASSERT_TRUE(solver.network().flow_is_feasible(0, 1)) << "step " << at;
    for (const U u : cover.updates) ASSERT_TRUE(solver.in_last_cover(u));
  }

  void run(int steps) {
    for (int at = 0; at < steps; ++at) {
      if (at == steps / 2) crash_restart();
      step();
      if (rng.bernoulli(0.4)) {
        compute_and_compare(at);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    compute_and_compare(steps);
  }
};

template <typename Solver>
void run_churn(std::uint64_t seed) {
  ChurnDriver<Solver> driver{seed};
  driver.run(600);
  EXPECT_GT(driver.computes, 150);
}

class ComponentLocalDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComponentLocalDifferentialTest, DinicMatchesWholeGraphOracle) {
  run_churn<DinicSolver>(GetParam() * 104729 + 11);
}

TEST_P(ComponentLocalDifferentialTest, EdmondsKarpMatchesWholeGraphOracle) {
  run_churn<EkSolver>(GetParam() * 104729 + 11);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComponentLocalDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace delta::flow
