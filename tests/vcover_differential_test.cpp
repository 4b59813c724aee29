// Incremental-vs-rebuild differential for the vertex-cover data plane: a
// long-lived BipartiteCoverSolver maintained incrementally through
// randomized update/query churn must produce covers byte-identical to a
// solver rebuilt from scratch on the current graph at every step. The
// cover is the minimal source-side min cut — a flow-independent property
// of the network — so any divergence means the incremental maintenance
// (flow cancellation on removal, weight raises, slot recycling) corrupted
// the graph. This is the property VCoverPolicy's per-decision sublinearity
// rests on: decisions may reuse yesterday's flow precisely because reuse
// is observationally identical to a full rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flow/bipartite_cover.h"
#include "util/rng.h"

namespace delta::flow {
namespace {

using Solver = BipartiteCoverSolver;

/// Stable-label mirror of the live graph (the rebuild recipe).
struct Mirror {
  struct Update {
    std::int64_t label;
    Capacity weight;
    Solver::UpdateNode node;  // handle into the incremental solver
  };
  struct Query {
    std::int64_t label;
    Capacity weight;
    std::vector<std::int64_t> update_labels;  // sorted, unique
    Solver::QueryNode node;
  };
  std::vector<Update> updates;  // insertion order = label order
  std::vector<Query> queries;
};

/// Cover as sorted label lists — the representation compared across
/// solvers (handles are solver-specific; labels are not).
struct CoverLabels {
  std::vector<std::int64_t> updates;
  std::vector<std::int64_t> queries;
  Capacity weight = 0;
  friend bool operator==(const CoverLabels&, const CoverLabels&) = default;
};

template <typename Node, typename Entries>
std::int64_t label_of(Node node, const Entries& entries) {
  for (const auto& e : entries) {
    if (e.node == node) return e.label;
  }
  ADD_FAILURE() << "cover selected a vertex outside the mirror";
  return -1;
}

CoverLabels labels_of(const Solver::Cover& cover, const Mirror& mirror) {
  CoverLabels out;
  out.weight = cover.weight;
  for (const auto u : cover.updates) {
    out.updates.push_back(label_of(u, mirror.updates));
  }
  for (const auto q : cover.queries()) {
    out.queries.push_back(label_of(q, mirror.queries));
  }
  std::sort(out.updates.begin(), out.updates.end());
  std::sort(out.queries.begin(), out.queries.end());
  return out;
}

/// Rebuilds a fresh solver from the mirror and returns its cover labels.
CoverLabels rebuild_cover(const Mirror& mirror) {
  Solver fresh;
  std::vector<std::pair<std::int64_t, Solver::UpdateNode>> handles;
  Mirror rebuilt;
  for (const auto& u : mirror.updates) {
    Mirror::Update copy = u;
    copy.node = fresh.add_update(u.weight);
    rebuilt.updates.push_back(copy);
    handles.emplace_back(u.label, copy.node);
  }
  for (const auto& q : mirror.queries) {
    Mirror::Query copy = q;
    copy.node = fresh.add_query(q.weight);
    for (const std::int64_t ul : q.update_labels) {
      const auto it = std::find_if(
          handles.begin(), handles.end(),
          [ul](const auto& h) { return h.first == ul; });
      if (it == handles.end()) {
        ADD_FAILURE() << "dangling edge in mirror";
        continue;
      }
      fresh.connect(it->second, copy.node);
    }
    rebuilt.queries.push_back(copy);
  }
  const auto& cover = fresh.compute();
  EXPECT_TRUE(fresh.last_cover_is_valid());
  return labels_of(cover, rebuilt);
}

TEST(VCoverDifferentialTest, IncrementalCoverMatchesFullRebuildUnderChurn) {
  Solver solver;
  Mirror mirror;
  util::Rng rng{0xD1FF};
  std::int64_t next_label = 0;

  for (int step = 0; step < 400; ++step) {
    const std::int64_t op = rng.uniform_int(0, 9);
    if (op <= 3 || mirror.updates.empty()) {
      // Add an update vertex.
      Mirror::Update u;
      u.label = next_label++;
      u.weight = rng.uniform_int(1, 50);
      u.node = solver.add_update(u.weight);
      mirror.updates.push_back(u);
    } else if (op <= 6) {
      // Add a query vertex wired to a random subset of live updates.
      Mirror::Query q;
      q.label = next_label++;
      q.weight = rng.uniform_int(1, 50);
      q.node = solver.add_query(q.weight);
      const std::int64_t fanout = rng.uniform_int(
          1, std::min<std::int64_t>(
                 4, static_cast<std::int64_t>(mirror.updates.size())));
      for (std::int64_t f = 0; f < fanout; ++f) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mirror.updates.size()) - 1));
        const Mirror::Update& u = mirror.updates[pick];
        if (std::find(q.update_labels.begin(), q.update_labels.end(),
                      u.label) != q.update_labels.end()) {
          continue;  // keep edges unique
        }
        solver.connect(u.node, q.node);
        q.update_labels.push_back(u.label);
      }
      std::sort(q.update_labels.begin(), q.update_labels.end());
      mirror.queries.push_back(std::move(q));
    } else if (op == 7) {
      // Raise a random vertex's weight in place (the group-merge path).
      if (rng.bernoulli(0.5) && !mirror.queries.empty()) {
        auto& q = mirror.queries[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mirror.queries.size()) - 1))];
        const Capacity delta = rng.uniform_int(1, 20);
        solver.add_weight(q.node, delta);
        q.weight += delta;
      } else {
        auto& u = mirror.updates[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mirror.updates.size()) - 1))];
        const Capacity delta = rng.uniform_int(1, 20);
        solver.add_weight(u.node, delta);
        u.weight += delta;
      }
    } else if (op == 8) {
      // Remove an update (ship / evict): flow through it is cancelled and
      // its edges vanish from every query's neighborhood.
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.updates.size()) - 1));
      const std::int64_t label = mirror.updates[pick].label;
      solver.remove_update(mirror.updates[pick].node);
      mirror.updates.erase(mirror.updates.begin() +
                           static_cast<std::ptrdiff_t>(pick));
      for (auto& q : mirror.queries) {
        q.update_labels.erase(std::remove(q.update_labels.begin(),
                                          q.update_labels.end(), label),
                              q.update_labels.end());
      }
    } else if (!mirror.queries.empty()) {
      // Force-remove a query (the forget-shipped-queries ablation path).
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.queries.size()) - 1));
      solver.remove_query_force(mirror.queries[pick].node);
      mirror.queries.erase(mirror.queries.begin() +
                           static_cast<std::ptrdiff_t>(pick));
    }

    // Every step: incremental cover vs full-rebuild cover, byte-identical.
    const CoverLabels incremental = labels_of(solver.compute(), mirror);
    ASSERT_TRUE(solver.last_cover_is_valid());
    const CoverLabels rebuilt = rebuild_cover(mirror);
    ASSERT_EQ(incremental, rebuilt) << "diverged at churn step " << step;
  }
}

}  // namespace
}  // namespace delta::flow
