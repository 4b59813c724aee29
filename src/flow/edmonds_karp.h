// Edmonds–Karp max-flow with incremental re-use of an existing feasible flow.
//
// This is the engine behind the paper's incremental vertex-cover computation
// (Fig. 5): when vertices/edges are added the previous flow remains valid
// (just possibly not maximum), so each invocation only searches for the
// *additional* augmenting paths. Over a whole query/update sequence the time
// spent augmenting is bounded by one full O(nm^2) computation on the final
// network, versus O(n^2 m^2) for recomputing from scratch every time (§4).
//
// It shares Dinic's seeded entry point: run_to_max(source_arcs) searches
// only from the given arcs out of the source, and its final failed search
// leaves reachable() exact for every node those arcs reach (see dinic.h for
// why that solves the seeded components exactly).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flow/network.h"

namespace delta::flow {

class EdmondsKarp {
 public:
  /// Binds to a network whose flow it will maintain. The network may gain
  /// and lose nodes/edges between calls as long as the flow stays feasible.
  EdmondsKarp(FlowNetwork& net, NodeIndex source, NodeIndex sink);

  /// Augments the current flow along paths that leave the source through
  /// `source_arcs` until none is left; returns the flow added. Afterwards
  /// reachable(v) answers min-cut membership for every node reachable
  /// through those arcs.
  Capacity run_to_max(std::span<const EdgeId> source_arcs);

  /// Whole-network form: seeds with every arc out of the source.
  Capacity run_to_max();

  /// Current total flow out of the source.
  [[nodiscard]] Capacity total_flow() const;

  /// Recomputes residual reachability from the whole source; afterwards
  /// `reachable(v)` answers membership in the source side of a min cut.
  void compute_reachability();
  [[nodiscard]] bool reachable(NodeIndex v) const;

  /// Cumulative number of augmenting-path searches (BFS runs), for the
  /// incremental-vs-scratch micro benchmark.
  [[nodiscard]] std::int64_t bfs_count() const { return bfs_count_; }

  /// Cumulative number of nodes whose adjacency run_to_max()'s searches
  /// scanned (deterministic, like Dinic::nodes_scanned()).
  [[nodiscard]] std::int64_t nodes_scanned() const { return nodes_scanned_; }

 private:
  FlowNetwork* net_;
  NodeIndex source_;
  NodeIndex sink_;

  // Epoch-stamped scratch space reused across BFS runs (no per-call
  // allocation in the middleware hot path).
  std::vector<std::uint32_t> visit_epoch_;
  std::vector<EdgeId> parent_edge_;
  std::vector<NodeIndex> queue_;
  std::vector<EdgeId> all_arcs_;  // run_to_max() seeds
  std::uint32_t epoch_ = 0;
  std::int64_t bfs_count_ = 0;
  std::int64_t nodes_scanned_ = 0;

  void ensure_scratch();
  void next_epoch();  // fresh stamp, source labelled, queue empty
  /// Fills parent_edge_ from the seed arcs; true when the sink is reached.
  bool bfs_to_sink(std::span<const EdgeId> source_arcs);
};

/// From-scratch max flow (zeroes nothing: assumes the given network's flow is
/// the starting point; pass net.zero_flow_copy() for a cold run). Returns the
/// final total flow.
Capacity max_flow_edmonds_karp(FlowNetwork& net, NodeIndex source,
                               NodeIndex sink);

}  // namespace delta::flow
