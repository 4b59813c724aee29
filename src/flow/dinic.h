// Dinic's max-flow algorithm (level graph + blocking flow), in two forms:
//
//  * class Dinic — the incremental engine behind BipartiteCoverSolver's
//    cover computation. Like EdmondsKarp it augments whatever feasible flow
//    the network currently carries, so additions since the last run only
//    cost the difference; unlike EdmondsKarp it saturates whole level
//    graphs per BFS (O(V^2 E) worst case vs O(V E^2)).
//
//    The search is *seeded*: run_to_max(source_arcs) starts every level
//    build from the given arcs out of the source instead of from the
//    source's whole adjacency list, and never expands the sink. An
//    augmenting path meets the source only where it starts and ends at the
//    sink, so it lies entirely inside the part of the network reachable
//    through its first arc without passing the sink. When the network is a
//    set of components that touch each other only at the source and the
//    sink (the bipartite cover graph), seeding with one component's source
//    arcs therefore solves that component exactly and scans nothing else.
//    Seeded with every source arc it is plain whole-network Dinic.
//
//    The final, failed level build doubles as the min-cut reachability
//    pass: afterwards reachable(v) is exact for every node the seeds
//    reach. Levels are epoch-stamped, so a build costs the nodes it visits,
//    not node_bound(). All scratch (levels, stamps, queue, current-arc
//    cursors) is owned by the engine and reused across calls.
//
//  * max_flow_dinic — the one-shot free function, kept as the whole-network
//    oracle for correctness tests and the flow micro benchmark (ablation
//    A6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flow/network.h"

namespace delta::flow {

class Dinic {
 public:
  /// Binds to a network whose flow it will maintain. The network may gain
  /// and lose nodes/edges between calls as long as the flow stays feasible.
  Dinic(FlowNetwork& net, NodeIndex source, NodeIndex sink);

  /// Augments the current flow along paths that leave the source through
  /// `source_arcs` (edges in the source's adjacency list) until none is
  /// left; returns the flow added. Afterwards reachable(v) answers
  /// membership in the source side of the minimal min cut for every node
  /// reachable through those arcs.
  Capacity run_to_max(std::span<const EdgeId> source_arcs);

  /// Whole-network form: seeds with every arc out of the source.
  Capacity run_to_max();

  /// Current total flow out of the source (O(degree of the source)).
  [[nodiscard]] Capacity total_flow() const;

  /// True when the last level build of run_to_max() reached v.
  [[nodiscard]] bool reachable(NodeIndex v) const;

  /// Cumulative number of level-graph BFS builds (the engine's unit of
  /// search work, comparable to EdmondsKarp::bfs_count's augmenting-path
  /// searches in the incremental-cover micro benchmark).
  [[nodiscard]] std::int64_t bfs_count() const { return bfs_count_; }

  /// Cumulative number of nodes whose adjacency a level build scanned — a
  /// deterministic, host-independent measure of search locality.
  [[nodiscard]] std::int64_t nodes_scanned() const { return nodes_scanned_; }

 private:
  FlowNetwork* net_;
  NodeIndex source_;
  NodeIndex sink_;

  // Scratch reused across calls; grown (never shrunk) to node_bound(). A
  // node's level is valid only while its stamp equals epoch_.
  std::vector<std::uint32_t> stamp_;
  std::vector<int> level_;
  std::vector<EdgeId> current_arc_;
  std::vector<NodeIndex> queue_;
  std::vector<EdgeId> all_arcs_;  // run_to_max() seeds
  std::uint32_t epoch_ = 0;
  std::int64_t bfs_count_ = 0;
  std::int64_t nodes_scanned_ = 0;

  [[nodiscard]] bool labelled(NodeIndex v) const {
    return stamp_[static_cast<std::size_t>(v)] == epoch_;
  }
  bool build_levels(std::span<const EdgeId> source_arcs);
  Capacity push_blocking(NodeIndex v, Capacity limit);
};

/// Augments the network's current flow to a maximum flow using Dinic's
/// algorithm and returns the final total flow out of `source`.
Capacity max_flow_dinic(FlowNetwork& net, NodeIndex source, NodeIndex sink);

}  // namespace delta::flow
