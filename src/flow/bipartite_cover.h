// Incremental minimum-weight vertex cover on a bipartite graph, via max-flow
// min-cut. This realizes Theorem 1 of the paper: for the internal interaction
// graph over cached objects, the optimal ship-queries-vs-ship-updates choice
// is the min-weight vertex cover, computable in polynomial time because the
// graph is bipartite (query nodes on one side, update nodes on the other).
//
// Construction (Hochbaum): source s -> update u with capacity w(u);
// update u -> query q with infinite capacity for each interaction;
// query q -> sink t with capacity w(q). After computing max flow, with S the
// set of nodes residual-reachable from s, the minimum-weight cover is
//   { u : u not in S }  ∪  { q : q in S }
// and its weight equals the max-flow value (LP duality).
//
// The solver is incremental in its flow:
//  * additions (new queries, updates, interaction edges) leave the previous
//    flow valid, so the next compute() only augments the difference;
//  * removals (the remainder-subgraph rule, object eviction/loading) cancel
//    the flow routed through the removed vertex before deleting it, leaving
//    a smaller but still feasible flow.
//
// It is also incremental in its search: compute() costs O(touched
// components), not O(live graph). Call the connected components of the
// update–query graph (interaction edges only, anchors to s and t excluded)
// its components. An augmenting path, and a residual path from s, meets s
// only where it starts; at max flow none passes through t. So every such
// path stays inside one component, and a component whose vertices, edges
// and weights have not changed since the last compute() is still at max
// flow with an unchanged min-cut side. The solver marks a vertex dirty when
//  * it is added (add_update, add_query),
//  * it is an endpoint of a new edge (connect),
//  * it is re-weighted (add_weight),
//  * it is a neighbour of a vertex removed by remove_update or
//    remove_query_force (remove_query only takes isolated vertices).
// compute() flood-fills the dirty vertices' components over interaction
// edges, runs the engine seeded at those components' s->u anchors (the
// engine never expands t), and refreshes per-vertex reachability for those
// components only. The covered update set and the total flow are kept as
// running figures; a clean component's share of both was checked for
// duality when it was last re-solved.
//
// Cover::updates lists the covered update vertices in descending add_update
// order — the order of the source's head-inserted adjacency list, which the
// UpdateManager's ship order (and so uplink timing) follows. Seeds are
// drained in that same order, so the engine routes exactly the flow a
// whole-network run would.
//
// The max-flow engine is a template parameter. The default is flow::Dinic
// (level-graph blocking flow; its final failed BFS doubles as the min-cut
// reachability pass). flow::EdmondsKarp is retained as an alternative
// engine for differential testing — the two must produce identical covers,
// not merely equal weights: the reachable set S is the *minimal* source-side
// min cut, which is a flow-independent property of the network, so every
// correct max-flow engine extracts the same cover
// (tests/flow_property_test.cpp pins this).
#pragma once

#include <cstdint>
#include <vector>

#include "flow/dinic.h"
#include "flow/edmonds_karp.h"
#include "flow/network.h"

namespace delta::flow {

template <typename Engine>
class BasicBipartiteCoverSolver {
 public:
  /// Opaque handle to an update-side vertex.
  struct UpdateNode {
    NodeIndex index = kNoNode;
    std::uint32_t generation = 0;
    [[nodiscard]] bool valid() const { return index != kNoNode; }
    friend bool operator==(UpdateNode, UpdateNode) = default;
  };
  /// Opaque handle to a query-side vertex.
  struct QueryNode {
    NodeIndex index = kNoNode;
    std::uint32_t generation = 0;
    [[nodiscard]] bool valid() const { return index != kNoNode; }
    friend bool operator==(QueryNode, QueryNode) = default;
  };

  BasicBipartiteCoverSolver();

  // The internal max-flow engine points into the owned network; copying or
  // moving would leave it dangling.
  BasicBipartiteCoverSolver(const BasicBipartiteCoverSolver&) = delete;
  BasicBipartiteCoverSolver& operator=(const BasicBipartiteCoverSolver&) =
      delete;

  /// Adds an update vertex with weight w(u) (its network shipping cost).
  UpdateNode add_update(Capacity weight);

  /// Adds a query vertex with weight w(q) (its network shipping cost).
  QueryNode add_query(Capacity weight);

  /// Adds an interaction edge (u, q): answering q at the cache requires u.
  void connect(UpdateNode u, QueryNode q);

  /// Raises a vertex's weight in place (exact when merging two same-side
  /// vertices with identical neighborhoods: the min cover treats them as
  /// one vertex carrying their combined weight).
  void add_weight(QueryNode q, Capacity delta);
  void add_weight(UpdateNode u, Capacity delta);

  /// Current weight of a vertex.
  [[nodiscard]] Capacity weight(QueryNode q) const;
  [[nodiscard]] Capacity weight(UpdateNode u) const;

  /// Removes an update vertex, cancelling any flow routed through it. Its
  /// incident interaction edges disappear; affected queries stay.
  void remove_update(UpdateNode u);

  /// Removes a query vertex. The vertex must be isolated (all its
  /// interactions gone — e.g. its updates were shipped or its objects
  /// evicted); this is exactly the state in which the remainder rule
  /// discards query nodes.
  void remove_query(QueryNode q);

  /// Removes a query vertex even when it still has interaction edges,
  /// cancelling any flow routed through it (the "forget shipped queries"
  /// ablation — disabling the remainder rule's memory).
  void remove_query_force(QueryNode q);

  /// Visits the query vertices currently adjacent to u without allocating
  /// (needed on the replay hot path when u is shipped and removed).
  template <typename Fn>
  void for_each_neighbor(UpdateNode u, Fn&& fn) const {
    check_handle(u.index, u.generation, Side::kUpdate);
    for (EdgeId e = net_.first_edge(u.index); e != kNoEdge;
         e = net_.edge(e).next) {
      const auto& ed = net_.edge(e);
      if (ed.cap == 0) continue;  // the u->s anchor reverse
      fn(QueryNode{ed.to, slot(ed.to).generation});
    }
  }

  /// Visits the update vertices currently adjacent to q without allocating
  /// (for neighborhood-signature maintenance when merging query vertices).
  template <typename Fn>
  void for_each_neighbor(QueryNode q, Fn&& fn) const {
    check_handle(q.index, q.generation, Side::kQuery);
    for (EdgeId e = net_.first_edge(q.index); e != kNoEdge;
         e = net_.edge(e).next) {
      const auto& ed = net_.edge(e);
      if (ed.cap > 0) continue;  // the q->t anchor
      fn(UpdateNode{ed.to, slot(ed.to).generation});
    }
  }

  /// Allocating snapshots of the adjacency (tests / non-hot callers).
  [[nodiscard]] std::vector<QueryNode> neighbors(UpdateNode u) const;
  [[nodiscard]] std::vector<UpdateNode> neighbors(QueryNode q) const;

  /// Number of interaction edges currently incident to q.
  [[nodiscard]] std::size_t degree(QueryNode q) const;
  [[nodiscard]] std::size_t degree(UpdateNode u) const;

  /// Non-throwing liveness checks (a handle goes dead when its vertex is
  /// removed, even if the slot is later reused).
  [[nodiscard]] bool alive(QueryNode q) const;
  [[nodiscard]] bool alive(UpdateNode u) const;

  class Cover {
   public:
    /// Covered update vertices, in descending add_update order.
    std::vector<UpdateNode> updates;
    Capacity weight = 0;

    /// Covered query vertices, in descending add_query order. Built on the
    /// first call by a walk of the whole query side (O(live graph)), so the
    /// replay hot path never calls it. Valid while the graph is unchanged
    /// since the compute() that produced this cover.
    [[nodiscard]] const std::vector<QueryNode>& queries() const;

   private:
    friend class BasicBipartiteCoverSolver;
    const BasicBipartiteCoverSolver* owner_ = nullptr;
    std::int64_t compute_id_ = 0;  // owner's compute() count when taken
    mutable std::vector<QueryNode> queries_;
    mutable bool queries_built_ = false;
  };

  /// Computes the minimum-weight vertex cover of the current graph,
  /// re-solving only the components touched since the last call and
  /// augmenting from the previous flow. The returned reference points at
  /// solver-owned scratch, valid until the next compute() call.
  const Cover& compute();

  /// True when the given vertex was selected by the most recent compute().
  /// (Convenience for membership checks without scanning the Cover lists.)
  [[nodiscard]] bool in_last_cover(UpdateNode u) const;
  [[nodiscard]] bool in_last_cover(QueryNode q) const;

  [[nodiscard]] std::size_t update_count() const { return update_count_; }
  [[nodiscard]] std::size_t query_count() const { return query_count_; }
  [[nodiscard]] std::size_t interaction_count() const;
  /// Total flow, kept as a running figure (O(1)).
  [[nodiscard]] Capacity current_flow() const { return flow_; }
  [[nodiscard]] std::int64_t bfs_count() const { return solver_.bfs_count(); }
  /// Nodes scanned by compute() so far: the dirty-component flood fill plus
  /// the engine's searches. Deterministic; the locality tests gate on it.
  [[nodiscard]] std::int64_t nodes_scanned() const {
    return flood_scanned_ + solver_.nodes_scanned();
  }

  /// Validates, over the whole graph, that the last computed cover touches
  /// every interaction edge and that its weight equals both the running
  /// flow and the flow out of the source. O(V+E); test hook.
  [[nodiscard]] bool last_cover_is_valid() const;

  /// Direct access to the underlying network (benchmarks, tests).
  [[nodiscard]] const FlowNetwork& network() const { return net_; }

 private:
  FlowNetwork net_;
  NodeIndex source_;
  NodeIndex sink_;
  Engine solver_;

  enum class Side : std::uint8_t { kFree, kUpdate, kQuery };
  /// Per-vertex state, indexed by NodeIndex.
  struct Slot {
    Side side = Side::kFree;
    bool reachable = false;  // source side of the min cut, as last solved
    bool dirty = false;      // queued in dirty_
    std::uint32_t generation = 0;  // bumped on node removal
    std::uint32_t fill_stamp = 0;  // == fill_epoch_ once flood-filled
    EdgeId anchor = kNoEdge;       // s->u or q->t edge
    std::int32_t cover_pos = -1;   // index in covered_updates_, or -1
    std::uint64_t order = 0;       // add_update/add_query sequence number
  };
  std::vector<Slot> slots_;
  std::uint64_t next_order_ = 0;
  std::size_t update_count_ = 0;
  std::size_t query_count_ = 0;
  Capacity flow_ = 0;
  std::vector<NodeIndex> covered_updates_;  // unordered between computes
  std::vector<NodeIndex> dirty_;

  // compute() scratch, reused across calls.
  std::uint32_t fill_epoch_ = 0;
  std::vector<NodeIndex> component_nodes_;  // re-solved components, packed
  std::vector<std::size_t> component_ends_;
  std::vector<EdgeId> seed_arcs_;
  std::int64_t flood_scanned_ = 0;
  std::int64_t compute_count_ = 0;
  bool cover_fresh_ = false;
  Cover cover_;

  [[nodiscard]] Slot& slot(NodeIndex v) {
    return slots_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const Slot& slot(NodeIndex v) const {
    return slots_[static_cast<std::size_t>(v)];
  }
  NodeIndex add_vertex(Side side, Capacity weight);
  void release_vertex(NodeIndex v);
  void mark_dirty(NodeIndex v);
  void set_update_covered(NodeIndex u, bool covered);
  void collect_dirty_components();
  void refresh_components();
  void check_handle(NodeIndex v, std::uint32_t gen, Side side) const;
};

/// The production solver: Dinic-powered.
using BipartiteCoverSolver = BasicBipartiteCoverSolver<Dinic>;

// Both engines are compiled once in bipartite_cover.cpp.
extern template class BasicBipartiteCoverSolver<Dinic>;
extern template class BasicBipartiteCoverSolver<EdmondsKarp>;

}  // namespace delta::flow
