#include "flow/dinic.h"

#include <algorithm>

namespace delta::flow {

Dinic::Dinic(FlowNetwork& net, NodeIndex source, NodeIndex sink)
    : net_(&net), source_(source), sink_(sink) {
  DELTA_CHECK(net.is_active(source));
  DELTA_CHECK(net.is_active(sink));
  DELTA_CHECK(source != sink);
}

bool Dinic::build_levels(std::span<const EdgeId> source_arcs) {
  const std::size_t bound = net_->node_bound();
  if (stamp_.size() < bound) {
    stamp_.resize(bound, 0);
    level_.resize(bound, 0);
    current_arc_.resize(bound, kNoEdge);
  }
  if (++epoch_ == 0) {  // wrapped: no stale stamp may alias the new epoch
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  ++bfs_count_;
  queue_.clear();
  const auto label = [this](NodeIndex w, int level) {
    stamp_[static_cast<std::size_t>(w)] = epoch_;
    level_[static_cast<std::size_t>(w)] = level;
    // The sink is labelled but never expanded: its reverse arcs lead into
    // every component that carries flow.
    if (w != sink_) queue_.push_back(w);
  };
  stamp_[static_cast<std::size_t>(source_)] = epoch_;
  level_[static_cast<std::size_t>(source_)] = 0;
  for (const EdgeId a : source_arcs) {
    DELTA_DCHECK(net_->edge(a).from == source_);
    if (net_->residual(a) <= 0) continue;
    const NodeIndex w = net_->edge(a).to;
    if (!labelled(w)) label(w, 1);
  }
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const NodeIndex v = queue_[qi];
    const int next_level = level_[static_cast<std::size_t>(v)] + 1;
    for (EdgeId e = net_->first_edge(v); e != kNoEdge;
         e = net_->edge(e).next) {
      if (net_->residual(e) <= 0) continue;
      const NodeIndex w = net_->edge(e).to;
      if (!labelled(w)) label(w, next_level);
    }
  }
  nodes_scanned_ += static_cast<std::int64_t>(queue_.size());
  return labelled(sink_);
}

Capacity Dinic::push_blocking(NodeIndex v, Capacity limit) {
  if (v == sink_) return limit;
  EdgeId& arc = current_arc_[static_cast<std::size_t>(v)];
  while (arc != kNoEdge) {
    const auto& ed = net_->edge(arc);
    const NodeIndex w = ed.to;
    if (net_->residual(arc) > 0 && labelled(w) &&
        level_[static_cast<std::size_t>(w)] ==
            level_[static_cast<std::size_t>(v)] + 1) {
      const Capacity pushed =
          push_blocking(w, std::min(limit, net_->residual(arc)));
      if (pushed > 0) {
        net_->add_flow(arc, pushed);
        return pushed;
      }
    }
    arc = ed.next;
  }
  return 0;
}

Capacity Dinic::run_to_max(std::span<const EdgeId> source_arcs) {
  Capacity added = 0;
  while (build_levels(source_arcs)) {
    // Reset the arc cursors only for nodes the BFS reached — the
    // blocking-flow DFS never leaves the level graph.
    for (const NodeIndex v : queue_) {
      current_arc_[static_cast<std::size_t>(v)] = net_->first_edge(v);
    }
    // Blocking flow: drain the seed arcs in order, each until it saturates
    // or its subtree is blocked.
    for (const EdgeId a : source_arcs) {
      const NodeIndex u = net_->edge(a).to;
      if (!labelled(u) || level_[static_cast<std::size_t>(u)] != 1) continue;
      while (net_->residual(a) > 0) {
        const Capacity pushed = push_blocking(u, net_->residual(a));
        if (pushed == 0) break;
        net_->add_flow(a, pushed);
        added += pushed;
      }
    }
  }
  // The failed build labelled exactly the residual-reachable nodes: the
  // min-cut side reachable() hands out.
  return added;
}

Capacity Dinic::run_to_max() {
  all_arcs_.clear();
  for (EdgeId e = net_->first_edge(source_); e != kNoEdge;
       e = net_->edge(e).next) {
    all_arcs_.push_back(e);
  }
  return run_to_max(all_arcs_);
}

Capacity Dinic::total_flow() const { return net_->outflow(source_); }

bool Dinic::reachable(NodeIndex v) const {
  DELTA_DCHECK(v >= 0 && static_cast<std::size_t>(v) < stamp_.size());
  return labelled(v);
}

Capacity max_flow_dinic(FlowNetwork& net, NodeIndex source, NodeIndex sink) {
  Dinic dinic{net, source, sink};
  dinic.run_to_max();
  return dinic.total_flow();
}

}  // namespace delta::flow
