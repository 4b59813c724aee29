#include "flow/edmonds_karp.h"

#include <algorithm>

namespace delta::flow {

EdmondsKarp::EdmondsKarp(FlowNetwork& net, NodeIndex source, NodeIndex sink)
    : net_(&net), source_(source), sink_(sink) {
  DELTA_CHECK(net.is_active(source));
  DELTA_CHECK(net.is_active(sink));
  DELTA_CHECK(source != sink);
}

void EdmondsKarp::ensure_scratch() {
  const std::size_t bound = net_->node_bound();
  if (visit_epoch_.size() < bound) {
    visit_epoch_.resize(bound, 0);
    parent_edge_.resize(bound, kNoEdge);
  }
}

void EdmondsKarp::next_epoch() {
  ensure_scratch();
  if (++epoch_ == 0) {  // wrapped: no stale stamp may alias the new epoch
    std::fill(visit_epoch_.begin(), visit_epoch_.end(), 0);
    epoch_ = 1;
  }
  queue_.clear();
  visit_epoch_[static_cast<std::size_t>(source_)] = epoch_;
}

bool EdmondsKarp::bfs_to_sink(std::span<const EdgeId> source_arcs) {
  next_epoch();
  ++bfs_count_;
  // Labels w via arc e; true when w is the sink (which is never expanded).
  const auto visit = [this](EdgeId e) {
    const NodeIndex w = net_->edge(e).to;
    auto& stamp = visit_epoch_[static_cast<std::size_t>(w)];
    if (stamp == epoch_) return false;
    stamp = epoch_;
    parent_edge_[static_cast<std::size_t>(w)] = e;
    if (w == sink_) return true;
    queue_.push_back(w);
    return false;
  };
  for (const EdgeId a : source_arcs) {
    DELTA_DCHECK(net_->edge(a).from == source_);
    if (net_->residual(a) > 0 && visit(a)) return true;
  }
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    ++nodes_scanned_;
    for (EdgeId e = net_->first_edge(queue_[qi]); e != kNoEdge;
         e = net_->edge(e).next) {
      if (net_->residual(e) > 0 && visit(e)) return true;
    }
  }
  return false;
}

Capacity EdmondsKarp::run_to_max(std::span<const EdgeId> source_arcs) {
  Capacity added = 0;
  while (bfs_to_sink(source_arcs)) {
    // Bottleneck along the parent chain.
    Capacity bottleneck = kInfiniteCapacity;
    for (NodeIndex v = sink_; v != source_;) {
      const EdgeId e = parent_edge_[static_cast<std::size_t>(v)];
      bottleneck = std::min(bottleneck, net_->residual(e));
      v = net_->edge(e).from;
    }
    DELTA_CHECK(bottleneck > 0);
    for (NodeIndex v = sink_; v != source_;) {
      const EdgeId e = parent_edge_[static_cast<std::size_t>(v)];
      net_->add_flow(e, bottleneck);
      v = net_->edge(e).from;
    }
    added += bottleneck;
  }
  // The failed search visited exactly the residual-reachable nodes.
  return added;
}

Capacity EdmondsKarp::run_to_max() {
  all_arcs_.clear();
  for (EdgeId e = net_->first_edge(source_); e != kNoEdge;
       e = net_->edge(e).next) {
    all_arcs_.push_back(e);
  }
  return run_to_max(all_arcs_);
}

Capacity EdmondsKarp::total_flow() const { return net_->outflow(source_); }

void EdmondsKarp::compute_reachability() {
  next_epoch();
  queue_.push_back(source_);
  for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
    const NodeIndex v = queue_[qi];
    for (EdgeId e = net_->first_edge(v); e != kNoEdge;
         e = net_->edge(e).next) {
      if (net_->residual(e) <= 0) continue;
      const NodeIndex w = net_->edge(e).to;
      auto& stamp = visit_epoch_[static_cast<std::size_t>(w)];
      if (stamp == epoch_) continue;
      stamp = epoch_;
      queue_.push_back(w);
    }
  }
}

bool EdmondsKarp::reachable(NodeIndex v) const {
  DELTA_DCHECK(v >= 0 &&
               static_cast<std::size_t>(v) < visit_epoch_.size());
  return visit_epoch_[static_cast<std::size_t>(v)] == epoch_;
}

Capacity max_flow_edmonds_karp(FlowNetwork& net, NodeIndex source,
                               NodeIndex sink) {
  EdmondsKarp ek{net, source, sink};
  ek.run_to_max();
  return ek.total_flow();
}

}  // namespace delta::flow
