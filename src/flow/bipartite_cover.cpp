#include "flow/bipartite_cover.h"

#include <algorithm>

namespace delta::flow {

template <typename Engine>
BasicBipartiteCoverSolver<Engine>::BasicBipartiteCoverSolver()
    : source_(net_.add_node()),
      sink_(net_.add_node()),
      solver_(net_, source_, sink_) {
  slots_.resize(static_cast<std::size_t>(std::max(source_, sink_)) + 1);
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::check_handle(NodeIndex v,
                                                     std::uint32_t gen,
                                                     Side side) const {
  DELTA_CHECK_MSG(v >= 0 && static_cast<std::size_t>(v) < slots_.size(),
                  "stale or invalid vertex handle");
  DELTA_CHECK_MSG(slot(v).side == side, "vertex handle side mismatch");
  DELTA_CHECK_MSG(slot(v).generation == gen,
                  "vertex handle generation mismatch (node was removed)");
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::mark_dirty(NodeIndex v) {
  Slot& s = slot(v);
  if (s.dirty) return;
  s.dirty = true;
  dirty_.push_back(v);
}

template <typename Engine>
NodeIndex BasicBipartiteCoverSolver<Engine>::add_vertex(Side side,
                                                        Capacity weight) {
  DELTA_CHECK(weight > 0);
  const NodeIndex v = net_.add_node();
  if (slots_.size() <= static_cast<std::size_t>(v)) {
    slots_.resize(static_cast<std::size_t>(v) + 1);
  }
  Slot& s = slot(v);
  s.side = side;
  s.reachable = false;
  s.order = next_order_++;
  s.anchor = side == Side::kUpdate ? net_.add_edge(source_, v, weight)
                                   : net_.add_edge(v, sink_, weight);
  mark_dirty(v);
  cover_fresh_ = false;
  return v;
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::release_vertex(NodeIndex v) {
  set_update_covered(v, false);
  net_.remove_node(v);
  Slot& s = slot(v);
  s.side = Side::kFree;
  s.reachable = false;
  ++s.generation;
  s.anchor = kNoEdge;
  cover_fresh_ = false;
}

template <typename Engine>
typename BasicBipartiteCoverSolver<Engine>::UpdateNode
BasicBipartiteCoverSolver<Engine>::add_update(Capacity weight) {
  const NodeIndex v = add_vertex(Side::kUpdate, weight);
  ++update_count_;
  return UpdateNode{v, slot(v).generation};
}

template <typename Engine>
typename BasicBipartiteCoverSolver<Engine>::QueryNode
BasicBipartiteCoverSolver<Engine>::add_query(Capacity weight) {
  const NodeIndex v = add_vertex(Side::kQuery, weight);
  ++query_count_;
  return QueryNode{v, slot(v).generation};
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::connect(UpdateNode u, QueryNode q) {
  check_handle(u.index, u.generation, Side::kUpdate);
  check_handle(q.index, q.generation, Side::kQuery);
  net_.add_edge(u.index, q.index, kInfiniteCapacity);
  mark_dirty(u.index);
  mark_dirty(q.index);
  cover_fresh_ = false;
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::add_weight(QueryNode q,
                                                   Capacity delta) {
  check_handle(q.index, q.generation, Side::kQuery);
  DELTA_CHECK(delta > 0);
  const EdgeId anchor = slot(q.index).anchor;
  net_.set_capacity(anchor, net_.edge(anchor).cap + delta);
  mark_dirty(q.index);
  cover_fresh_ = false;
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::add_weight(UpdateNode u,
                                                   Capacity delta) {
  check_handle(u.index, u.generation, Side::kUpdate);
  DELTA_CHECK(delta > 0);
  const EdgeId anchor = slot(u.index).anchor;
  net_.set_capacity(anchor, net_.edge(anchor).cap + delta);
  mark_dirty(u.index);
  cover_fresh_ = false;
}

template <typename Engine>
Capacity BasicBipartiteCoverSolver<Engine>::weight(QueryNode q) const {
  check_handle(q.index, q.generation, Side::kQuery);
  return net_.edge(slot(q.index).anchor).cap;
}

template <typename Engine>
Capacity BasicBipartiteCoverSolver<Engine>::weight(UpdateNode u) const {
  check_handle(u.index, u.generation, Side::kUpdate);
  return net_.edge(slot(u.index).anchor).cap;
}

template <typename Engine>
std::size_t BasicBipartiteCoverSolver<Engine>::degree(QueryNode q) const {
  check_handle(q.index, q.generation, Side::kQuery);
  std::size_t n = 0;
  for (EdgeId e = net_.first_edge(q.index); e != kNoEdge;
       e = net_.edge(e).next) {
    // q's incident list holds its q->t anchor (cap > 0) plus the reverse
    // (cap == 0) of every interaction edge u->q.
    if (net_.edge(e).cap == 0) ++n;
  }
  return n;
}

template <typename Engine>
std::size_t BasicBipartiteCoverSolver<Engine>::degree(UpdateNode u) const {
  check_handle(u.index, u.generation, Side::kUpdate);
  std::size_t n = 0;
  for (EdgeId e = net_.first_edge(u.index); e != kNoEdge;
       e = net_.edge(e).next) {
    // u's incident list holds the reverse (cap == 0) of its s->u anchor plus
    // every forward interaction edge u->q (cap > 0).
    if (net_.edge(e).cap > 0) ++n;
  }
  return n;
}

template <typename Engine>
bool BasicBipartiteCoverSolver<Engine>::alive(QueryNode q) const {
  return q.index >= 0 && static_cast<std::size_t>(q.index) < slots_.size() &&
         slot(q.index).side == Side::kQuery &&
         slot(q.index).generation == q.generation;
}

template <typename Engine>
bool BasicBipartiteCoverSolver<Engine>::alive(UpdateNode u) const {
  return u.index >= 0 && static_cast<std::size_t>(u.index) < slots_.size() &&
         slot(u.index).side == Side::kUpdate &&
         slot(u.index).generation == u.generation;
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::remove_update(UpdateNode u) {
  check_handle(u.index, u.generation, Side::kUpdate);
  const EdgeId anchor = slot(u.index).anchor;
  // Cancel the flow routed through u: every unit entering via s->u leaves on
  // some interaction edge u->q and then on q's anchor q->t. Walking the
  // interaction edges and backing their flow out of the affected query
  // anchors restores a feasible (smaller) flow with u flow-free. Every
  // neighbour's component changes, so each is marked dirty.
  Capacity cancelled = 0;
  for (EdgeId e = net_.first_edge(u.index); e != kNoEdge;
       e = net_.edge(e).next) {
    const auto& ed = net_.edge(e);
    if (ed.cap == 0) continue;  // the u->s reverse of the anchor
    const NodeIndex q = ed.to;
    mark_dirty(q);
    const Capacity phi = ed.flow;
    if (phi <= 0) continue;
    net_.add_flow(e, -phi);
    net_.add_flow(slot(q).anchor, -phi);
    cancelled += phi;
  }
  DELTA_CHECK_MSG(net_.edge(anchor).flow == cancelled,
                  "flow conservation broken at removed update vertex");
  net_.add_flow(anchor, -cancelled);
  flow_ -= cancelled;
  release_vertex(u.index);
  --update_count_;
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::remove_query(QueryNode q) {
  check_handle(q.index, q.generation, Side::kQuery);
  DELTA_CHECK_MSG(degree(q) == 0,
                  "remove_query requires an isolated query vertex");
  DELTA_CHECK_MSG(net_.edge(slot(q.index).anchor).flow == 0,
                  "isolated query vertex still carries flow");
  release_vertex(q.index);
  --query_count_;
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::remove_query_force(QueryNode q) {
  check_handle(q.index, q.generation, Side::kQuery);
  const EdgeId anchor = slot(q.index).anchor;
  // Cancel flow along every s -> u -> q path through this vertex, marking
  // every neighbour dirty.
  Capacity cancelled = 0;
  for (EdgeId e = net_.first_edge(q.index); e != kNoEdge;
       e = net_.edge(e).next) {
    const auto& ed = net_.edge(e);
    if (ed.cap > 0) continue;  // the q->t anchor itself
    // Reverse of an interaction edge u->q; its flow is -flow(u->q).
    const NodeIndex u = ed.to;
    mark_dirty(u);
    const Capacity phi = -ed.flow;
    if (phi <= 0) continue;
    net_.add_flow(e ^ 1, -phi);  // the forward u->q edge
    net_.add_flow(slot(u).anchor, -phi);
    cancelled += phi;
  }
  DELTA_CHECK_MSG(net_.edge(anchor).flow == cancelled,
                  "flow conservation broken at removed query vertex");
  net_.add_flow(anchor, -cancelled);
  flow_ -= cancelled;
  release_vertex(q.index);
  --query_count_;
}

template <typename Engine>
std::vector<typename BasicBipartiteCoverSolver<Engine>::QueryNode>
BasicBipartiteCoverSolver<Engine>::neighbors(UpdateNode u) const {
  std::vector<QueryNode> out;
  for_each_neighbor(u, [&out](QueryNode q) { out.push_back(q); });
  return out;
}

template <typename Engine>
std::vector<typename BasicBipartiteCoverSolver<Engine>::UpdateNode>
BasicBipartiteCoverSolver<Engine>::neighbors(QueryNode q) const {
  std::vector<UpdateNode> out;
  for_each_neighbor(q, [&out](UpdateNode u) { out.push_back(u); });
  return out;
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::set_update_covered(NodeIndex u,
                                                           bool covered) {
  Slot& s = slot(u);
  if (covered == (s.cover_pos >= 0)) return;
  if (covered) {
    s.cover_pos = static_cast<std::int32_t>(covered_updates_.size());
    covered_updates_.push_back(u);
    return;
  }
  const NodeIndex last = covered_updates_.back();
  covered_updates_[static_cast<std::size_t>(s.cover_pos)] = last;
  slot(last).cover_pos = s.cover_pos;
  covered_updates_.pop_back();
  s.cover_pos = -1;
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::collect_dirty_components() {
  component_nodes_.clear();
  component_ends_.clear();
  seed_arcs_.clear();
  if (++fill_epoch_ == 0) {  // wrapped: no stale stamp may alias the epoch
    for (Slot& s : slots_) s.fill_stamp = 0;
    fill_epoch_ = 1;
  }
  for (const NodeIndex d : dirty_) {
    Slot& ds = slot(d);
    ds.dirty = false;
    if (ds.side == Side::kFree || ds.fill_stamp == fill_epoch_) continue;
    // Flood-fill d's component over interaction edges (anchors excluded).
    ds.fill_stamp = fill_epoch_;
    const std::size_t start = component_nodes_.size();
    component_nodes_.push_back(d);
    for (std::size_t i = start; i < component_nodes_.size(); ++i) {
      const NodeIndex v = component_nodes_[i];
      for (EdgeId e = net_.first_edge(v); e != kNoEdge;
           e = net_.edge(e).next) {
        const NodeIndex w = net_.edge(e).to;
        if (w == source_ || w == sink_) continue;
        Slot& ws = slot(w);
        if (ws.fill_stamp == fill_epoch_) continue;
        ws.fill_stamp = fill_epoch_;
        component_nodes_.push_back(w);
      }
      if (slot(v).side == Side::kUpdate) seed_arcs_.push_back(slot(v).anchor);
    }
    component_ends_.push_back(component_nodes_.size());
  }
  dirty_.clear();
  flood_scanned_ += static_cast<std::int64_t>(component_nodes_.size());
  // Drain the seeds in the source's adjacency order (descending add order),
  // as a whole-network run would: the engine then routes identical flow.
  std::sort(seed_arcs_.begin(), seed_arcs_.end(),
            [this](EdgeId a, EdgeId b) {
              return slot(net_.edge(a).to).order >
                     slot(net_.edge(b).to).order;
            });
}

template <typename Engine>
void BasicBipartiteCoverSolver<Engine>::refresh_components() {
  std::size_t begin = 0;
  for (const std::size_t end : component_ends_) {
    Capacity cover_weight = 0;
    Capacity source_flow = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const NodeIndex v = component_nodes_[i];
      Slot& s = slot(v);
      s.reachable = solver_.reachable(v);
      const auto& anchor = net_.edge(s.anchor);
      if (s.side == Side::kUpdate) {
        set_update_covered(v, !s.reachable);
        if (!s.reachable) cover_weight += anchor.cap;
        source_flow += anchor.flow;
      } else if (s.reachable) {
        cover_weight += anchor.cap;
      }
    }
    DELTA_CHECK_MSG(cover_weight == source_flow,
                    "min-cut/max-flow duality violated in a re-solved "
                    "component: cover weight "
                        << cover_weight << " vs flow " << source_flow);
    begin = end;
  }
}

template <typename Engine>
const typename BasicBipartiteCoverSolver<Engine>::Cover&
BasicBipartiteCoverSolver<Engine>::compute() {
  collect_dirty_components();
  flow_ += solver_.run_to_max(seed_arcs_);
  refresh_components();
  ++compute_count_;
  cover_fresh_ = true;

  std::sort(covered_updates_.begin(), covered_updates_.end(),
            [this](NodeIndex a, NodeIndex b) {
              return slot(a).order > slot(b).order;
            });
  cover_.updates.clear();
  for (std::size_t i = 0; i < covered_updates_.size(); ++i) {
    const NodeIndex u = covered_updates_[i];
    slot(u).cover_pos = static_cast<std::int32_t>(i);
    cover_.updates.push_back(UpdateNode{u, slot(u).generation});
  }
  // Each component's cover weight equals its flow: checked above for the
  // re-solved ones, at their last re-solve for the rest.
  cover_.weight = flow_;
  cover_.owner_ = this;
  cover_.compute_id_ = compute_count_;
  cover_.queries_.clear();
  cover_.queries_built_ = false;
  return cover_;
}

template <typename Engine>
const std::vector<typename BasicBipartiteCoverSolver<Engine>::QueryNode>&
BasicBipartiteCoverSolver<Engine>::Cover::queries() const {
  DELTA_CHECK_MSG(owner_ != nullptr && owner_->cover_fresh_ &&
                      owner_->compute_count_ == compute_id_,
                  "cover queried after the graph changed");
  if (!queries_built_) {
    // Query vertices hang off the sink's head-inserted adjacency list (as
    // anchor reverses), newest first.
    const FlowNetwork& net = owner_->net_;
    for (EdgeId e = net.first_edge(owner_->sink_); e != kNoEdge;
         e = net.edge(e).next) {
      const NodeIndex q = net.edge(e).to;
      if (owner_->slot(q).reachable) {
        queries_.push_back(QueryNode{q, owner_->slot(q).generation});
      }
    }
    queries_built_ = true;
  }
  return queries_;
}

template <typename Engine>
bool BasicBipartiteCoverSolver<Engine>::in_last_cover(UpdateNode u) const {
  DELTA_CHECK_MSG(cover_fresh_, "cover queried after the graph changed");
  check_handle(u.index, u.generation, Side::kUpdate);
  return !slot(u.index).reachable;
}

template <typename Engine>
bool BasicBipartiteCoverSolver<Engine>::in_last_cover(QueryNode q) const {
  DELTA_CHECK_MSG(cover_fresh_, "cover queried after the graph changed");
  check_handle(q.index, q.generation, Side::kQuery);
  return slot(q.index).reachable;
}

template <typename Engine>
std::size_t BasicBipartiteCoverSolver<Engine>::interaction_count() const {
  return net_.active_edge_count() - update_count_ - query_count_;
}

template <typename Engine>
bool BasicBipartiteCoverSolver<Engine>::last_cover_is_valid() const {
  if (!cover_fresh_) return false;
  Capacity weight = 0;
  std::size_t covered_updates = 0;
  for (EdgeId e = net_.first_edge(source_); e != kNoEdge;
       e = net_.edge(e).next) {
    const NodeIndex u = net_.edge(e).to;
    const bool u_in_cover = !slot(u).reachable;
    if (u_in_cover) {
      weight += net_.edge(e).cap;
      ++covered_updates;
    }
    // Every interaction edge u->q must be covered.
    for (EdgeId ie = net_.first_edge(u); ie != kNoEdge;
         ie = net_.edge(ie).next) {
      const auto& ied = net_.edge(ie);
      if (ied.cap == 0) continue;
      const bool q_in_cover = slot(ied.to).reachable;
      if (!u_in_cover && !q_in_cover) return false;
    }
  }
  for (EdgeId e = net_.first_edge(sink_); e != kNoEdge;
       e = net_.edge(e).next) {
    const NodeIndex q = net_.edge(e).to;
    if (slot(q).reachable) weight += net_.edge(slot(q).anchor).cap;
  }
  return covered_updates == cover_.updates.size() &&
         weight == cover_.weight && weight == flow_ &&
         weight == net_.outflow(source_);
}

template class BasicBipartiteCoverSolver<Dinic>;
template class BasicBipartiteCoverSolver<EdmondsKarp>;

}  // namespace delta::flow
