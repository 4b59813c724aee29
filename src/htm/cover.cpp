#include "htm/cover.h"

#include <algorithm>
#include <array>

#include "htm/mesh.h"
#include "util/check.h"

namespace delta::htm {

namespace {

thread_local std::int64_t t_nodes_visited = 0;

enum class Overlap { kOutside, kPartial, kInside };

Overlap classify(const MeshNode& node, const Region& region) {
  if (region_distance_to(region, node.center) > node.radius) {
    return Overlap::kOutside;
  }
  // Inside when all corners and the center are contained. (Approximate:
  // boundary bulges are caught by the recursion below, and at worst a
  // boundary trixel is classified Partial, which is conservative.)
  if (region_contains(region, node.center.v) &&
      std::all_of(node.corners.begin(), node.corners.end(),
                  [&](const Vec3& v) { return region_contains(region, v); })) {
    return Overlap::kInside;
  }
  return Overlap::kPartial;
}

struct CoverWalk {
  const Region& region;
  int target_level;
  /// Memo tables of levels 0..min(target_level, kMeshMemoDepth).
  std::array<const MeshNode*, kMeshMemoDepth + 1> memo{};
  std::vector<HtmId>& out;
  std::int64_t nodes_visited = 0;
};

void descend(CoverWalk& w, HtmId id, int level, const MeshNode& node) {
  ++w.nodes_visited;
  const Overlap o = classify(node, w.region);
  if (o == Overlap::kOutside) return;
  if (level == w.target_level) {
    w.out.push_back(id);
    return;
  }
  if (o == Overlap::kInside) {
    // Whole subtree is inside: enumerate descendants arithmetically.
    const int depth = w.target_level - level;
    const HtmId first = id << (2 * depth);
    const HtmId count = 1LL << (2 * depth);
    for (HtmId i = 0; i < count; ++i) w.out.push_back(first + i);
    return;
  }
  const int child_level = level + 1;
  for (int c = 0; c < 4; ++c) {
    const HtmId child = child_of(id, c);
    if (child_level <= kMeshMemoDepth) {
      descend(w, child, child_level,
              w.memo[child_level][child - first_id_at_level(child_level)]);
    } else {
      descend(w, child, child_level,
              make_mesh_node(Trixel{id, node.corners}.child(c)));
    }
  }
}

}  // namespace

std::vector<HtmId> cover_region(const Region& region, int level) {
  DELTA_CHECK(level >= 0 && level <= 12);
  std::vector<HtmId> out;
  CoverWalk w{region, level, {}, out};
  for (int l = 0; l <= std::min(level, kMeshMemoDepth); ++l) {
    w.memo[static_cast<std::size_t>(l)] = mesh_level(l).data();
  }
  for (int r = 0; r < 8; ++r) descend(w, 8 + r, 0, w.memo[0][r]);
  t_nodes_visited = w.nodes_visited;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::int64_t last_cover_nodes_visited() { return t_nodes_visited; }

}  // namespace delta::htm
