// The memoized HTM mesh: every trixel's corners, bounding-circle center
// (with its ra, dec and cos dec) and radius down to a fixed depth, computed
// once per process.
//
// Region covers (the q -> B(q) mapping, §6.1) and point location walk the
// mesh from the eight roots on every call. The geometry they need at each
// node is a pure function of the node, so it is tabulated level by level
// with the very arithmetic Trixel and sky_point use (child(), center(),
// bounding_radius()): every cover, located trixel and area read through the
// table is bit-identical to one recomputed from the roots.
#pragma once

#include <array>
#include <vector>

#include "htm/region.h"
#include "htm/trixel.h"
#include "htm/vec3.h"

namespace delta::htm {

/// Deepest memoized level. Level L holds 8 * 4^L nodes of sizeof(MeshNode)
/// = 128 bytes: 1.0 MB at level 5, 4.2 MB at level 6, 5.6 MB for levels
/// 0..6 together. Only the levels a caller reaches are built. Walks below
/// this depth continue from the level-kMeshMemoDepth ancestor with
/// Trixel::child.
inline constexpr int kMeshMemoDepth = 6;

/// Geometry of one trixel, exactly as Trixel computes it.
struct MeshNode {
  std::array<Vec3, 3> corners;  // Trixel::vertices()
  SkyPoint center;              // sky_point(Trixel::center())
  double radius = 0.0;          // Trixel::bounding_radius()
};

/// The geometry of `t`, as the tables store it.
[[nodiscard]] MeshNode make_mesh_node(const Trixel& t);

/// The nodes of level `level` (0..kMeshMemoDepth) in index_in_level order:
/// child c of node i is node 4*i + c of the next level. The table is built
/// on first use under std::call_once (with every shallower level it derives
/// from), so any thread may call this at any time; once returned it is
/// immutable for the life of the process.
[[nodiscard]] const std::vector<MeshNode>& mesh_level(int level);

/// Node of any trixel: a table read up to kMeshMemoDepth, computed from
/// Trixel::from_id below it.
[[nodiscard]] MeshNode mesh_node(HtmId id);

}  // namespace delta::htm
