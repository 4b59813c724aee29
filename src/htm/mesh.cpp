#include "htm/mesh.h"

#include <mutex>

#include "util/check.h"

namespace delta::htm {

namespace {

struct MeshMemo {
  std::array<std::once_flag, kMeshMemoDepth + 1> built;
  std::array<std::vector<MeshNode>, kMeshMemoDepth + 1> levels;
};

MeshMemo& memo() {
  static MeshMemo m;
  return m;
}

}  // namespace

MeshNode make_mesh_node(const Trixel& t) {
  return {t.vertices(), sky_point(t.center()), t.bounding_radius()};
}

const std::vector<MeshNode>& mesh_level(int level) {
  DELTA_CHECK(level >= 0 && level <= kMeshMemoDepth);
  MeshMemo& m = memo();
  const auto l = static_cast<std::size_t>(level);
  std::call_once(m.built[l], [&] {
    std::vector<MeshNode>& nodes = m.levels[l];
    nodes.reserve(static_cast<std::size_t>(trixel_count_at_level(level)));
    if (level == 0) {
      for (int r = 0; r < 8; ++r) {
        nodes.push_back(make_mesh_node(Trixel::root(r)));
      }
      return;
    }
    const std::vector<MeshNode>& parents = mesh_level(level - 1);
    const HtmId first_parent = first_id_at_level(level - 1);
    for (std::size_t i = 0; i < parents.size(); ++i) {
      const Trixel parent{first_parent + static_cast<HtmId>(i),
                          parents[i].corners};
      for (int c = 0; c < 4; ++c) {
        nodes.push_back(make_mesh_node(parent.child(c)));
      }
    }
  });
  return m.levels[l];
}

MeshNode mesh_node(HtmId id) {
  const int level = level_of(id);
  if (level > kMeshMemoDepth) return make_mesh_node(Trixel::from_id(id));
  return mesh_level(level)[static_cast<std::size_t>(index_in_level(id))];
}

}  // namespace delta::htm
