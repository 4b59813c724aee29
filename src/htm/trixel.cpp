#include "htm/trixel.h"

#include <algorithm>
#include <cmath>

#include "htm/mesh.h"
#include "util/check.h"

namespace delta::htm {

namespace {

// The six cardinal directions of the HTM octahedron.
constexpr Vec3 kV0{0.0, 0.0, 1.0};    // north pole
constexpr Vec3 kV1{1.0, 0.0, 0.0};
constexpr Vec3 kV2{0.0, 1.0, 0.0};
constexpr Vec3 kV3{-1.0, 0.0, 0.0};
constexpr Vec3 kV4{0.0, -1.0, 0.0};
constexpr Vec3 kV5{0.0, 0.0, -1.0};   // south pole

// Standard root-trixel corner table (S0..S3, N0..N3).
constexpr std::array<std::array<Vec3, 3>, 8> kRoots{{
    {{kV1, kV5, kV2}},  // S0, id 8
    {{kV2, kV5, kV3}},  // S1, id 9
    {{kV3, kV5, kV4}},  // S2, id 10
    {{kV4, kV5, kV1}},  // S3, id 11
    {{kV1, kV0, kV4}},  // N0, id 12
    {{kV4, kV0, kV3}},  // N1, id 13
    {{kV3, kV0, kV2}},  // N2, id 14
    {{kV2, kV0, kV1}},  // N3, id 15
}};

// Inclusive side test with a tiny tolerance so points on shared edges are
// found in at least one sibling.
bool inside_triangle(const std::array<Vec3, 3>& v, const Vec3& p) {
  constexpr double kEps = -1e-12;
  return dot(cross(v[0], v[1]), p) >= kEps &&
         dot(cross(v[1], v[2]), p) >= kEps &&
         dot(cross(v[2], v[0]), p) >= kEps;
}

}  // namespace

int level_of(HtmId id) {
  DELTA_CHECK_MSG(id >= 8, "invalid HTM id " << id);
  int level = 0;
  while (id >= 32) {
    id /= 4;
    ++level;
  }
  DELTA_CHECK_MSG(id >= 8 && id < 16, "invalid HTM id");
  return level;
}

std::int64_t trixel_count_at_level(int level) {
  DELTA_CHECK(level >= 0 && level < 28);
  return 8LL << (2 * level);
}

HtmId first_id_at_level(int level) { return trixel_count_at_level(level); }

std::int64_t index_in_level(HtmId id) {
  return id - first_id_at_level(level_of(id));
}

HtmId id_from_index(int level, std::int64_t index) {
  DELTA_CHECK(index >= 0 && index < trixel_count_at_level(level));
  return first_id_at_level(level) + index;
}

HtmId ancestor_at_level(HtmId id, int ancestor_level) {
  const int level = level_of(id);
  DELTA_CHECK(ancestor_level >= 0 && ancestor_level <= level);
  for (int i = level; i > ancestor_level; --i) id /= 4;
  return id;
}

Trixel Trixel::root(int index) {
  DELTA_CHECK(index >= 0 && index < 8);
  return Trixel{static_cast<HtmId>(8 + index),
                kRoots[static_cast<std::size_t>(index)]};
}

Trixel Trixel::child(int i) const {
  DELTA_CHECK(i >= 0 && i < 4);
  const Vec3 w0 = midpoint_on_sphere(v_[1], v_[2]);
  const Vec3 w1 = midpoint_on_sphere(v_[0], v_[2]);
  const Vec3 w2 = midpoint_on_sphere(v_[0], v_[1]);
  switch (i) {
    case 0:
      return Trixel{child_of(id_, 0), {v_[0], w2, w1}};
    case 1:
      return Trixel{child_of(id_, 1), {v_[1], w0, w2}};
    case 2:
      return Trixel{child_of(id_, 2), {v_[2], w1, w0}};
    default:
      return Trixel{child_of(id_, 3), {w0, w1, w2}};
  }
}

Trixel Trixel::from_id(HtmId id) {
  const int level = level_of(id);
  const int memo_level = std::min(level, kMeshMemoDepth);
  const HtmId memo_id = ancestor_at_level(id, memo_level);
  const auto memo_index = static_cast<std::size_t>(index_in_level(memo_id));
  Trixel t{memo_id, mesh_level(memo_level)[memo_index].corners};
  // Below the memo, follow the child-path digits down from the ancestor.
  for (int l = memo_level; l < level; ++l) {
    t = t.child(static_cast<int>((id >> (2 * (level - l - 1))) & 3));
  }
  return t;
}

bool Trixel::contains(const Vec3& p) const {
  return inside_triangle(v_, p);
}

Vec3 Trixel::center() const {
  return normalized(v_[0] + v_[1] + v_[2]);
}

double Trixel::bounding_radius() const {
  const Vec3 c = center();
  double r = 0.0;
  for (const auto& v : v_) r = std::max(r, angular_distance(c, v));
  return r;
}

double Trixel::area() const {
  // l'Huilier: tan(E/4) = sqrt(tan(s/2) tan((s-a)/2) tan((s-b)/2)
  // tan((s-c)/2)) with a,b,c the side arc lengths and s the semi-perimeter.
  const double a = angular_distance(v_[1], v_[2]);
  const double b = angular_distance(v_[0], v_[2]);
  const double c = angular_distance(v_[0], v_[1]);
  const double s = (a + b + c) / 2.0;
  const double t = std::tan(s / 2.0) * std::tan((s - a) / 2.0) *
                   std::tan((s - b) / 2.0) * std::tan((s - c) / 2.0);
  return 4.0 * std::atan(std::sqrt(std::max(t, 0.0)));
}

HtmId locate(const Vec3& p, int level) {
  const Vec3 unit = normalized(p);
  const std::vector<MeshNode>& roots = mesh_level(0);
  for (int r = 0; r < 8; ++r) {
    Trixel t{8 + r, roots[static_cast<std::size_t>(r)].corners};
    if (!t.contains(unit)) continue;
    for (int l = 1; l <= level; ++l) {
      const MeshNode* table =
          l <= kMeshMemoDepth ? mesh_level(l).data() : nullptr;
      bool descended = false;
      for (int c = 0; c < 4; ++c) {
        const HtmId child = child_of(t.id(), c);
        const Trixel ch =
            table != nullptr
                ? Trixel{child, table[child - first_id_at_level(l)].corners}
                : t.child(c);
        if (ch.contains(unit)) {
          t = ch;
          descended = true;
          break;
        }
      }
      DELTA_CHECK_MSG(descended, "point escaped trixel during descent");
    }
    return t.id();
  }
  DELTA_CHECK_MSG(false, "point not located in any root trixel");
  return 0;  // unreachable
}

}  // namespace delta::htm
