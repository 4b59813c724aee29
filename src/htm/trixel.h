// Hierarchical Triangular Mesh trixels (Kunszt, Szalay & Thakar 2001) — the
// quad-tree-on-the-sphere index the paper uses to partition the SDSS
// PhotoObj table into data objects (§6.1).
//
// Ids follow the standard HTM encoding: the eight root trixels are
// 8..15 (S0..S3 = 8..11, N0..N3 = 12..15) and child i of trixel t has id
// 4*t + i, so a level-L id lies in [8*4^L, 16*4^L).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "htm/vec3.h"

namespace delta::htm {

using HtmId = std::int64_t;

/// Level of an HTM id (0 for the eight roots). Requires a valid id (>= 8).
int level_of(HtmId id);

/// Number of trixels at a level: 8 * 4^level.
std::int64_t trixel_count_at_level(int level);

/// First id at a level: 8 * 4^level.
HtmId first_id_at_level(int level);

/// Zero-based index of an id within its level.
std::int64_t index_in_level(HtmId id);

/// Id from a zero-based index within a level.
HtmId id_from_index(int level, std::int64_t index);

constexpr HtmId parent_of(HtmId id) { return id / 4; }
constexpr HtmId child_of(HtmId id, int i) { return id * 4 + i; }

/// Ancestor of `id` at `ancestor_level` (<= level_of(id)).
HtmId ancestor_at_level(HtmId id, int ancestor_level);

/// A spherical triangle of the mesh with its three unit-vector corners.
class Trixel {
 public:
  /// A trixel from its id and its mesh corners (as vertices() returns them).
  Trixel(HtmId id, const std::array<Vec3, 3>& v) : id_(id), v_(v) {}

  /// Root trixel (index 0..7, i.e. id 8..15).
  static Trixel root(int index);

  /// Trixel for an arbitrary id: a table read up to kMeshMemoDepth
  /// (htm/mesh.h), subdivided from the deepest memoized ancestor below it.
  static Trixel from_id(HtmId id);

  [[nodiscard]] HtmId id() const { return id_; }
  [[nodiscard]] int level() const { return level_of(id_); }
  [[nodiscard]] const std::array<Vec3, 3>& vertices() const { return v_; }

  /// The i-th child (0..3) by the standard midpoint subdivision.
  [[nodiscard]] Trixel child(int i) const;

  /// True when the point (unit vector) lies inside this trixel.
  [[nodiscard]] bool contains(const Vec3& p) const;

  /// Centroid of the three corners, normalized; used as bounding-circle
  /// center.
  [[nodiscard]] Vec3 center() const;

  /// Angular radius (radians) of the bounding circle around center().
  [[nodiscard]] double bounding_radius() const;

  /// Solid angle (steradians) via l'Huilier's spherical excess.
  [[nodiscard]] double area() const;

 private:
  HtmId id_;
  std::array<Vec3, 3> v_;
};

/// Locates the level-`level` trixel containing point p. O(level); reads
/// the memoized mesh (htm/mesh.h) down to kMeshMemoDepth.
HtmId locate(const Vec3& p, int level);

}  // namespace delta::htm
