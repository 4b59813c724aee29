// The memoized mesh against the mesh recomputed from the roots.
//
// Covers, point location, trixel areas and the per-node geometry are read
// from the level tables of htm/mesh.h. This file keeps the Trixel-walking
// descent and locate they replaced as the reference, and asserts that every
// result is identical — the same ids, the same node counts, the same bits —
// including below the memo's depth cap, where walks continue with
// Trixel::child.
#include "htm/mesh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "htm/cover.h"
#include "htm/partition_map.h"
#include "storage/catalog.h"
#include "storage/density_model.h"
#include "util/rng.h"

namespace delta::htm {
namespace {

// ---- reference: the mesh recomputed from the eight roots on every call ----

namespace reference {

Trixel from_id(HtmId id) {
  const int level = level_of(id);
  Trixel t = Trixel::root(static_cast<int>(ancestor_at_level(id, 0) - 8));
  for (int l = 0; l < level; ++l) {
    t = t.child(static_cast<int>((id >> (2 * (level - l - 1))) & 3));
  }
  return t;
}

enum class Overlap { kOutside, kPartial, kInside };

Overlap classify(const Trixel& t, const Region& region) {
  const Vec3 c = t.center();
  const double r = t.bounding_radius();
  if (region_distance_to(region, c) > r) return Overlap::kOutside;
  if (region_contains(region, c) &&
      std::all_of(t.vertices().begin(), t.vertices().end(),
                  [&](const Vec3& v) { return region_contains(region, v); })) {
    return Overlap::kInside;
  }
  return Overlap::kPartial;
}

void descend(const Trixel& t, const Region& region, int target_level,
             std::vector<HtmId>& out, std::int64_t& visited) {
  ++visited;
  const Overlap o = classify(t, region);
  if (o == Overlap::kOutside) return;
  if (t.level() == target_level) {
    out.push_back(t.id());
    return;
  }
  if (o == Overlap::kInside) {
    const int depth = target_level - t.level();
    const HtmId first = t.id() << (2 * depth);
    const HtmId count = 1LL << (2 * depth);
    for (HtmId i = 0; i < count; ++i) out.push_back(first + i);
    return;
  }
  for (int c = 0; c < 4; ++c) {
    descend(t.child(c), region, target_level, out, visited);
  }
}

std::vector<HtmId> cover_region(const Region& region, int level,
                                std::int64_t& visited) {
  visited = 0;
  std::vector<HtmId> out;
  for (int r = 0; r < 8; ++r) {
    descend(Trixel::root(r), region, level, out, visited);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

HtmId locate(const Vec3& p, int level) {
  const Vec3 unit = normalized(p);
  for (int r = 0; r < 8; ++r) {
    Trixel t = Trixel::root(r);
    if (!t.contains(unit)) continue;
    for (int l = 0; l < level; ++l) {
      bool descended = false;
      for (int c = 0; c < 4; ++c) {
        const Trixel ch = t.child(c);
        if (ch.contains(unit)) {
          t = ch;
          descended = true;
          break;
        }
      }
      if (!descended) return -1;
    }
    return t.id();
  }
  return -1;
}

}  // namespace reference

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectSameBits(const Vec3& a, const Vec3& b) {
  EXPECT_EQ(bits(a.x), bits(b.x));
  EXPECT_EQ(bits(a.y), bits(b.y));
  EXPECT_EQ(bits(a.z), bits(b.z));
}

Vec3 random_unit(util::Rng& rng) {
  return normalized({rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)});
}

/// Seeded cones, rects (every fourth one wrapped through ra = 0) and
/// great-circle bands of assorted sizes.
std::vector<Region> random_regions(std::uint64_t seed, int per_kind) {
  util::Rng rng{seed};
  std::vector<Region> regions;
  for (int i = 0; i < per_kind; ++i) {
    regions.push_back(Cone{random_unit(rng), rng.uniform(0.002, 0.3)});
    const double w = rng.uniform(0.5, 30.0);
    const double ra_lo = i % 4 == 0 ? rng.uniform(360.0 - w, 359.9)
                                    : rng.uniform(0.0, 360.0);
    const double ra_hi = std::fmod(ra_lo + w, 360.0);
    const double dec_lo = rng.uniform(-89.0, 80.0);
    const double dec_hi = std::min(89.9, dec_lo + rng.uniform(0.5, 20.0));
    regions.push_back(RaDecRect{ra_lo, ra_hi, dec_lo, dec_hi});
    regions.push_back(
        GreatCircleBand{random_unit(rng), rng.uniform(0.001, 0.05)});
  }
  return regions;
}

TEST(HtmMeshTest, NodesMatchTrixelGeometryBitwise) {
  for (int level = 0; level <= kMeshMemoDepth; ++level) {
    const std::vector<MeshNode>& nodes = mesh_level(level);
    ASSERT_EQ(static_cast<std::int64_t>(nodes.size()),
              trixel_count_at_level(level));
    // Every node at the shallow levels; a stride through the deep ones.
    const std::size_t stride = level <= 4 ? 1 : 7;
    for (std::size_t i = 0; i < nodes.size(); i += stride) {
      const Trixel t = reference::from_id(
          id_from_index(level, static_cast<std::int64_t>(i)));
      for (int v = 0; v < 3; ++v) {
        ExpectSameBits(nodes[i].corners[static_cast<std::size_t>(v)],
                       t.vertices()[static_cast<std::size_t>(v)]);
      }
      ExpectSameBits(nodes[i].center.v, t.center());
      EXPECT_EQ(bits(nodes[i].radius), bits(t.bounding_radius()));
    }
  }
}

TEST(HtmMeshTest, FromIdMatchesRootWalkAcrossTheCap) {
  util::Rng rng{11};
  for (int level = 0; level <= kMeshMemoDepth + 3; ++level) {
    for (int k = 0; k < 64; ++k) {
      const HtmId id = id_from_index(
          level, rng.uniform_int(0, trixel_count_at_level(level) - 1));
      const Trixel memo = Trixel::from_id(id);
      const Trixel walk = reference::from_id(id);
      ASSERT_EQ(memo.id(), walk.id());
      for (int v = 0; v < 3; ++v) {
        ExpectSameBits(memo.vertices()[static_cast<std::size_t>(v)],
                       walk.vertices()[static_cast<std::size_t>(v)]);
      }
      const MeshNode node = mesh_node(id);
      ExpectSameBits(node.center.v, walk.center());
      EXPECT_EQ(bits(node.radius), bits(walk.bounding_radius()));
    }
  }
}

TEST(HtmMeshTest, CoversMatchReferenceDescent) {
  const std::vector<Region> regions = random_regions(0xC0FE, 12);
  for (int level = 0; level <= kMeshMemoDepth; ++level) {
    for (std::size_t i = 0; i < regions.size(); ++i) {
      std::int64_t ref_visited = 0;
      const auto expected =
          reference::cover_region(regions[i], level, ref_visited);
      const auto actual = cover_region(regions[i], level);
      ASSERT_EQ(actual, expected) << "level " << level << " region " << i;
      EXPECT_EQ(last_cover_nodes_visited(), ref_visited)
          << "level " << level << " region " << i;
    }
  }
}

TEST(HtmMeshTest, CoversBelowTheCapMatchReferenceDescent) {
  // Small regions keep the deep walks short; they continue past the last
  // memoized level with Trixel::child.
  util::Rng rng{0xDEE9};
  for (int level = kMeshMemoDepth + 1; level <= kMeshMemoDepth + 2; ++level) {
    for (int k = 0; k < 8; ++k) {
      const Vec3 c = random_unit(rng);
      const RaDec rd = to_ra_dec(c);
      const Region cone = Cone{c, rng.uniform(0.002, 0.02)};
      const double dec = std::clamp(rd.dec_deg, -85.0, 85.0);
      const Region rect = RaDecRect{
          rd.ra_deg, std::fmod(rd.ra_deg + 1.0, 360.0), dec, dec + 1.0};
      for (const Region& region : {cone, rect}) {
        std::int64_t ref_visited = 0;
        const auto expected =
            reference::cover_region(region, level, ref_visited);
        ASSERT_EQ(cover_region(region, level), expected) << "level " << level;
        EXPECT_EQ(last_cover_nodes_visited(), ref_visited);
      }
    }
  }
}

TEST(HtmMeshTest, LocateMatchesReferenceAcrossTheCap) {
  util::Rng rng{0x10CA7E};
  std::vector<Vec3> points;
  for (int i = 0; i < 400; ++i) points.push_back(random_unit(rng));
  // Mesh corners and edge midpoints: ties between siblings resolve the
  // same way only if the children are tried in the same order.
  for (int k = 0; k < 50; ++k) {
    const Trixel t = reference::from_id(
        id_from_index(3, rng.uniform_int(0, trixel_count_at_level(3) - 1)));
    const auto& v = t.vertices();
    points.push_back(v[static_cast<std::size_t>(k % 3)]);
    points.push_back(midpoint_on_sphere(v[0], v[1]));
  }
  for (int level = 0; level <= kMeshMemoDepth + 2; ++level) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      ASSERT_EQ(locate(points[i], level), reference::locate(points[i], level))
          << "level " << level << " point " << i;
    }
  }
}

TEST(HtmMeshTest, CatalogAreasMatchRootWalkBitwise) {
  for (const int base_level : {4, kMeshMemoDepth + 1}) {
    storage::DensityModel density{base_level, 2010};
    const auto map = std::make_shared<const PartitionMap>(
        PartitionMap::build(base_level, density.weights(), 30));
    const storage::SkyCatalog catalog{map, density};
    const std::vector<double>& areas = catalog.base_areas();
    ASSERT_EQ(static_cast<std::int64_t>(areas.size()),
              trixel_count_at_level(base_level));
    for (std::size_t i = 0; i < areas.size(); ++i) {
      const HtmId id = id_from_index(base_level, static_cast<std::int64_t>(i));
      ASSERT_EQ(bits(areas[i]), bits(reference::from_id(id).area()))
          << "level " << base_level << " index " << i;
    }
  }
}

}  // namespace
}  // namespace delta::htm
