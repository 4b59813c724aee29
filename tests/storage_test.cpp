#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "htm/partition_map.h"
#include "storage/catalog.h"
#include "storage/density_model.h"

namespace delta::storage {
namespace {

constexpr int kLevel = 4;

std::shared_ptr<DensityModel> make_density(std::uint64_t seed = 1) {
  auto d = std::make_shared<DensityModel>(kLevel, seed);
  d->scale_to_total_rows(1e7);
  return d;
}

std::shared_ptr<const htm::PartitionMap> make_map(const DensityModel& d,
                                                  std::size_t target = 30) {
  return std::make_shared<htm::PartitionMap>(
      htm::PartitionMap::build(kLevel, d.weights(), target));
}

TEST(DensityModelTest, DeterministicForSeed) {
  DensityModel a{kLevel, 42};
  DensityModel b{kLevel, 42};
  EXPECT_EQ(a.weights(), b.weights());
  DensityModel c{kLevel, 43};
  EXPECT_NE(a.weights(), c.weights());
}

TEST(DensityModelTest, ZeroOutsideFootprint) {
  const auto d = make_density();
  // The antipode of the footprint center must have zero density.
  const htm::Vec3 anti =
      htm::from_ra_dec(185.0 - 180.0, -32.0);
  const htm::HtmId t = htm::locate(anti, kLevel);
  EXPECT_DOUBLE_EQ(d->rows_in_base_trixel(htm::index_in_level(t)), 0.0);
}

TEST(DensityModelTest, ScalingPreservesShape) {
  DensityModel d{kLevel, 7};
  const auto before = d.weights();
  d.scale_to_total_rows(5e6);
  EXPECT_NEAR(d.total_rows(), 5e6, 1.0);
  double sum = 0.0;
  for (const double w : d.weights()) sum += w;
  EXPECT_NEAR(sum, 5e6, 1e-3);
  // Ratios unchanged where nonzero.
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] > 0.0) {
      EXPECT_NEAR(d.weights()[i] / before[i],
                  d.weights()[0] > 0 && before[0] > 0
                      ? d.weights()[0] / before[0]
                      : d.weights()[i] / before[i],
                  1e-9);
    }
  }
}

TEST(DensityModelTest, HeavyTailedPartitionSizes) {
  const auto d = make_density(11);
  const auto map = make_map(*d, 68);
  double min_pos = 1e18;
  double max_w = 0.0;
  for (std::size_t i = 0; i < map->partition_count(); ++i) {
    const double w = map->partition_weight(ObjectId{static_cast<std::int64_t>(i)});
    if (w > 0.0) min_pos = std::min(min_pos, w);
    max_w = std::max(max_w, w);
  }
  // The paper's 68 objects span 50 MB to 90 GB: three orders of magnitude.
  EXPECT_GT(max_w / min_pos, 50.0);
}

TEST(SkyCatalogTest, TotalBytesMatchesDensity) {
  const auto d = make_density();
  const auto map = make_map(*d);
  SkyCatalog cat{map, *d};
  const double expected = 1e7 * kModeledRowBytes.as_double();
  EXPECT_NEAR(cat.total_bytes().as_double(), expected, expected * 1e-6);
}

TEST(SkyCatalogTest, ObjectRowsSumToTotal) {
  const auto d = make_density();
  const auto map = make_map(*d);
  SkyCatalog cat{map, *d};
  double rows = 0.0;
  for (std::size_t i = 0; i < cat.partition_count(); ++i) {
    rows += cat.object_rows(ObjectId{static_cast<std::int64_t>(i)});
  }
  EXPECT_NEAR(rows, 1e7, 1.0);
}

TEST(SkyCatalogTest, InsertGrowsObjectAndBumpsVersion) {
  const auto d = make_density();
  const auto map = make_map(*d);
  SkyCatalog cat{map, *d};
  // Find a non-empty object.
  ObjectId target = ObjectId::invalid();
  for (std::size_t i = 0; i < cat.partition_count(); ++i) {
    const ObjectId o{static_cast<std::int64_t>(i)};
    if (cat.object_rows(o) > 0) {
      target = o;
      break;
    }
  }
  ASSERT_TRUE(target.valid());
  const double before = cat.object_rows(target);
  EXPECT_EQ(cat.object_version(target), 0);
  cat.apply_insert(target, 1000.0);
  EXPECT_DOUBLE_EQ(cat.object_rows(target), before + 1000.0);
  EXPECT_EQ(cat.object_version(target), 1);
  EXPECT_DOUBLE_EQ(cat.initial_object_rows(target), before);
}

TEST(SkyCatalogTest, RegionAreaFormulas) {
  // Full-dec rect of 90 degrees ra spans a quarter sphere band.
  const htm::Region rect = htm::RaDecRect{0.0, 90.0, -90.0, 90.0};
  EXPECT_NEAR(SkyCatalog::region_area(rect), std::numbers::pi, 1e-9);
  const htm::Region cone = htm::Cone{{0, 0, 1}, std::numbers::pi};
  EXPECT_NEAR(SkyCatalog::region_area(cone), 4 * std::numbers::pi, 1e-9);
}

TEST(SkyCatalogTest, EstimateRowsScalesWithArea) {
  const auto d = make_density();
  const auto map = make_map(*d);
  SkyCatalog cat{map, *d};
  const htm::Vec3 c = htm::from_ra_dec(185.0, 32.0);
  const double small = cat.estimate_rows(htm::Cone{c, 0.02});
  const double big = cat.estimate_rows(htm::Cone{c, 0.2});
  EXPECT_GT(small, 0.0);
  EXPECT_GT(big, small * 5.0);  // 100x area, allow density variation
}

TEST(SkyCatalogTest, EstimateRowsSeesGrowth) {
  const auto d = make_density();
  const auto map = make_map(*d);
  SkyCatalog cat{map, *d};
  const htm::Vec3 c = htm::from_ra_dec(185.0, 32.0);
  const htm::Region probe = htm::Cone{c, 0.1};
  const double before = cat.estimate_rows(probe);
  const ObjectId owner = map->object_for_point(c);
  cat.apply_insert(owner, cat.object_rows(owner));  // double the object
  const double after = cat.estimate_rows(probe);
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace delta::storage
