#include "storage/density_model.h"

#include <algorithm>
#include <cmath>

#include "htm/mesh.h"
#include "util/check.h"
#include "util/rng.h"

namespace delta::storage {

DensityModel::DensityModel(int base_level, std::uint64_t seed)
    : DensityModel(base_level, seed, Params{}) {}

DensityModel::DensityModel(int base_level, std::uint64_t seed,
                           const Params& params)
    : base_level_(base_level) {
  const std::int64_t count = htm::trixel_count_at_level(base_level);
  weights_.assign(static_cast<std::size_t>(count), 0.0);

  util::Rng rng{seed};
  const htm::Vec3 footprint_center =
      htm::from_ra_dec(params.footprint_ra_deg, params.footprint_dec_deg);
  const htm::Vec3 plane_pole =
      htm::from_ra_dec(params.plane_pole_ra_deg, params.plane_pole_dec_deg);

  // Cluster bumps scattered inside the footprint.
  std::vector<htm::Vec3> clusters;
  clusters.reserve(static_cast<std::size_t>(params.cluster_count));
  while (clusters.size() < static_cast<std::size_t>(params.cluster_count)) {
    const htm::Vec3 p = htm::normalized(
        {rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)});
    if (htm::angular_distance(p, footprint_center) <
        params.footprint_radius_rad) {
      clusters.push_back(p);
    }
  }

  for (std::int64_t i = 0; i < count; ++i) {
    const htm::Vec3 c =
        htm::mesh_node(htm::id_from_index(base_level, i)).center.v;
    if (htm::angular_distance(c, footprint_center) >
        params.footprint_radius_rad) {
      continue;  // outside the survey footprint
    }
    // Galactic-plane suppression: density falls off close to the plane
    // (|colatitude to pole - 90 deg| small).
    const double plane_dist = std::fabs(
        htm::angular_distance(c, plane_pole) - std::numbers::pi / 2.0);
    const double plane_factor =
        1.0 - 0.85 * std::exp(-(plane_dist * plane_dist) /
                              (2.0 * params.plane_width_rad *
                               params.plane_width_rad));
    // Lognormal small-scale texture.
    double w = rng.lognormal(0.0, params.texture_sigma) * plane_factor;
    // Cluster boosts.
    for (const auto& cl : clusters) {
      const double d = htm::angular_distance(c, cl);
      if (d < params.cluster_radius_rad) {
        w *= 1.0 + params.cluster_boost * (1.0 - d / params.cluster_radius_rad);
      }
    }
    weights_[static_cast<std::size_t>(i)] = w;
  }

  total_rows_ = 0.0;
  for (const double w : weights_) total_rows_ += w;
  DELTA_CHECK_MSG(total_rows_ > 0.0, "density model produced an empty sky");
}

double DensityModel::rows_in_base_trixel(std::int64_t index) const {
  DELTA_CHECK(index >= 0 &&
              index < static_cast<std::int64_t>(weights_.size()));
  return weights_[static_cast<std::size_t>(index)];
}

void DensityModel::scale_to_total_rows(double total_rows) {
  DELTA_CHECK(total_rows > 0.0);
  const double factor = total_rows / total_rows_;
  for (double& w : weights_) w *= factor;
  total_rows_ = total_rows;
}

}  // namespace delta::storage
