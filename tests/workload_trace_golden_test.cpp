// Level-5 trace golden: a digest of every field TraceGenerator emits, on the
// paper-default sky (base level 5, sky seed 2010, 4e8 rows, 68 objects —
// the sky perfbench's SDSS workload replays). The simulation goldens run at
// base level 4 only; this pins the level the paper's trace uses, so any
// change to the HTM covers, point location, trixel areas or the generator
// itself that moves a single bit of the trace trips here.
//
// To regenerate after an *intentional* behavior change, run this test and
// paste the printed digest below.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iostream>
#include <memory>
#include <type_traits>
#include <variant>

#include "htm/partition_map.h"
#include "sim/experiment.h"
#include "storage/density_model.h"
#include "workload/trace_generator.h"

namespace delta::workload {
namespace {

/// FNV-1a over the bytes of every field, in declaration order.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add_bytes(&v, sizeof v); }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const htm::Vec3& v) {
    add(v.x);
    add(v.y);
    add(v.z);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t trace_digest(const Trace& t) {
  Digest d;
  d.add(t.info.seed);
  d.add(std::int64_t{t.info.base_level});
  d.add(t.info.row_bytes.count());
  d.add(t.info.warmup_end_event);
  d.add(static_cast<std::int64_t>(t.info.partition_count));
  d.add(static_cast<std::int64_t>(t.queries.size()));
  for (const Query& q : t.queries) {
    d.add(q.id.value());
    d.add(q.time);
    d.add(std::int64_t{static_cast<std::uint8_t>(q.kind)});
    d.add(static_cast<std::int64_t>(q.region.index()));
    std::visit(
        [&](const auto& r) {
          using T = std::decay_t<decltype(r)>;
          if constexpr (std::is_same_v<T, htm::Cone>) {
            d.add(r.center);
            d.add(r.radius_rad);
          } else if constexpr (std::is_same_v<T, htm::RaDecRect>) {
            d.add(r.ra_lo_deg);
            d.add(r.ra_hi_deg);
            d.add(r.dec_lo_deg);
            d.add(r.dec_hi_deg);
          } else {
            d.add(r.pole);
            d.add(r.half_width_rad);
          }
        },
        q.region);
    d.add(static_cast<std::int64_t>(q.base_cover.size()));
    for (const std::int32_t idx : q.base_cover) d.add(std::int64_t{idx});
    d.add(static_cast<std::int64_t>(q.objects.size()));
    for (const ObjectId o : q.objects) d.add(o.value());
    d.add(q.cost.count());
    d.add(q.staleness_tolerance);
  }
  d.add(static_cast<std::int64_t>(t.updates.size()));
  for (const Update& u : t.updates) {
    d.add(u.id.value());
    d.add(u.time);
    d.add(u.position);
    d.add(std::int64_t{u.base_index});
    d.add(u.object.value());
    d.add(u.rows);
    d.add(u.cost.count());
  }
  d.add(static_cast<std::int64_t>(t.order.size()));
  for (const Event& e : t.order) {
    d.add(std::int64_t{static_cast<std::uint8_t>(e.kind)});
    d.add(e.index);
  }
  d.add(static_cast<std::int64_t>(t.initial_object_bytes.size()));
  for (const Bytes b : t.initial_object_bytes) d.add(b.count());
  return d.value();
}

TEST(TraceGoldenTest, PaperSkyLevelFiveDigestIsPinned) {
  const sim::SetupParams params;  // the paper-default sky
  ASSERT_EQ(params.base_level, 5);
  storage::DensityModel density{params.base_level, params.sky_seed};
  density.scale_to_total_rows(params.total_rows);
  const auto map =
      std::make_shared<const htm::PartitionMap>(htm::PartitionMap::build(
          params.base_level, density.weights(), params.object_target));
  TraceParams trace_params = params.trace;
  trace_params.query_count = 20'000;
  trace_params.update_count = 20'000;
  const Trace trace =
      TraceGenerator{map, density, trace_params}.generate(params.trace_seed);
  ASSERT_EQ(trace.event_count(), 40'000);

  const std::uint64_t digest = trace_digest(trace);
  std::cout << "level-5 trace digest: 0x" << std::hex << digest << std::dec
            << "\n";
  EXPECT_EQ(digest, 0x127f8deef7ce0a17ULL);
}

}  // namespace
}  // namespace delta::workload
