// The replay machinery shared by the synchronous engines (sim::run_policy,
// sim::run_policy_multi) and the event engine (sim::run_policy_event): the
// one synchronous replay core, the per-query outcome tally, the fold of
// per-replica results into the combined view, the trace-order merge of
// sample tapes and the partition dispatch. Internal to src/sim; not a
// stable API.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/cache_node.h"
#include "core/policy.h"
#include "core/server_node.h"
#include "net/traffic_meter.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/timeseries.h"
#include "workload/trace.h"

namespace delta::sim::detail {

/// The meter's figure totals per mechanism: query ship / update ship / load.
[[nodiscard]] std::array<Bytes, 3> mechanism_snapshot(
    const net::TrafficMeter& meter);

/// Closes an endpoint's view after its replay: whole-run figure bytes,
/// post-warm-up bytes per mechanism (against the `at_warmup` snapshot) and
/// overhead, all read from the endpoint's own meter.
void finish_endpoint(RunResult& r, const net::TrafficMeter& meter,
                     const std::array<Bytes, 3>& at_warmup);

/// Counts one answered query into `r`: its path counter and the objects it
/// loaded.
inline void tally(RunResult& r, const core::QueryOutcome& outcome) {
  switch (outcome.path) {
    case core::QueryOutcome::Path::kCacheFresh:
      ++r.cache_fresh;
      break;
    case core::QueryOutcome::Path::kCacheAfterUpdates:
      ++r.cache_after_updates;
      break;
    case core::QueryOutcome::Path::kShipped:
      ++r.shipped;
      break;
  }
  r.objects_loaded += outcome.objects_loaded;
}

/// What a replica's whole transport measured — the part of the combined
/// view that per-endpoint meters do not carry. Every message of a run lands
/// in exactly one replica, so these fold into the combined view by exact
/// sums (see fold_combined).
struct ReplicaTotals {
  /// Whole-transport figure series; every replica observes every event, so
  /// all replicas' series sample at the same event indices.
  util::CumulativeSeries series;
  std::array<Bytes, 3> at_warmup{};
  std::array<Bytes, 3> final_by{};
  Bytes total;
  Bytes overhead;
};

/// The combined view of a run, latency aside: counters summed over the
/// per-endpoint results, traffic and post-warm-up bytes per mechanism summed
/// over the replicas, and the replica series summed pointwise. Byte counts
/// are integers (exact in a double far past any realistic total), so the
/// fold is exact and independent of which thread replayed what. Folds in
/// the order given.
[[nodiscard]] RunResult fold_combined(
    const std::vector<const ReplicaTotals*>& replicas,
    const std::vector<const RunResult*>& endpoints,
    std::int64_t series_stride);

/// A per-query yardstick sample tagged with its position in the merged
/// trace order, so samples from several replicas can be re-added in the
/// canonical order (StreamingStats is order-sensitive in its low bits).
struct QuerySample {
  std::int64_t order_pos = 0;
  double response = 0.0;
  double lag = 0.0;  // event engine only: dispatch lag
};

/// Merges per-replica tapes that are each sorted by `key` into one stream
/// in canonical order (key, then replica order for ties — inplace_merge is
/// stable), releasing the tapes, then feeds every sample to `consume`.
template <typename Sample, typename Key, typename Consume>
void merge_tapes(const std::vector<std::vector<Sample>*>& tapes, Key key,
                 Consume consume) {
  std::vector<Sample> merged;
  std::size_t total = 0;
  for (const std::vector<Sample>* tape : tapes) total += tape->size();
  merged.reserve(total);
  for (std::vector<Sample>* tape : tapes) {
    const std::size_t mid = merged.size();
    merged.insert(merged.end(), tape->begin(), tape->end());
    tape->clear();
    tape->shrink_to_fit();
    if (mid > 0) {
      std::inplace_merge(
          merged.begin(),
          merged.begin() + static_cast<std::ptrdiff_t>(mid), merged.end(),
          [&](const Sample& a, const Sample& b) { return key(a) < key(b); });
    }
  }
  for (const Sample& sample : merged) consume(sample);
}

/// Runs `replay(i)` for every partition i < count on up to `threads`
/// workers. With stealing on (and more than one thread and partition) the
/// partitions are LPT-packed onto the workers by `weights` (their routed
/// query counts) and a worker that drains its own queue steals a
/// straggler's pending partition; otherwise a FIFO pool runs them (inline
/// when threads <= 1). Never affects results — only WHICH thread replays a
/// partition changes. Returns the number of stolen partitions.
std::int64_t run_partitions(std::size_t count, std::size_t threads,
                            bool work_stealing,
                            const std::vector<std::size_t>& weights,
                            const std::function<void(std::size_t)>& replay);

/// One cache endpoint of a replica and its per-endpoint view.
struct ReplicaEndpoint {
  core::CacheNode* cache = nullptr;
  core::CachePolicy* policy = nullptr;
  RunResult result;
};

/// A replica of the node graph: one server node and K >= 1 cache endpoints
/// on one LoopbackTransport. The synchronous engines are ways of building
/// replicas — run_policy: one replica, one cache, every query routed to it;
/// run_policy_multi: one replica holding all N caches (T <= 1) or N
/// single-cache replicas (T > 1). Sound because the only cross-endpoint
/// state is the repository object sizes, which depend on updates alone, and
/// every replica applies every update at the same point of the sequence.
struct Replica {
  core::ServerNode* server = nullptr;
  /// The transport's whole-run meter (every message of the replica).
  const net::TrafficMeter* aggregate = nullptr;
  /// Global endpoint index of endpoints[0]: the replica executes the
  /// queries routed to [first, first + K) and skips the rest.
  std::size_t first = 0;
  std::vector<ReplicaEndpoint> endpoints;
  /// Passed through to run_policy's latency_sink.
  util::QuantileSketch* latency_sink = nullptr;

  ReplicaTotals totals;
  /// The replica's post-warm-up latency samples in trace order.
  util::StreamingStats latency;
  /// The same samples tagged by trace position, kept only when several
  /// replicas must be merged in trace order.
  std::vector<QuerySample> tape;
};

/// The one synchronous replay core: replays every replica over the merged
/// event sequence — concurrently when `threads` > 1, see run_partitions —
/// and returns the combined view. `routing` (indexed like Trace::queries,
/// checked in range by the caller) names each query's endpoint; null routes
/// every query to endpoint 0. `weights` are the replicas' routed query
/// counts (read only to balance several replicas). With `deterministic`
/// the combined latency re-adds the replicas' samples in trace order, so it
/// is bit-identical to one replica holding every cache; otherwise the
/// replicas' moments are folded (StreamingStats::merge). The per-endpoint
/// views are left in each replica's endpoints.
[[nodiscard]] RunResult replay_replicas(
    const workload::Trace& trace, const std::vector<std::uint32_t>* routing,
    std::int64_t series_stride, const LatencyModel& latency,
    std::size_t threads, bool deterministic, bool work_stealing,
    const std::vector<std::size_t>& weights, std::vector<Replica>& replicas);

}  // namespace delta::sim::detail
