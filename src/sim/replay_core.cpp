#include "sim/replay_core.h"

#include "util/check.h"
#include "util/thread_pool.h"

namespace delta::sim::detail {

namespace {

// DETERMINISM CONSTRAINT (golden tables): tests/sim_golden_test.cpp pins
// this loop's figures byte-for-byte. The policies it drives keep hot state
// in util::FlatMap, whose visit order depends on insertion history — so no
// policy decision may depend on map iteration order. Where a fold over a
// map picks a winner it must carry an explicit (value, id) tie-break, and
// batch decisions must be totally ordered by an explicit sort (see the
// audit notes at each for_each call site; regression-pinned by
// tests/iteration_order_test.cpp).

/// Replays the merged event sequence against one replica: every update is
/// applied to its repository at its sequence point, and only the queries
/// routed to the replica's endpoints are executed.
void replay_replica(const workload::Trace& trace,
                    const std::vector<std::uint32_t>* routing,
                    std::int64_t series_stride, const LatencyModel& latency,
                    bool record_tape, Replica& replica) {
  const EventTime warmup_end = trace.info.warmup_end_event;
  const std::size_t k = replica.endpoints.size();
  DELTA_CHECK(k > 0);
  // Within a one-cache replica the endpoint's series and latency equal the
  // replica's: observe them once and copy them at the end.
  const bool single = k == 1;
  std::vector<const net::TrafficMeter*> meters;
  std::vector<util::CumulativeSeries*> series;
  for (ReplicaEndpoint& ep : replica.endpoints) {
    ep.result.policy_name = ep.policy->name();
    ep.result.warmup_end = warmup_end;
    ep.result.series = util::CumulativeSeries{series_stride};
    meters.push_back(&ep.cache->meter());
    series.push_back(&ep.result.series);
  }
  ReplicaTotals& totals = replica.totals;
  totals.series = util::CumulativeSeries{series_stride};
  const net::TrafficMeter& aggregate = *replica.aggregate;

  std::vector<std::array<Bytes, 3>> endpoint_at_warmup(k);
  bool warmup_captured = false;
  const auto capture_warmup = [&] {
    totals.at_warmup = mechanism_snapshot(aggregate);
    for (std::size_t i = 0; i < k; ++i) {
      endpoint_at_warmup[i] = mechanism_snapshot(*meters[i]);
    }
    warmup_captured = true;
  };
  if (warmup_end == 0) capture_warmup();

  // Every series samples at the same event indices, so an endpoint's series
  // needs observing only where the replica's takes a point, and once more
  // at the last event when that took none (for finalize).
  const auto observe_endpoints = [&](EventTime now) {
    for (std::size_t i = 0; i < k; ++i) {
      series[i]->observe(now, meters[i]->figure_total().as_double());
    }
  };
  bool last_sampled = true;
  EventTime last_now = 0;
  std::int64_t order_pos = 0;
  for (const workload::Event& event : trace.order) {
    const auto index = static_cast<std::size_t>(event.index);
    const bool is_update = event.kind == workload::Event::Kind::kUpdate;
    const EventTime now =
        is_update ? trace.updates[index].time : trace.queries[index].time;
    // Snapshot the meters the moment the measurement window opens, before
    // this event's traffic.
    if (!warmup_captured && now >= warmup_end) capture_warmup();

    if (is_update) {
      replica.server->ingest_update(trace.updates[index]);
    } else {
      // A query routed below `first` wraps past k: another replica's.
      const std::size_t local =
          routing == nullptr ? 0 : (*routing)[index] - replica.first;
      if (local < k) {
        ReplicaEndpoint& ep = replica.endpoints[local];
        const core::QueryOutcome outcome =
            ep.policy->on_query(trace.queries[index]);
        ++ep.result.queries;
        tally(ep.result, outcome);
        if (now >= warmup_end) {
          const double seconds = proxy_response_seconds(latency, outcome);
          replica.latency.add(seconds);
          if (!single) ep.result.postwarmup_latency.add(seconds);
          if (record_tape) replica.tape.push_back({order_pos, seconds, 0.0});
          if (replica.latency_sink != nullptr) {
            replica.latency_sink->add(seconds);
          }
        }
      }
    }
    const std::size_t sampled = totals.series.points().size();
    totals.series.observe(now, aggregate.figure_total().as_double());
    last_sampled = totals.series.points().size() != sampled;
    if (!single && last_sampled) observe_endpoints(now);
    last_now = now;
    ++order_pos;
  }
  if (!single && !last_sampled) observe_endpoints(last_now);
  if (!warmup_captured) capture_warmup();  // warm-up spanned the whole run

  totals.series.finalize();
  totals.final_by = mechanism_snapshot(aggregate);
  totals.total = aggregate.figure_total();
  totals.overhead = aggregate.total(net::Mechanism::kOverhead);
  for (std::size_t i = 0; i < k; ++i) {
    RunResult& r = replica.endpoints[i].result;
    if (single) {
      // The copy relies on no figure bytes ever landing at the server, the
      // replica's only other endpoint — checked against the final meters.
      DELTA_CHECK(meters[i]->figure_total() == totals.total);
      r.series = totals.series;
      r.postwarmup_latency = replica.latency;
    } else {
      r.series.finalize();
    }
    finish_endpoint(r, *meters[i], endpoint_at_warmup[i]);
  }
}

}  // namespace

std::array<Bytes, 3> mechanism_snapshot(const net::TrafficMeter& meter) {
  return {meter.total(net::Mechanism::kQueryShip),
          meter.total(net::Mechanism::kUpdateShip),
          meter.total(net::Mechanism::kObjectLoad)};
}

void finish_endpoint(RunResult& r, const net::TrafficMeter& meter,
                     const std::array<Bytes, 3>& at_warmup) {
  r.total_traffic = meter.figure_total();
  const std::array<Bytes, 3> final_by = mechanism_snapshot(meter);
  for (std::size_t m = 0; m < 3; ++m) {
    r.postwarmup_by_mechanism[m] = final_by[m] - at_warmup[m];
    r.postwarmup_traffic += r.postwarmup_by_mechanism[m];
  }
  r.overhead_traffic = meter.total(net::Mechanism::kOverhead);
}

RunResult fold_combined(const std::vector<const ReplicaTotals*>& replicas,
                        const std::vector<const RunResult*>& endpoints,
                        std::int64_t series_stride) {
  DELTA_CHECK(!replicas.empty() && !endpoints.empty());
  RunResult c;
  c.policy_name = endpoints.front()->policy_name;
  c.warmup_end = endpoints.front()->warmup_end;
  c.series = util::CumulativeSeries{series_stride};
  for (const RunResult* r : endpoints) {
    c.queries += r->queries;
    c.cache_fresh += r->cache_fresh;
    c.cache_after_updates += r->cache_after_updates;
    c.shipped += r->shipped;
    c.objects_loaded += r->objects_loaded;
  }
  std::array<Bytes, 3> at_warmup{};
  std::array<Bytes, 3> final_by{};
  for (const ReplicaTotals* t : replicas) {
    c.total_traffic += t->total;
    c.overhead_traffic += t->overhead;
    for (std::size_t m = 0; m < 3; ++m) {
      at_warmup[m] += t->at_warmup[m];
      final_by[m] += t->final_by[m];
    }
  }
  for (std::size_t m = 0; m < 3; ++m) {
    c.postwarmup_by_mechanism[m] = final_by[m] - at_warmup[m];
    c.postwarmup_traffic += c.postwarmup_by_mechanism[m];
  }
  // The series' sampling decisions depend only on the (identical) sequence
  // of event indices, so every replica's series carries points at the same
  // indices, and re-observing the summed points reproduces them.
  const auto& reference = replicas.front()->series.points();
  for (std::size_t k = 0; k < reference.size(); ++k) {
    double sum = 0.0;
    for (const ReplicaTotals* t : replicas) {
      const auto& points = t->series.points();
      DELTA_CHECK(points.size() == reference.size() &&
                  points[k].event_index == reference[k].event_index);
      sum += points[k].value;
    }
    c.series.observe(reference[k].event_index, sum);
  }
  c.series.finalize();
  return c;
}

std::int64_t run_partitions(std::size_t count, std::size_t threads,
                            bool work_stealing,
                            const std::vector<std::size_t>& weights,
                            const std::function<void(std::size_t)>& replay) {
  if (threads <= 1 || count <= 1 || !work_stealing) {
    util::parallel_for(count, threads, replay);
    return 0;
  }
  DELTA_CHECK(weights.size() == count);
  return util::parallel_for_dynamic(
      count,
      util::lpt_assignment(std::vector<double>(weights.begin(), weights.end()),
                           std::min(threads, count)),
      replay);
}

RunResult replay_replicas(
    const workload::Trace& trace, const std::vector<std::uint32_t>* routing,
    std::int64_t series_stride, const LatencyModel& latency,
    std::size_t threads, bool deterministic, bool work_stealing,
    const std::vector<std::size_t>& weights, std::vector<Replica>& replicas) {
  DELTA_CHECK(!replicas.empty());
  const bool record_tapes = deterministic && replicas.size() > 1;
  run_partitions(replicas.size(), threads, work_stealing, weights,
                 [&](std::size_t i) {
                   replay_replica(trace, routing, series_stride, latency,
                                  record_tapes, replicas[i]);
                 });

  std::vector<const ReplicaTotals*> totals;
  std::vector<const RunResult*> endpoints;
  std::vector<std::vector<QuerySample>*> tapes;
  for (Replica& replica : replicas) {
    totals.push_back(&replica.totals);
    for (const ReplicaEndpoint& ep : replica.endpoints) {
      endpoints.push_back(&ep.result);
    }
    tapes.push_back(&replica.tape);
  }
  RunResult combined = fold_combined(totals, endpoints, series_stride);
  if (record_tapes) {
    merge_tapes(
        tapes, [](const QuerySample& s) { return s.order_pos; },
        [&](const QuerySample& s) {
          combined.postwarmup_latency.add(s.response);
        });
  } else {
    // One replica: a bitwise copy. Several: the parallel-Welford fold,
    // repeatable but not bit-equal to the trace-order re-add.
    for (const Replica& replica : replicas) {
      combined.postwarmup_latency.merge(replica.latency);
    }
  }
  return combined;
}

}  // namespace delta::sim::detail
