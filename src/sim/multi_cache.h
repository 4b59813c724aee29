// Multi-endpoint simulation: one ServerNode (shared repository) serving N
// CacheNode endpoints, each driven by its own policy instance, over a
// single metered transport.
//
// The trace's merged event sequence is replayed once: updates go to the
// repository (which fans invalidations out per subscription), queries are
// routed to endpoints by a workload::SplitStrategy. Results come back at
// two granularities — a RunResult per endpoint (from that endpoint's
// transport meter) and a combined RunResult from the same replay core as
// the single-cache sim::run_policy, so a run with one endpoint reproduces the
// single-cache numbers byte-for-byte and per-endpoint figures always sum to
// the combined figure.
#pragma once

#include <functional>
#include <memory>

#include "core/cache_node.h"
#include "core/policy.h"
#include "core/server_node.h"
#include "sim/simulator.h"
#include "workload/trace.h"
#include "workload/trace_split.h"

namespace delta::sim {

struct MultiRunResult {
  workload::SplitStrategy strategy = workload::SplitStrategy::kRoundRobin;
  /// One result per cache endpoint: counters/latency over the queries
  /// routed to it, traffic from its per-endpoint meter.
  std::vector<RunResult> per_endpoint;
  /// Aggregate view, same semantics as the single-cache run_policy result.
  RunResult combined;
};

/// Builds the policy driving endpoint `index` (already attached to `cache`).
/// The factory is always invoked on the calling thread, in endpoint order —
/// it never needs to be thread-safe, even in parallel runs.
using CachePolicyFactory = std::function<std::unique_ptr<core::CachePolicy>(
    core::CacheNode& cache, std::size_t index)>;

/// How the replay executes. Every thread count runs the one synchronous
/// replay core (sim::detail::replay_replicas) over *replicas* of the node
/// graph — a repository plus cache endpoints on one transport — built in
/// one of two shapes:
///
/// With num_threads <= 1, one replica holds all N caches: a single shared
/// LoopbackTransport/ServerNode drives them in merged event order on the
/// calling thread.
///
/// With num_threads > 1, each cache gets a replica of its own (transport,
/// repository replica, cache), and the replicas replay the event sequence
/// concurrently on a util::ThreadPool. This is sound because the only
/// cross-endpoint state is the repository object sizes, which depend on
/// updates alone — and every replica applies every update at the same point
/// of the sequence — while each cache's registration row, meter, and policy
/// are confined to its replica. A merge step then folds the replicas'
/// results in endpoint order; byte totals are exact integer sums, so they
/// are independent of worker timing by construction.
///
/// `deterministic` (default) additionally makes the merged *combined* view
/// bit-identical to the one-replica shape's: replicas record their
/// post-warm-up latency samples tagged with the global event position and
/// the merge re-adds them in merged-event order, and the combined cumulative
/// series is the pointwise sum of the replicas' series (which sample at
/// identical event indices). Setting it to false skips the per-query sample
/// buffers and folds the latency stats with StreamingStats::merge instead —
/// still repeatable run-to-run, but the combined latency mean/variance may
/// differ from the one-replica shape in the last floating-point bits.
struct ParallelOptions {
  /// 0 = one thread per hardware core; 1 = one replica on the calling
  /// thread; >1 = worker pool of min(num_threads, endpoint_count) threads.
  std::size_t num_threads = 1;
  bool deterministic = true;
  /// T>1 scheduling: LPT-pack the partitions onto the workers by their
  /// exact routed-query counts and let a worker that drains its own queue
  /// steal a straggler's pending partition (util::parallel_for_dynamic).
  /// Never affects results — stealing only moves WHICH thread replays a
  /// partition, and the partition stays the atomic determinism unit — so
  /// it defaults on; off falls back to the FIFO parallel_for pool.
  bool work_stealing = true;
};

/// Replays the trace through N cache endpoints sharing one repository.
/// `assignment`, when given, is the query split to route by (indexed like
/// Trace::queries, values < endpoint_count) — pass it when a policy also
/// needs the split (e.g. sharded SOptimal hindsight) so routing and policy
/// provably agree; null recomputes it from `strategy`.
/// `parallel` selects the execution engine; every engine/thread-count
/// combination yields the same RunResults (see ParallelOptions).
MultiRunResult run_policy_multi(
    const workload::Trace& trace, std::size_t endpoint_count,
    workload::SplitStrategy strategy, const CachePolicyFactory& factory,
    std::int64_t series_stride = 2000,
    const LatencyModel& latency = LatencyModel{},
    const std::vector<std::uint32_t>* assignment = nullptr,
    const ParallelOptions& parallel = ParallelOptions{});

}  // namespace delta::sim
