#include "sim/multi_cache.h"

#include <chrono>
#include <string>
#include <utility>

#include "net/transport.h"
#include "sim/replay_core.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace delta::sim {

namespace {

/// The nodes behind one replica: a repository and its cache endpoints on
/// one transport. Policies are declared last so they are destroyed before
/// the caches they drive.
struct ReplicaNodes {
  net::LoopbackTransport transport;
  std::unique_ptr<core::ServerNode> server;
  std::vector<std::unique_ptr<core::CacheNode>> caches;
  std::vector<std::unique_ptr<core::CachePolicy>> policies;
};

}  // namespace

MultiRunResult run_policy_multi(const workload::Trace& trace,
                                std::size_t endpoint_count,
                                workload::SplitStrategy strategy,
                                const CachePolicyFactory& factory,
                                std::int64_t series_stride,
                                const LatencyModel& latency,
                                const std::vector<std::uint32_t>* assignment,
                                const ParallelOptions& parallel) {
  const auto start = std::chrono::steady_clock::now();
  DELTA_CHECK(endpoint_count > 0);
  DELTA_CHECK(factory != nullptr);
  DELTA_CHECK(assignment == nullptr ||
              assignment->size() == trace.queries.size());
  const std::vector<std::uint32_t> computed_assignment =
      assignment == nullptr
          ? workload::assign_queries(trace, endpoint_count, strategy)
          : std::vector<std::uint32_t>{};
  const std::vector<std::uint32_t>& routing =
      assignment == nullptr ? computed_assignment : *assignment;
  // A replica silently skips queries routed past its endpoints, so validate
  // the whole split up front (counting each endpoint's share while here:
  // the replicas' balancing weights at T > 1).
  std::vector<std::size_t> routed(endpoint_count, 0);
  for (const std::uint32_t e : routing) {
    DELTA_CHECK(e < endpoint_count);
    ++routed[e];
  }

  // Resolve the auto thread count exactly once: the replica shape and the
  // worker-pool size must come from the same number.
  const std::size_t threads = parallel.num_threads == 0
                                  ? util::ThreadPool::hardware_threads()
                                  : parallel.num_threads;
  // T <= 1: one replica holding all N caches on one shared transport (the
  // cheapest shape on one core). T > 1: one replica per cache.
  const std::size_t replica_count = threads <= 1 ? 1 : endpoint_count;
  const std::size_t per_replica = endpoint_count / replica_count;

  // ---- assemble the node graphs (calling thread) ----
  std::vector<std::unique_ptr<ReplicaNodes>> nodes;
  nodes.reserve(replica_count);
  for (std::size_t r = 0; r < replica_count; ++r) {
    auto n = std::make_unique<ReplicaNodes>();
    n->server = std::make_unique<core::ServerNode>(&trace, &n->transport);
    for (std::size_t i = r * per_replica; i < (r + 1) * per_replica; ++i) {
      n->caches.push_back(std::make_unique<core::CacheNode>(
          &trace, n->server.get(), &n->transport,
          "cache-" + std::to_string(i)));
    }
    nodes.push_back(std::move(n));
  }
  // Policies are built after every endpoint exists, on the calling thread in
  // endpoint order, so factories need no thread-safety. Offline policies
  // (SOptimal) emit their up-front load traffic here, into their replica's
  // transport, inside the warm-up window.
  std::vector<detail::Replica> replicas(replica_count);
  for (std::size_t r = 0; r < replica_count; ++r) {
    ReplicaNodes& n = *nodes[r];
    detail::Replica& replica = replicas[r];
    replica.server = n.server.get();
    replica.aggregate = &n.transport.meter();
    replica.first = r * per_replica;
    for (std::size_t j = 0; j < per_replica; ++j) {
      n.policies.push_back(factory(*n.caches[j], replica.first + j));
      DELTA_CHECK(n.policies.back() != nullptr);
      replica.endpoints.push_back(
          {n.caches[j].get(), n.policies.back().get(), RunResult{}});
    }
  }

  MultiRunResult result;
  result.strategy = strategy;
  result.combined = detail::replay_replicas(
      trace, &routing, series_stride, latency, threads,
      parallel.deterministic, parallel.work_stealing, routed, replicas);
  result.per_endpoint.reserve(endpoint_count);
  for (detail::Replica& replica : replicas) {
    for (detail::ReplicaEndpoint& ep : replica.endpoints) {
      result.per_endpoint.push_back(std::move(ep.result));
    }
  }
  result.combined.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace delta::sim
