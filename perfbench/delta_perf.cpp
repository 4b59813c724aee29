// delta_perf: the repository benchmark program. Runs one workload, checks
// the program's outputs, and prints the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run) as the last line of stdout:
//
//   delta_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--revision <text>]
//
// Every figure is measured from outside the library: host times come from
// steady_clock spans around calls into public functions (set-up,
// TraceGenerator/SyntheticTraceGenerator::generate, assign_queries,
// run_policy, run_policy_event, run_policy_multi), counts from the public
// result structs, and policy-level times from a forwarding CachePolicy the
// traced run installs through the policy factory. perfbench/README.md
// describes the workloads, the checks, and which per-layer metric should
// move which end-to-end metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/delta_system.h"
#include "core/vcover_policy.h"
#include "htm/partition_map.h"
#include "net/link_model.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "sim/multi_cache.h"
#include "sim/simulator.h"
#include "storage/density_model.h"
#include "util/stats.h"
#include "workload/key_generators.h"
#include "workload/synthetic_trace.h"
#include "workload/trace_generator.h"
#include "workload/trace_split.h"

namespace {

using namespace delta;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ------------------------------------------------------------ the checks

/// Output checks. Every failed check fails the run and is named on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& name) {
    if (!ok) failed_.push_back(name);
  }
  template <typename T>
  void expect_eq(const T& a, const T& b, const std::string& name) {
    if (!(a == b)) {
      std::ostringstream os;
      os << name << " (" << a << " != " << b << ")";
      failed_.push_back(os.str());
    }
  }
  [[nodiscard]] bool ok() const { return failed_.empty(); }
  void report() const {
    for (const std::string& name : failed_) {
      std::cerr << "CHECK FAILED: " << name << "\n";
    }
  }

 private:
  std::vector<std::string> failed_;
};

// ------------------------------------------------------------ workloads

enum class Kind { kSdssFleetEvent, kYcsbB1mSync, kYcsbAOpenWan };

struct SetupTimes {
  double map_build_s = 0.0;  // density model + PartitionMap::build
  double trace_gen_s = 0.0;
  double split_s = 0.0;
};

/// One workload's generated inputs and the engine configuration that
/// replays them.
struct World {
  Kind kind = Kind::kSdssFleetEvent;
  workload::Trace trace;
  std::size_t endpoints = 1;
  workload::SplitStrategy strategy = workload::SplitStrategy::kRoundRobin;
  std::vector<std::uint32_t> assignment;
  Bytes per_endpoint_capacity;
  std::size_t expected_resident = 0;
  std::size_t threads = 1;
  sim::EventEngineOptions engine;  // event-engine workloads only
  /// YCSB letter's read permille (0 for the SDSS trace).
  int read_permille = 0;
};

constexpr std::int64_t kSdssQueries = 250'000;
constexpr std::int64_t kSdssUpdates = 250'000;
constexpr std::int64_t kYcsbBObjects = 1'000'000;
constexpr std::int64_t kYcsbBEvents = 2'000'000;
constexpr std::int64_t kYcsbAObjects = 100'000;
constexpr std::int64_t kYcsbAEvents = 500'000;
/// Open-loop arrival rate: about half the measured service capacity of
/// this workload (README, "Choosing the open-loop rate"). --rate
/// overrides it for that capacity measurement.
constexpr double kYcsbARatePerSec = 100.0;
constexpr double kCacheFraction = 0.30;
/// YCSB-B's zipfian working set fits in far less than 30 % of a 10^6-object
/// server: at 30 % the cache never fills and nothing is ever evicted. At
/// 1 % the eviction index and the load manager's admission work on every
/// miss, which is what this workload is for.
constexpr double kYcsbBCacheFraction = 0.01;

Bytes server_bytes(const workload::Trace& trace) {
  Bytes total;
  for (const Bytes b : trace.initial_object_bytes) total += b;
  return total;
}

Bytes fraction_of(Bytes total, double fraction) {
  return Bytes{static_cast<std::int64_t>(total.as_double() * fraction)};
}

std::unique_ptr<World> build_world(Kind kind, std::uint64_t seed,
                                   double rate, SetupTimes& times) {
  auto w = std::make_unique<World>();
  w->kind = kind;
  switch (kind) {
    case Kind::kSdssFleetEvent: {
      // Paper defaults (sim::SetupParams): fixed sky, trace from the seed.
      const sim::SetupParams params;
      auto t0 = Clock::now();
      storage::DensityModel density{params.base_level, params.sky_seed};
      density.scale_to_total_rows(params.total_rows);
      const auto map =
          std::make_shared<const htm::PartitionMap>(htm::PartitionMap::build(
              params.base_level, density.weights(), params.object_target));
      times.map_build_s = since(t0);
      workload::TraceParams trace_params = params.trace;
      trace_params.query_count = kSdssQueries;
      trace_params.update_count = kSdssUpdates;
      t0 = Clock::now();
      w->trace =
          workload::TraceGenerator{map, density, trace_params}.generate(seed);
      times.trace_gen_s = since(t0);
      w->endpoints = 4;
      w->strategy = workload::SplitStrategy::kBalancedByLoad;
      w->threads = 2;
      w->per_endpoint_capacity =
          fraction_of(server_bytes(w->trace), kCacheFraction / 4.0);
      w->engine.default_link = net::LinkModel{125e6, 0.040};  // 1 Gbit/40 ms
      // Arrivals paced well above the mean service time, so the closed
      // loop is unsaturated and the percentiles are per-query latency. At
      // 0.2 s per event the per-cache backlog of GB-sized transfers set the
      // tail: p99 ranged 0.48-1.25 s across seeds, against 0.33-0.49 s here.
      w->engine.seconds_per_event = 1.0;
      w->engine.series_stride = 5000;
      break;
    }
    case Kind::kYcsbB1mSync: {
      auto t0 = Clock::now();
      w->trace = workload::SyntheticTraceGenerator{
          workload::ycsb_params(workload::YcsbMix::kB, kYcsbBObjects,
                                kYcsbBEvents)}
                     .generate(seed);
      times.trace_gen_s = since(t0);
      w->read_permille = 950;
      w->endpoints = 1;
      w->per_endpoint_capacity =
          fraction_of(server_bytes(w->trace), kYcsbBCacheFraction);
      // Zipfian residency stays near the capacity share of the key space.
      w->expected_resident = static_cast<std::size_t>(
          kYcsbBCacheFraction * static_cast<double>(kYcsbBObjects) * 1.25) +
          64;
      break;
    }
    case Kind::kYcsbAOpenWan: {
      auto t0 = Clock::now();
      w->trace = workload::SyntheticTraceGenerator{
          workload::ycsb_params(workload::YcsbMix::kA, kYcsbAObjects,
                                kYcsbAEvents)}
                     .generate(seed);
      times.trace_gen_s = since(t0);
      w->read_permille = 500;
      w->endpoints = 2;
      w->strategy = workload::SplitStrategy::kRoundRobin;
      w->threads = 2;
      w->per_endpoint_capacity =
          fraction_of(server_bytes(w->trace), kCacheFraction / 2.0);
      w->expected_resident = static_cast<std::size_t>(
          kCacheFraction / 2.0 * static_cast<double>(kYcsbAObjects) * 1.25) +
          64;
      sim::EventEngineOptions& e = w->engine;
      e.default_link = net::LinkModel{12.5e6, 0.040};  // 100 Mbit/40 ms
      e.series_stride = 5000;
      e.open_loop.enabled = true;
      e.open_loop.arrival = workload::ArrivalProcess::Kind::kPoisson;
      e.open_loop.rate_per_sec = rate;
      e.open_loop.seed = seed ^ 0x0A11;
      e.open_loop.max_in_flight = 64;
      e.open_loop.response_sample_cap = 0;  // exact: every sample kept
      e.notice_batching.enabled = true;
      e.notice_batching.backlog_threshold_seconds = 0.0;
      e.protocol.enabled = true;
      break;
    }
  }
  const auto t0 = Clock::now();
  w->assignment =
      workload::assign_queries(w->trace, w->endpoints, w->strategy);
  times.split_s = since(t0);
  w->engine.parallel.num_threads = w->threads;
  return w;
}

// ---------------------------------------------------- the traced policy

/// What the traced run records about one endpoint's policy.
struct PolicyTrace {
  double on_query_s = 0.0;
  double on_update_s = 0.0;
  /// Time in outermost policy frames (an invalidation handled while a
  /// query pumps the transport is nested, and counted once here).
  double policy_s = 0.0;
  std::int64_t on_query_calls = 0;
  std::int64_t on_update_calls = 0;
  /// Σ ν(q) over post-warm-up queries the policy answered by shipping.
  std::int64_t shipped_postwarmup_bytes = 0;
  std::int64_t loads = 0;
  std::int64_t evictions = 0;
  std::int64_t flow_bfs = 0;
  std::int64_t covers = 0;
};

/// Forwarding policy: times every entry into the wrapped VCover policy and
/// records its counters before it is destroyed (the engines own and
/// destroy the policies they build through the factory).
class TimedPolicy final : public core::CachePolicy {
 public:
  TimedPolicy(core::CacheNode& cache, const core::VCoverOptions& options,
              PolicyTrace* sink, EventTime warmup_end)
      : inner_(&cache, options), sink_(sink), warmup_end_(warmup_end) {
    // Re-route invalidations through this wrapper so they are timed too.
    cache.set_invalidation_handler(
        [this](const workload::Update& u) { on_update(u); });
  }
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;
  ~TimedPolicy() override {
    sink_->loads = inner_.loads();
    sink_->evictions = inner_.evictions();
    sink_->flow_bfs = inner_.update_manager().flow_bfs_count();
    sink_->covers = inner_.update_manager().covers_computed();
  }

  void on_update(const workload::Update& u) override {
    const auto t0 = enter();
    inner_.on_update(u);
    const double s = leave(t0);
    sink_->on_update_s += s;
    ++sink_->on_update_calls;
  }

  core::QueryOutcome on_query(const workload::Query& q) override {
    const auto t0 = enter();
    core::QueryOutcome outcome = inner_.on_query(q);
    sink_->on_query_s += leave(t0);
    ++sink_->on_query_calls;
    note_shipped(q.cost.count(), q.time, outcome);
    return outcome;
  }

  void on_query_async(const workload::Query& q, QueryDone done) override {
    const auto t0 = enter();
    inner_.on_query_async(
        q, [this, cost = q.cost.count(), time = q.time,
            done = std::move(done)](const core::QueryOutcome& outcome) {
          note_shipped(cost, time, outcome);
          done(outcome);
        });
    sink_->on_query_s += leave(t0);
    ++sink_->on_query_calls;
  }

  void set_nonblocking_invalidations(bool on) override {
    inner_.set_nonblocking_invalidations(on);
  }
  void set_admission(const core::AdmissionOptions& options) override {
    inner_.set_admission(options);
  }
  [[nodiscard]] std::int64_t degraded_queries() const override {
    return inner_.degraded_queries();
  }
  void on_crash_restart() override { inner_.on_crash_restart(); }
  [[nodiscard]] const char* name() const override { return inner_.name(); }

 private:
  core::VCoverPolicy inner_;
  PolicyTrace* sink_;
  EventTime warmup_end_;
  int depth_ = 0;

  Clock::time_point enter() {
    ++depth_;
    return Clock::now();
  }
  double leave(Clock::time_point t0) {
    const double s = since(t0);
    if (--depth_ == 0) sink_->policy_s += s;
    return s;
  }
  void note_shipped(std::int64_t cost, EventTime time,
                    const core::QueryOutcome& outcome) {
    if (outcome.path == core::QueryOutcome::Path::kShipped &&
        time >= warmup_end_) {
      sink_->shipped_postwarmup_bytes += cost;
    }
  }
};

core::VCoverOptions vcover_options(const World& w) {
  core::VCoverOptions options;
  options.cache_capacity = w.per_endpoint_capacity;
  options.expected_resident_objects = w.expected_resident;
  return options;
}

/// VCover for every endpoint; with `traces`, each one wrapped in a
/// TimedPolicy recording into traces[index].
sim::CachePolicyFactory policy_factory(const World& w,
                                       std::vector<PolicyTrace>* traces) {
  return [&w, traces](core::CacheNode& cache, std::size_t index)
             -> std::unique_ptr<core::CachePolicy> {
    if (traces == nullptr) {
      return std::make_unique<core::VCoverPolicy>(&cache, vcover_options(w));
    }
    return std::make_unique<TimedPolicy>(cache, vcover_options(w),
                                         &(*traces)[index],
                                         w.trace.info.warmup_end_event);
  };
}

// ------------------------------------------------------------- replays

/// One replay call's result. The synchronous workload carries its
/// RunResult in result.replay.combined (and as the single per-endpoint
/// entry) and its analytic response proxy in the response fields; the
/// event-only fields stay zero.
struct Replay {
  double wall_s = 0.0;
  sim::EventRunResult result;
};

Replay replay(const World& w, std::size_t threads,
              std::vector<PolicyTrace>* traces) {
  if (traces != nullptr) traces->assign(w.endpoints, PolicyTrace{});
  const sim::CachePolicyFactory factory = policy_factory(w, traces);
  Replay out;
  if (w.kind == Kind::kYcsbB1mSync) {
    core::DeltaSystem system{&w.trace};
    std::unique_ptr<core::CachePolicy> policy = factory(system.cache(), 0);
    util::QuantileSketch sketch;
    sketch.reserve(w.trace.queries.size());
    const auto t0 = Clock::now();
    sim::RunResult r = sim::run_policy(w.trace, system, *policy, 10'000,
                                       sim::LatencyModel{}, &sketch);
    out.wall_s = since(t0);
    policy.reset();  // records the traced counters
    out.result.response_seconds = r.postwarmup_latency;
    out.result.response_sketch = std::move(sketch);
    out.result.replay.per_endpoint.push_back(r);
    out.result.replay.combined = std::move(r);
    return out;
  }
  sim::EventEngineOptions engine = w.engine;
  engine.parallel.num_threads = threads;
  const auto t0 = Clock::now();
  out.result = sim::run_policy_event(w.trace, w.endpoints, w.strategy,
                                     factory, engine, &w.assignment);
  out.wall_s = since(t0);
  return out;
}

/// Wall time of the sequential synchronous engine over the same split:
/// the event engine's baseline for sim.event_vs_sync.
double replay_sync_multi(const World& w, Checks& checks) {
  const auto t0 = Clock::now();
  const sim::MultiRunResult r = sim::run_policy_multi(
      w.trace, w.endpoints, w.strategy, policy_factory(w, nullptr),
      w.engine.series_stride, sim::LatencyModel{}, &w.assignment,
      sim::ParallelOptions{1, true, true});
  const double wall = since(t0);
  checks.expect_eq(r.combined.queries,
                   static_cast<std::int64_t>(w.trace.queries.size()),
                   "sequential sync replay: every query replayed");
  return wall;
}

// ------------------------------------------------------- output checks

struct InputCounts {
  std::int64_t queries = 0;
  std::int64_t updates = 0;
  std::int64_t postwarmup_queries = 0;
};

/// Counts the generated trace independently of the replay engines.
InputCounts count_inputs(const workload::Trace& trace) {
  InputCounts c;
  for (const workload::Event& e : trace.order) {
    if (e.kind == workload::Event::Kind::kQuery) {
      ++c.queries;
      const auto& q = trace.queries[static_cast<std::size_t>(e.index)];
      if (q.time >= trace.info.warmup_end_event) ++c.postwarmup_queries;
    } else {
      ++c.updates;
    }
  }
  return c;
}

void check_inputs(const World& w, const InputCounts& c, Checks& checks) {
  if (w.kind == Kind::kSdssFleetEvent) {
    checks.expect_eq(c.queries, kSdssQueries, "sdss query count");
    checks.expect_eq(c.updates, kSdssUpdates, "sdss update count");
    return;
  }
  // Each YCSB operation is one draw: a read with probability permille/1000.
  const double n = static_cast<double>(c.queries + c.updates);
  const double p = w.read_permille / 1000.0;
  const double tolerance = 5.0 * std::sqrt(n * p * (1.0 - p));
  checks.expect(std::abs(static_cast<double>(c.queries) - n * p) <= tolerance,
                "read share within 5 sigma of the YCSB permille");
}

void check_replay(const World& w, const InputCounts& c, const Replay& r,
                  Checks& checks) {
  const sim::RunResult& combined = r.result.replay.combined;
  checks.expect_eq(combined.queries, c.queries, "every query replayed");
  checks.expect_eq(combined.cache_fresh + combined.cache_after_updates +
                       combined.shipped,
                   c.queries, "outcome counts add up to the trace's queries");
  std::int64_t endpoint_total = 0;
  std::int64_t endpoint_postwarmup = 0;
  for (const sim::RunResult& e : r.result.replay.per_endpoint) {
    endpoint_total += e.total_traffic.count();
    endpoint_postwarmup += e.postwarmup_traffic.count();
  }
  checks.expect_eq(endpoint_total, combined.total_traffic.count(),
                   "per-endpoint traffic sums to the combined total");
  checks.expect_eq(endpoint_postwarmup, combined.postwarmup_traffic.count(),
                   "per-endpoint post-warm-up traffic sums to the combined");
  checks.expect_eq(static_cast<std::int64_t>(
                       r.result.response_sketch.size()),
                   c.postwarmup_queries,
                   "one response sample per post-warm-up query");
  if (w.kind == Kind::kYcsbAOpenWan) {
    checks.expect_eq(r.result.chaos.notices_logged,
                     r.result.chaos.notices_applied,
                     "notice ledger: logged == applied after the drain");
    checks.expect(r.result.response_seconds.min() >=
                      w.engine.exec.local_exec_seconds,
                  "no simulated response below the local execution "
                  "surcharge");
  }
}

/// Two replays of one trace agree on every simulated figure. Used for the
/// engine's any-thread-count contract and for replay repeatability.
void check_same(const sim::EventRunResult& a, const sim::EventRunResult& b,
                const std::string& what, Checks& checks) {
  const auto same_run = [&](const sim::RunResult& x, const sim::RunResult& y,
                            const std::string& where) {
    const std::string p = what + ": " + where + " ";
    checks.expect_eq(x.total_traffic.count(), y.total_traffic.count(),
                     p + "total_traffic");
    checks.expect_eq(x.postwarmup_traffic.count(),
                     y.postwarmup_traffic.count(), p + "postwarmup_traffic");
    for (std::size_t m = 0; m < 3; ++m) {
      checks.expect_eq(x.postwarmup_by_mechanism[m].count(),
                       y.postwarmup_by_mechanism[m].count(),
                       p + "postwarmup_by_mechanism");
    }
    checks.expect_eq(x.overhead_traffic.count(), y.overhead_traffic.count(),
                     p + "overhead_traffic");
    checks.expect_eq(x.queries, y.queries, p + "queries");
    checks.expect_eq(x.cache_fresh, y.cache_fresh, p + "cache_fresh");
    checks.expect_eq(x.cache_after_updates, y.cache_after_updates,
                     p + "cache_after_updates");
    checks.expect_eq(x.shipped, y.shipped, p + "shipped");
    checks.expect_eq(x.objects_loaded, y.objects_loaded,
                     p + "objects_loaded");
    checks.expect_eq(x.postwarmup_latency.count(),
                     y.postwarmup_latency.count(), p + "latency count");
    checks.expect_eq(x.postwarmup_latency.sum(), y.postwarmup_latency.sum(),
                     p + "latency sum");
    checks.expect_eq(x.postwarmup_latency.max(), y.postwarmup_latency.max(),
                     p + "latency max");
  };
  same_run(a.replay.combined, b.replay.combined, "combined");
  checks.expect_eq(a.replay.per_endpoint.size(), b.replay.per_endpoint.size(),
                   what + ": endpoint count");
  for (std::size_t i = 0; i < std::min(a.replay.per_endpoint.size(),
                                       b.replay.per_endpoint.size());
       ++i) {
    same_run(a.replay.per_endpoint[i], b.replay.per_endpoint[i],
             "endpoint " + std::to_string(i));
  }
  checks.expect_eq(a.response_sketch.size(), b.response_sketch.size(),
                   what + ": response samples");
  checks.expect_eq(a.response_p50(), b.response_p50(), what + ": p50");
  checks.expect_eq(a.response_p99(), b.response_p99(), what + ": p99");
  checks.expect_eq(a.response_seconds.sum(), b.response_seconds.sum(),
                   what + ": response sum");
  checks.expect_eq(a.dispatch_lag_seconds.sum(), b.dispatch_lag_seconds.sum(),
                   what + ": dispatch lag");
  checks.expect_eq(a.staleness_seconds.count(), b.staleness_seconds.count(),
                   what + ": staleness count");
  checks.expect_eq(a.staleness_seconds.sum(), b.staleness_seconds.sum(),
                   what + ": staleness sum");
  checks.expect_eq(a.server_uplink.sends, b.server_uplink.sends,
                   what + ": uplink sends");
  checks.expect_eq(a.server_uplink.busy_seconds, b.server_uplink.busy_seconds,
                   what + ": uplink busy");
  checks.expect_eq(a.server_uplink.total_queue_wait,
                   b.server_uplink.total_queue_wait,
                   what + ": uplink queue wait");
  checks.expect_eq(a.sim_duration_seconds, b.sim_duration_seconds,
                   what + ": sim duration");
  checks.expect_eq(a.delivered_messages, b.delivered_messages,
                   what + ": delivered messages");
  checks.expect_eq(a.coalesced_notices, b.coalesced_notices,
                   what + ": coalesced notices");
  checks.expect_eq(a.notice_messages, b.notice_messages,
                   what + ": notice messages");
  checks.expect_eq(a.chaos.timeouts, b.chaos.timeouts, what + ": timeouts");
  checks.expect_eq(a.chaos.retries, b.chaos.retries, what + ": retries");
  checks.expect_eq(a.chaos.failed_requests, b.chaos.failed_requests,
                   what + ": failed requests");
  checks.expect_eq(a.chaos.late_replies, b.chaos.late_replies,
                   what + ": late replies");
  checks.expect_eq(a.chaos.notices_logged, b.chaos.notices_logged,
                   what + ": notices logged");
  checks.expect_eq(a.chaos.notices_applied, b.chaos.notices_applied,
                   what + ": notices applied");
  checks.expect_eq(a.shard_balance, b.shard_balance, what + ": shard balance");
  checks.expect_eq(a.prefiltered_updates, b.prefiltered_updates,
                   what + ": prefiltered updates");
}

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  std::printf("  %-34s %18lld\n  %-34s %18lld\n", "attempted",
              static_cast<long long>(attempted), "failed",
              static_cast<long long>(failed));
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void print_fingerprint(const std::string& workload, std::uint64_t seed,
                       const std::string& revision) {
  std::string line = "host: {\"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"cpu\": " + json_string(cpu_model()) +
                     ", \"compiler\": " + json_string(DELTA_PERF_COMPILER) +
                     ", \"flags\": " + json_string(DELTA_PERF_FLAGS) +
                     ", \"build_type\": " +
                     json_string(DELTA_PERF_BUILD_TYPE) +
                     ", \"revision\": " + json_string(revision) +
                     ", \"workload\": " + json_string(workload) +
                     ", \"seed\": " + std::to_string(seed) + "}";
  std::printf("%s\n", line.c_str());
}

// ------------------------------------------------------------- the runs

/// Queries dispatched and requests failed over every replay of a run.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void add(const Replay& r) {
    attempted += r.result.replay.combined.queries;
    failed += r.result.chaos.failed_requests;
  }
};

/// Independent traces one run replays, each generated from its own
/// sub-seed of --seed and set up and timed on its own (setup_s is the
/// median over them). One SDSS trace's traffic and tail hinge on where its
/// four hotspot clusters settle — 226 to 417 GB of post-warm-up traffic
/// over eight seeds — so its run pools six; the YCSB traces vary by well
/// under 1 % from seed to seed and pool three.
int members(Kind kind) { return kind == Kind::kSdssFleetEvent ? 6 : 3; }

std::uint64_t member_seed(std::uint64_t seed, int member) {
  return workload::thread_seed(seed, static_cast<std::uint64_t>(member));
}

/// One replay at the workload's thread count, tallied and checked against
/// `reference`.
Replay checked_replay(const World& w, const InputCounts& counts,
                      std::vector<PolicyTrace>* traces,
                      const Replay& reference, Tally& tally, Checks& checks) {
  Replay r = replay(w, w.threads, traces);
  tally.add(r);
  check_replay(w, counts, r, checks);
  check_same(reference.result, r.result, "replay repeats", checks);
  return r;
}

int run_untraced(Kind kind, std::uint64_t seed, double seconds,
                 double rate) {
  const int n = members(kind);
  Checks checks;
  Tally tally;
  std::vector<double> setup_walls;
  std::vector<double> events_per_s;
  double traffic_bytes = 0.0;
  util::QuantileSketch responses;
  for (int k = 0; k < n; ++k) {
    SetupTimes times;
    const auto t0 = Clock::now();
    const std::unique_ptr<World> w =
        build_world(kind, member_seed(seed, k), rate, times);
    setup_walls.push_back(since(t0));
    const InputCounts counts = count_inputs(w->trace);
    check_inputs(*w, counts, checks);
    const double events = static_cast<double>(w->trace.order.size());

    // The reference replay is the first of the member. For the SDSS fleet
    // it runs on one thread, untimed, and every two-thread replay must
    // equal it field by field: the engine's contract for any thread count.
    const bool one_thread_reference = kind == Kind::kSdssFleetEvent;
    const Replay reference =
        replay(*w, one_thread_reference ? 1 : w->threads, nullptr);
    tally.add(reference);
    check_replay(*w, counts, reference, checks);
    if (!one_thread_reference) events_per_s.push_back(events / reference.wall_s);
    const auto start = Clock::now();
    for (int i = 0; i < (one_thread_reference ? 2 : 1) ||
                    since(start) < seconds / n;
         ++i) {
      events_per_s.push_back(
          events /
          checked_replay(*w, counts, nullptr, reference, tally, checks).wall_s);
    }

    const sim::EventRunResult& r = reference.result;
    traffic_bytes += r.replay.combined.postwarmup_traffic.as_double();
    responses.merge(r.response_sketch);
  }

  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_walls), "s"},
      {"replay_events_per_s", median(events_per_s), "events/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"traffic_gb", traffic_bytes / n / 1e9, "GB"},
      {"response_p90_s", responses.quantile(0.90), "s"},
      {"response_p99_s", responses.quantile(0.99), "s"},
  };
  checks.report();
  std::printf("traces: %d, set-ups (s):", n);
  for (const double s : setup_walls) std::printf(" %.4g", s);
  std::printf("\nreplays: %zu, events/s:", events_per_s.size());
  for (const double e : events_per_s) std::printf(" %.4g", e);
  std::printf("\n");
  print_result(checks.ok(), tally.attempted, tally.failed, metrics);
  return checks.ok() ? 0 : 1;
}

int run_traced(Kind kind, std::uint64_t seed, double seconds,
               double rate) {
  SetupTimes times;
  const auto setup_start = Clock::now();
  const std::unique_ptr<World> w =
      build_world(kind, member_seed(seed, 0), rate, times);
  const double setup_s = since(setup_start);
  const double setup_rss = current_rss_mb();
  Checks checks;
  const InputCounts counts = count_inputs(w->trace);
  check_inputs(*w, counts, checks);
  const double events = static_cast<double>(w->trace.order.size());
  const bool event_engine = kind != Kind::kYcsbB1mSync;

  Tally tally;
  const Replay reference = replay(*w, 1, nullptr);
  tally.add(reference);
  check_replay(*w, counts, reference, checks);

  // Untraced and traced replays alternate, so the medians that give the
  // tracing overhead see the same host conditions. The first traced
  // replay supplies the per-layer figures.
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<PolicyTrace> traces;
  Replay traced;
  const auto start = Clock::now();
  while (traced_walls.size() < 2 || since(start) < seconds) {
    untraced_walls.push_back(
        checked_replay(*w, counts, nullptr, reference, tally, checks).wall_s);
    std::vector<PolicyTrace> scratch;
    Replay r = checked_replay(*w, counts,
                              traced_walls.empty() ? &traces : &scratch,
                              reference, tally, checks);
    traced_walls.push_back(r.wall_s);
    if (traced_walls.size() == 1) traced = std::move(r);
  }

  PolicyTrace sum;
  for (const PolicyTrace& t : traces) {
    sum.on_query_s += t.on_query_s;
    sum.on_update_s += t.on_update_s;
    sum.policy_s += t.policy_s;
    sum.on_query_calls += t.on_query_calls;
    sum.on_update_calls += t.on_update_calls;
    sum.shipped_postwarmup_bytes += t.shipped_postwarmup_bytes;
    sum.loads += t.loads;
    sum.evictions += t.evictions;
    sum.flow_bfs += t.flow_bfs;
    sum.covers += t.covers;
  }
  const sim::EventRunResult& tr = traced.result;
  if (!w->engine.protocol.enabled) {
    checks.expect_eq(sum.shipped_postwarmup_bytes,
                     tr.replay.combined.postwarmup_by_mechanism[0].count(),
                     "Σν(q) over shipped queries == metered ship bytes");
  }
  double partition_wall = traced.wall_s;
  if (event_engine) {
    partition_wall = 0.0;
    for (const sim::RunResult& e : tr.replay.per_endpoint) {
      partition_wall += e.wall_seconds;
    }
  }

  // Engine ratios, measured on the untraced path in interleaved rounds:
  // one thread vs the workload's thread count, and the sequential
  // synchronous engine on the same split.
  double thread_speedup = 0.0;
  double event_vs_sync = 0.0;
  double critical_path = 1.0;
  if (event_engine) {
    std::vector<double> t1;
    std::vector<double> tn;
    std::vector<double> sync;
    std::vector<double> critical;
    for (int i = 0; i < 3; ++i) {
      Replay one = replay(*w, 1, nullptr);
      tally.add(one);
      check_same(reference.result, one.result, "one-thread replay", checks);
      t1.push_back(one.wall_s);
      Replay many = replay(*w, w->threads, nullptr);
      tally.add(many);
      check_same(reference.result, many.result, "multi-thread replay", checks);
      tn.push_back(many.wall_s);
      double sum_walls = 0.0;
      double max_wall = 0.0;
      for (const sim::RunResult& e : many.result.replay.per_endpoint) {
        sum_walls += e.wall_seconds;
        max_wall = std::max(max_wall, e.wall_seconds);
      }
      critical.push_back(sum_walls / std::max(max_wall, 1e-9));
      if (kind == Kind::kSdssFleetEvent) {
        sync.push_back(replay_sync_multi(*w, checks));
      }
    }
    thread_speedup = median(t1) / median(tn);
    critical_path = median(critical);
    if (!sync.empty()) event_vs_sync = median(sync) / median(tn);
  }

  // Simulated span over which the trace arrives; the run keeps up when
  // its simulated duration stays close to it.
  const double arrival_span =
      !event_engine ? 0.0
      : w->engine.open_loop.enabled
          ? events / w->engine.open_loop.rate_per_sec
          : events * w->engine.seconds_per_event;
  const double untraced_eps = events / median(untraced_walls);
  const double traced_eps = events / median(traced_walls);
  const auto n_queries = static_cast<double>(counts.queries);
  const std::vector<Metric> metrics = {
      {"workload.trace_gen_s", times.trace_gen_s, "s"},
      {"workload.split_s", times.split_s, "s"},
      {"htm.map_build_s", times.map_build_s, "s"},
      {"workload.setup_s", setup_s, "s"},
      {"workload.events", events, "count"},
      {"sim.replay_s", median(untraced_walls), "s"},
      {"sim.critical_path_speedup", critical_path, "x"},
      {"sim.thread_speedup", thread_speedup, "x"},
      {"sim.shard_balance", tr.shard_balance, "x"},
      {"sim.steal_count", static_cast<double>(tr.steal_count), "count"},
      {"sim.prefiltered_updates", static_cast<double>(tr.prefiltered_updates),
       "count"},
      {"sim.event_vs_sync", event_vs_sync, "x"},
      {"sim.dispatch_lag_mean_s", tr.dispatch_lag_seconds.mean(), "s"},
      {"sim.duration_s", tr.sim_duration_seconds, "s"},
      {"sim.span_ratio",
       event_engine ? tr.sim_duration_seconds / arrival_span : 0.0, "x"},
      {"sim.response_p50_s", tr.response_p50(), "s"},
      {"sim.response_mean_s", tr.response_seconds.mean(), "s"},
      {"sim.response_samples", static_cast<double>(tr.response_sketch.size()),
       "count"},
      {"core.on_query_s", sum.on_query_s, "s"},
      {"core.on_update_s", sum.on_update_s, "s"},
      {"core.outside_policy_s", partition_wall - sum.policy_s, "s"},
      {"core.on_query_calls", static_cast<double>(sum.on_query_calls),
       "count"},
      {"core.on_update_calls", static_cast<double>(sum.on_update_calls),
       "count"},
      {"core.cache_fresh", static_cast<double>(tr.replay.combined.cache_fresh),
       "count"},
      {"core.cache_after_updates",
       static_cast<double>(tr.replay.combined.cache_after_updates), "count"},
      {"core.shipped", static_cast<double>(tr.replay.combined.shipped),
       "count"},
      {"core.timeouts", static_cast<double>(tr.chaos.timeouts), "count"},
      {"core.late_replies", static_cast<double>(tr.chaos.late_replies),
       "count"},
      {"core.retries", static_cast<double>(tr.chaos.retries), "count"},
      {"core.resyncs", static_cast<double>(tr.chaos.resyncs), "count"},
      {"core.notices_logged", static_cast<double>(tr.chaos.notices_logged),
       "count"},
      {"core.notice_messages", static_cast<double>(tr.notice_messages),
       "count"},
      {"core.coalesced_notices", static_cast<double>(tr.coalesced_notices),
       "count"},
      {"cache.loads", static_cast<double>(sum.loads), "count"},
      {"cache.evictions", static_cast<double>(sum.evictions), "count"},
      {"flow.bfs", static_cast<double>(sum.flow_bfs), "count"},
      {"flow.covers", static_cast<double>(sum.covers), "count"},
      {"flow.bfs_per_event", static_cast<double>(sum.flow_bfs) / events,
       "1/event"},
      {"net.delivered_messages", static_cast<double>(tr.delivered_messages),
       "count"},
      {"net.messages_per_query",
       static_cast<double>(tr.delivered_messages) / n_queries, "1/query"},
      {"net.overhead_mb", tr.replay.combined.overhead_traffic.as_double() / 1e6,
       "MB"},
      {"net.uplink_busy_s", tr.server_uplink.busy_seconds, "s"},
      {"net.uplink_queue_wait_s", tr.server_uplink.total_queue_wait, "s"},
      {"mem.setup_rss_mb", setup_rss, "MB"},
      {"trace.untraced_events_per_s", untraced_eps, "events/s"},
      {"trace.traced_events_per_s", traced_eps, "events/s"},
      {"trace.overhead", untraced_eps / traced_eps - 1.0, "ratio"},
  };
  checks.report();
  print_result(checks.ok(), tally.attempted, tally.failed, metrics);
  return checks.ok() ? 0 : 1;
}

[[noreturn]] void usage(const char* message) {
  std::cerr << "delta_perf: " << message
            << "\nusage: delta_perf --workload "
               "sdss_fleet_event|ycsb_b_1m_sync|ycsb_a_open_wan --seed N "
               "--seconds S --trace 0|1 [--revision TEXT] [--rate R]\n"
               "--rate: open-loop arrivals/s of ycsb_a_open_wan\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string revision = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double rate = kYcsbARatePerSec;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        seed = std::stoull(value);
      } else if (key == "--seconds") {
        seconds = std::stod(value);
      } else if (key == "--trace") {
        trace = std::stoi(value);
      } else if (key == "--revision") {
        revision = value;
      } else if (key == "--rate") {
        rate = std::stod(value);
      } else {
        usage(("unknown argument " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  Kind kind;
  if (workload == "sdss_fleet_event") {
    kind = Kind::kSdssFleetEvent;
  } else if (workload == "ycsb_b_1m_sync") {
    kind = Kind::kYcsbB1mSync;
  } else if (workload == "ycsb_a_open_wan") {
    kind = Kind::kYcsbAOpenWan;
  } else {
    usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!(seconds > 0.0 && seconds <= 120.0)) usage("--seconds out of range");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  if (!(rate > 0.0)) usage("--rate must be positive");
  if (rate != kYcsbARatePerSec && kind != Kind::kYcsbAOpenWan) {
    usage("--rate applies to ycsb_a_open_wan only");
  }

  print_fingerprint(workload, seed, revision);
  return trace == 1 ? run_traced(kind, seed, seconds, rate)
                    : run_untraced(kind, seed, seconds, rate);
}
