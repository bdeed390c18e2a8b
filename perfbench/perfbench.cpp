// lazyctrl_perfbench — the replay benchmark (see README.md in this
// directory). One process runs one workload for a fixed wall-clock budget:
//
//   lazyctrl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// A run repeats whole rounds. A round builds its inputs from the seed
// (topology, trace, shaping, history graph), constructs and bootstraps a
// core::Network and replays the trace; everything before the first
// replayed flow is set-up. Every round replays the same inputs, so its
// RunMetrics must be bit-identical to the first round's.
//
// --trace 0 reports the end-to-end metrics with every recorder off. The
// simulated latency figures come from one extra reference replay at the
// end, made after peak memory was read, with the per-flow latency
// recorder on; the correctness checks run on that replay.
//
// --trace 1 reports the per-layer metrics: the benchmark's own spans
// around each call into a layer, probes that push the workload's packets
// through each datapath table as the replay left it, the program's counters,
// and its wall-clock phase totals with the trace recorder on.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": flows, "failed": flows_dropped,
//    "metrics": {name: {"value": v, "unit": u}, ...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/lazyctrl.h"
#include "core/invariants.h"
#include "dgm/regrouper.h"
#include "obs/flow_latency.h"
#include "obs/trace.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

using namespace lazyctrl;

namespace {

// ---------------------------------------------------------------- clocks

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}
double process_cpu_now() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_now() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }

template <typename T>
double dbl(T v) {
  return static_cast<double>(v);
}

/// a / b, or 0 when there is nothing to divide by.
template <typename A, typename B>
double per(A a, B b) {
  return b == 0 ? 0.0 : dbl(a) / dbl(b);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ----------------------------------------------------------------- spans

/// The benchmark's own spans: the wall time of each call into a layer,
/// by name. Inert unless enabled (--trace 1).
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void add(const std::string& name, double seconds) {
    if (enabled_) by_name_[name].push_back(seconds);
  }
  /// Durations (wall seconds) of every span called `name`, in call order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? std::vector<double>{} : it->second;
  }

 private:
  bool enabled_;
  std::map<std::string, std::vector<double>> by_name_;
};

class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, std::string name)
      : spans_(spans),
        name_(std::move(name)),
        begin_(spans.enabled() ? wall_now() : 0.0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (spans_.enabled()) spans_.add(name_, wall_now() - begin_);
  }

 private:
  Spans& spans_;
  std::string name_;
  double begin_;
};

// -------------------------------------------------------------- workloads

enum class TraceKind { kRealLike, kDrifting };

struct WorkloadSpec {
  const char* name;
  core::ControlMode mode;
  TraceKind trace;
  std::size_t flows;             ///< base trace size, before the surge
  SimDuration horizon;
  std::size_t group_size_limit;
  core::DgmMode dgm;
  bool incupdate;                ///< legacy IncUpdate regrouping
  std::size_t shards;
  bool surge_and_outages;
};

// The paper's real data center (§V-A): 272 edge switches, ~6.5k hosts.
// Built from a fixed seed: it is one data center, and the run seed draws
// the traffic on it.
constexpr std::uint64_t kTopologySeed = 101;
constexpr std::uint64_t kTraceStream = 0xBE01;
constexpr std::uint64_t kSurgeStream = 0xBE02;
constexpr std::uint64_t kProbeStream = 0xBE03;

// The event script of examples/scenarios/controller_outage_under_surge.scn
// on its 2-hour horizon: arrivals x3 for 20 minutes from 40m, and two
// controller outages (30 s at 45m, 60 s at 50m) inside the surge.
constexpr SimTime kSurgeFrom = 40 * kMinute;
constexpr SimDuration kSurgeLength = 20 * kMinute;
constexpr double kSurgeFactor = 3.0;
struct Outage {
  SimTime at;
  SimDuration length;
};
constexpr Outage kOutages[] = {{45 * kMinute, 30 * kSecond},
                               {50 * kMinute, 60 * kSecond}};
// Deterministic sharded replay gives the same result at every window; at
// the default (2 x control link + service) it closes a span after about
// one flow, and the run measures the scheduler instead of the replay. At
// 30 s spans end at the 30 s state reports and 1 min stats windows that
// fence them anyway, which keeps the barrier count, and with it the
// run's exposure to a descheduled worker thread, lowest.
constexpr SimDuration kSurgeSyncWindow = 30 * kSecond;
// The default-window count replays the first minutes of the surge.
constexpr SimDuration kDefaultWindowSlice = 5 * kMinute;

constexpr WorkloadSpec kWorkloads[] = {
    {"steady_datapath", core::ControlMode::kLazyCtrl, TraceKind::kRealLike,
     1'000'000, 24 * kHour, 46, core::DgmMode::kOff, false, 1, false},
    {"drift_regroup", core::ControlMode::kLazyCtrl, TraceKind::kDrifting,
     200'000, 24 * kHour, 24, core::DgmMode::kDriftTriggered, false, 1,
     false},
    {"surge_outage_sharded", core::ControlMode::kLazyCtrl,
     TraceKind::kRealLike, 300'000, 2 * kHour, 46, core::DgmMode::kOff, true,
     3, true},
    {"openflow_baseline", core::ControlMode::kOpenFlow, TraceKind::kRealLike,
     1'000'000, 24 * kHour, 46, core::DgmMode::kOff, false, 1, false},
};
constexpr std::size_t kDriftCommunities = 12;

// The paper's trace carries 271M flows a day against a controller the
// repo models at 50 us per request. A trace with a mean arrival rate r
// keeps the paper's controller utilisation with the service time scaled
// by (271M / day) / r; at the unscaled 50 us the controller is idle at
// these flow counts, and first-packet latency collapses onto three fixed
// path delays.
constexpr double kPaperFlowsPerSecond = 271e6 / 86400.0;

core::Config make_config(const WorkloadSpec& w, std::uint64_t seed,
                         std::size_t shards) {
  core::Config cfg;
  cfg.mode = w.mode;
  cfg.seed = seed;
  cfg.grouping.group_size_limit = w.group_size_limit;
  cfg.grouping.dynamic_regrouping = w.incupdate;
  cfg.dgm.mode = w.dgm;
  const double rate =
      static_cast<double>(w.flows) / to_seconds(w.horizon);
  cfg.latency.controller_service = static_cast<SimDuration>(std::llround(
      static_cast<double>(core::LatencyModel{}.controller_service) *
      kPaperFlowsPerSecond / rate));
  cfg.runtime.num_shards = shards;
  if (shards > 1) cfg.runtime.sync_window = kSurgeSyncWindow;
  return cfg;
}

topo::Topology make_topology() {
  Rng rng(kTopologySeed);
  topo::MultiTenantOptions opt;
  opt.switch_count = 272;
  opt.tenant_count = 110;
  opt.min_vms_per_tenant = 20;
  opt.max_vms_per_tenant = 100;
  opt.vms_per_switch = 24;
  return topo::build_multi_tenant(opt, rng);
}

workload::Trace make_trace(const WorkloadSpec& w, const topo::Topology& topo,
                           std::uint64_t seed) {
  Rng rng = Rng::stream(seed, kTraceStream);
  if (w.trace == TraceKind::kDrifting) {
    workload::DriftingLocalityOptions opt;
    opt.total_flows = w.flows;
    opt.community_count = kDriftCommunities;
    opt.horizon = w.horizon;
    return workload::generate_drifting_locality(topo, opt, rng);
  }
  workload::RealLikeOptions opt;
  opt.total_flows = w.flows;
  opt.horizon = w.horizon;
  return workload::generate_real_like(topo, opt, rng);
}

// ------------------------------------------------------------------ round

struct Inputs {
  topo::Topology topo;
  workload::Trace trace;
  graph::WeightedGraph history{0};
};

struct Round {
  double setup_s = 0;
  double replay_wall_s = 0;
  double replay_cpu_s = 0;
  std::unique_ptr<Inputs> in;
  std::unique_ptr<core::Network> net;
  core::Grouping boot_grouping;  ///< read back right after bootstrap
  /// G-FIB rebuild wall time inside the replay (trace recorder on only).
  double replay_gfib_rebuild_s = 0;
};

double gfib_rebuild_total_s() {
  return static_cast<double>(
             obs::recorder().phase_total(obs::TraceEventType::kGfibRebuild)
                 .wall_ns) /
         1e9;
}

bool lazyctrl_mode(const WorkloadSpec& w) {
  return w.mode == core::ControlMode::kLazyCtrl;
}

/// One round: set-up from the seed, then one replay. `shards` overrides
/// the workload's shard count (the 1-shard reference of the sharded
/// workload). Recorder state is the caller's business.
Round run_round(const WorkloadSpec& w, std::uint64_t seed, std::size_t shards,
                Spans& spans) {
  Round r;
  const double t0 = wall_now();
  r.in = std::make_unique<Inputs>();
  r.in->topo = make_topology();
  {
    ScopedSpan s(spans, "workload.trace_gen");
    r.in->trace = make_trace(w, r.in->topo, seed);
  }
  if (w.surge_and_outages) {
    Rng rng = Rng::stream(seed, kSurgeStream);
    r.in->trace = workload::surge_trace(r.in->trace, kSurgeFrom,
                                        kSurgeFrom + kSurgeLength,
                                        kSurgeFactor, rng);
  }
  if (lazyctrl_mode(w)) {
    ScopedSpan s(spans, "graph.history_build");
    r.in->history =
        workload::build_intensity_graph(r.in->trace, r.in->topo, 0, kHour);
  }
  {
    ScopedSpan s(spans, "core.bootstrap");
    r.net = std::make_unique<core::Network>(r.in->topo,
                                            make_config(w, seed, shards));
    if (w.surge_and_outages) {
      core::Network* net = r.net.get();
      for (const Outage& o : kOutages) {
        net->simulator().schedule_at(
            o.at, [net, o] { net->begin_controller_outage(o.length); });
      }
    }
    if (lazyctrl_mode(w)) {
      r.net->bootstrap(r.in->history);
    } else {
      r.net->bootstrap();
    }
  }
  r.boot_grouping = r.net->grouping();
  const double rebuild0 = gfib_rebuild_total_s();
  const double t1 = wall_now();
  const double c1 = process_cpu_now();
  r.net->replay(r.in->trace);
  r.replay_cpu_s = process_cpu_now() - c1;
  r.replay_wall_s = wall_now() - t1;
  r.replay_gfib_rebuild_s = gfib_rebuild_total_s() - rebuild0;
  r.setup_s = t1 - t0;
  return r;
}

// ----------------------------------------------------------------- checks

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++run_;
    if (!ok) {
      failures_.push_back(what);
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
  [[nodiscard]] std::size_t run() const noexcept { return run_; }

 private:
  std::size_t run_ = 0;
  std::vector<std::string> failures_;
};

std::string u64(std::uint64_t v) { return std::to_string(v); }

/// Every flow counted exactly once, none dropped.
void check_conservation(const Round& r, Checks& c) {
  const core::RunMetrics& m = r.net->metrics();
  const std::uint64_t n = r.in->trace.flows.size();
  // The baseline completes a flow by a table hit or a PacketIn round
  // trip; LazyCtrl by a hit, the L-FIB, the G-FIB or a punt.
  const std::uint64_t delivered =
      r.net->config().mode == core::ControlMode::kOpenFlow
          ? m.flows_flow_table_hit + m.controller_packet_ins
          : m.flows_flow_table_hit + m.flows_local_delivery +
                m.flows_intra_group + m.flows_inter_group +
                m.transition_punts;
  c.expect(m.flows_seen == n,
           "flows_seen " + u64(m.flows_seen) + " == trace flows " + u64(n));
  c.expect(delivered + m.flows_degraded + m.flows_dropped == m.flows_seen,
           "delivered " + u64(delivered) + " + degraded " +
               u64(m.flows_degraded) + " + dropped " + u64(m.flows_dropped) +
               " == flows_seen " + u64(m.flows_seen));
  c.expect(m.flows_dropped == 0, "flows_dropped " + u64(m.flows_dropped) +
                                     " == 0");
}

void check_invariants(const Round& r, const char* where, Checks& c) {
  const core::InvariantReport rep = core::check_invariants(*r.net);
  c.expect(rep.ok(), std::string("check_invariants at end of ") + where +
                         (rep.ok() ? "" : ": " + rep.text()));
}

struct TraceClasses {
  std::uint64_t same_switch = 0;
  std::uint64_t same_group = 0;
  std::uint64_t cross_group = 0;
};

/// Classifies every flow of the trace against the topology and a grouping,
/// independently of the datapath.
TraceClasses classify(const Inputs& in, const core::Grouping& g) {
  TraceClasses out;
  for (const workload::Flow& f : in.trace.flows) {
    const SwitchId a = in.topo.host_info(f.src).attached_switch;
    const SwitchId b = in.topo.host_info(f.dst).attached_switch;
    if (a == b) {
      ++out.same_switch;
    } else if (g.group_of(a) == g.group_of(b)) {
      ++out.same_group;
    } else {
      ++out.cross_group;
    }
  }
  return out;
}

void check_workload(const WorkloadSpec& w, const Round& r, Checks& c) {
  const core::RunMetrics& m = r.net->metrics();
  const std::string name = w.name;
  if (name == "steady_datapath") {
    const TraceClasses k = classify(*r.in, r.boot_grouping);
    c.expect(k.same_switch == m.flows_local_delivery,
             "same-switch flows " + u64(k.same_switch) + " == local " +
                 u64(m.flows_local_delivery));
    c.expect(k.same_group == m.flows_intra_group,
             "same-group flows " + u64(k.same_group) + " == intra " +
                 u64(m.flows_intra_group));
    c.expect(k.cross_group == m.flows_inter_group + m.flows_flow_table_hit,
             "cross-group flows " + u64(k.cross_group) +
                 " == inter + table hits " +
                 u64(m.flows_inter_group + m.flows_flow_table_hit));
    std::printf("# check: classes same_switch=%llu same_group=%llu "
                "cross_group=%llu\n",
                static_cast<unsigned long long>(k.same_switch),
                static_cast<unsigned long long>(k.same_group),
                static_cast<unsigned long long>(k.cross_group));
  } else if (name == "openflow_baseline") {
    std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (const workload::Flow& f : r.in->trace.flows) {
      pairs.emplace(f.src.value(), f.dst.value());
    }
    c.expect(m.controller_packet_ins + m.flows_flow_table_hit == m.flows_seen,
             "packet_ins + hits == flows");
    c.expect(m.controller_packet_ins >= pairs.size(),
             "packet_ins " + u64(m.controller_packet_ins) +
                 " >= distinct (src, dst) pairs " + u64(pairs.size()));
  } else if (name == "drift_regroup") {
    const TraceClasses k = classify(*r.in, r.boot_grouping);
    const std::uint64_t cross_now =
        m.flows_inter_group + m.flows_flow_table_hit;
    // DGM must cut the cross-group share well below what the bootstrap
    // grouping would leave on the same trace.
    c.expect(static_cast<double>(cross_now) <=
                 0.75 * static_cast<double>(k.cross_group),
             "inter + hits " + u64(cross_now) +
                 " <= 0.75 x cross-group under the bootstrap grouping " +
                 u64(k.cross_group));
    c.expect(m.dgm_plans_applied > 0, "DGM applied at least one plan");
    std::printf("# check: cross-group flows: bootstrap grouping %llu, "
                "with DGM %llu (%.3f)\n",
                static_cast<unsigned long long>(k.cross_group),
                static_cast<unsigned long long>(cross_now),
                per(cross_now, k.cross_group));
  } else if (name == "surge_outage_sharded") {
    core::Network& net = *r.net;
    const core::CentralController& ctl = net.controller();
    c.expect(ctl.outage_queue_depth() == 0, "outage backlog empty at end");
    c.expect(ctl.outage_queue_peak() > 0, "the outages built a backlog");
    std::printf("# check: outage backlog peak %llu, queued total %llu\n",
                static_cast<unsigned long long>(ctl.outage_queue_peak()),
                static_cast<unsigned long long>(ctl.outage_queued_total()));
    const SimDuration service = net.config().latency.controller_service;
    SimDuration longest = 0;
    for (const Outage& o : kOutages) longest = std::max(longest, o.length);
    const double bound_ms =
        to_milliseconds(longest) +
        static_cast<double>(ctl.outage_queue_peak()) *
            to_milliseconds(service) /
            static_cast<double>(net.config().controller.servers);
    const double max_ms = m.controller_queue_delay_ms.max();
    c.expect(max_ms <= bound_ms,
             "longest queue delay " + std::to_string(max_ms) +
                 " ms <= longest outage + peak backlog x service " +
                 std::to_string(bound_ms) + " ms");
  }
}

// ------------------------------------------------------------ JSON output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;  ///< printed beside the number
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-40s %18.6f %-10s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + u64(attempted);
  json += ", \"failed\": " + u64(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Exact nearest-rank quantile of every flow's first-packet latency, read
/// from the flight recorder (which must have held every flow).
double first_packet_quantile_us(double q) {
  const obs::FlowLatencyRecorder& fr = obs::flow_recorder();
  std::vector<SimDuration> v;
  v.reserve(fr.size());
  for (std::size_t i = 0; i < fr.size(); ++i) {
    v.push_back(fr.record_at(i).stages.e2e);
  }
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]) / 1e3;
}

// --------------------------------------------------- --trace 0: end to end

int run_end_to_end(const WorkloadSpec& w, std::uint64_t seed, double seconds) {
  Spans off(false);
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const Round& r) {
    attempted += r.in->trace.flows.size();
    failed += r.net->metrics().flows_dropped;
    check_conservation(r, checks);
  };

  // Warm-up round: untimed, the reference every later round must equal.
  // It runs the workload's shard count; the timed rounds and the reference
  // replay run 1 shard, so on the sharded workload every round also checks
  // the runtime's bit-identity. Its replay wall time moves 2.5x with the
  // host's load (every span waits on thread wake-ups), too much for a
  // bound; the traced run measures the runtime's own cost.
  std::unique_ptr<core::RunMetrics> first;
  std::size_t flows = 0;
  {
    Round r = run_round(w, seed, w.shards, off);
    account(r);
    check_invariants(r, "the warm-up round", checks);
    first = std::make_unique<core::RunMetrics>(r.net->metrics());
    flows = r.in->trace.flows.size();
  }
  // Peak memory of one set-up and replay, read before repeated rounds can
  // add allocator fragmentation that depends on how many rounds fit.
  const double rss = peak_rss_mib();

  // Timed 1-shard rounds until the budget is spent (at least one); each
  // host-time metric is the median round.
  std::vector<double> setup_s, flows_per_s, cpu_ns_per_flow;
  const double deadline = wall_now() + seconds;
  do {
    Round r = run_round(w, seed, 1, off);
    account(r);
    checks.expect(r.net->metrics().identical_to(*first),
                  "round metrics identical to the first round's: " +
                      r.net->metrics().diff_report(*first));
    setup_s.push_back(r.setup_s);
    flows_per_s.push_back(static_cast<double>(flows) / r.replay_wall_s);
    cpu_ns_per_flow.push_back(r.replay_cpu_s * 1e9 /
                              static_cast<double>(flows));
    std::printf("# round %zu: setup_s %.6f replay_flows_per_s %.1f "
                "replay_cpu_ns_per_flow %.2f\n",
                setup_s.size(), r.setup_s, flows_per_s.back(),
                cpu_ns_per_flow.back());
  } while (wall_now() < deadline);

  // Reference replay with every flow in the latency recorder.
  obs::flow_recorder().enable(1, flows);
  Round ref = run_round(w, seed, 1, off);
  obs::flow_recorder().disable();
  account(ref);
  const core::RunMetrics& m = ref.net->metrics();
  checks.expect(m.identical_to(*first),
                "recorder-on replay identical to the warm-up round: " +
                    m.diff_report(*first));
  checks.expect(obs::flow_recorder().size() == flows,
                "latency recorder holds every flow");
  check_workload(w, ref, checks);
  check_invariants(ref, "the reference replay", checks);

  const auto n = static_cast<std::uint64_t>(setup_s.size());
  const double kflows = static_cast<double>(m.flows_seen) / 1e3;
  std::vector<Metric> out = {
      {"replay_flows_per_s", median(flows_per_s), "flows/s", n},
      {"replay_cpu_ns_per_flow", median(cpu_ns_per_flow), "ns", n},
      {"setup_s", median(setup_s), "s", n},
      {"peak_rss_mib", rss, "MiB", 1},
      {"ctrl_packet_ins_per_kflow",
       static_cast<double>(m.controller_packet_ins) / kflows, "req/kflow",
       m.flows_seen},
      {"first_packet_mean_us", m.first_packet_latency_ms.mean() * 1e3, "us",
       m.first_packet_latency_ms.count()},
      {"first_packet_p999_us", first_packet_quantile_us(0.999), "us",
       m.flows_seen},
  };
  std::printf("# workload=%s seed=%llu rounds=%zu flows/round=%zu checks=%zu\n",
              w.name, static_cast<unsigned long long>(seed), setup_s.size(),
              flows, checks.run());
  print_result(checks.ok() && n > 0, attempted, failed, out);
  return checks.ok() && n > 0 ? 0 : 1;
}

// ----------------------------------------------------- --trace 1: layers

/// The workload's own first packets, assembled once so the probes time
/// only the table operation.
struct ProbePackets {
  std::vector<net::Packet> pkts;
  std::vector<SwitchId> ingress;
};

ProbePackets probe_packets(const Round& r, std::size_t max_packets) {
  ProbePackets out;
  const auto& flows = r.in->trace.flows;
  const std::size_t stride =
      std::max<std::size_t>(1, (flows.size() + max_packets - 1) / max_packets);
  const topo::Topology& topo = r.net->topology();
  for (std::size_t i = 0; i < flows.size(); i += stride) {
    const topo::HostInfo& src = topo.host_info(flows[i].src);
    const topo::HostInfo& dst = topo.host_info(flows[i].dst);
    out.pkts.push_back(core::Network::make_flow_packet(src, dst, flows[i]));
    out.ingress.push_back(src.attached_switch);
  }
  return out;
}

/// Keeps the probed results observable so the loops are not optimised out.
volatile std::uint64_t g_probe_sink = 0;

/// Times `op` over every probe packet; returns thread-CPU ns per call.
template <typename Op>
double probe_ns(const ProbePackets& p, Op&& op) {
  const double c0 = thread_cpu_now();
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < p.pkts.size(); ++i) sink += op(i);
  const double dt = thread_cpu_now() - c0;
  g_probe_sink = sink;
  return per(dt * 1e9, p.pkts.size());
}

int run_per_layer(const WorkloadSpec& w, std::uint64_t seed, double seconds) {
  Spans spans(true);
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const Round& r) {
    attempted += r.in->trace.flows.size();
    failed += r.net->metrics().flows_dropped;
    check_conservation(r, checks);
  };

  // Warm-up, then untraced and traced rounds alternate until the budget
  // is spent (at least one of each).
  std::unique_ptr<core::RunMetrics> first;
  {
    Round r = run_round(w, seed, w.shards, spans);
    account(r);
    first = std::make_unique<core::RunMetrics>(r.net->metrics());
  }
  std::vector<double> cpu_plain, cpu_traced, wall_plain;
  std::vector<double> gfib_rebuild_ms, replay_rebuild_ns_per_flow, barrier_ms;
  Round last;
  const double deadline = wall_now() + seconds;
  for (int i = 0; cpu_traced.empty() || wall_now() < deadline; ++i) {
    const bool traced = i % 2 == 1;
    last = Round{};
    if (traced) obs::recorder().enable();
    last = run_round(w, seed, w.shards, spans);
    account(last);
    checks.expect(last.net->metrics().identical_to(*first),
                  "round metrics identical to the first round's");
    const std::size_t round_flows = last.in->trace.flows.size();
    const double per_flow = per(last.replay_cpu_s * 1e9, round_flows);
    if (traced) {
      cpu_traced.push_back(per_flow);
      const auto ms = [](obs::TraceEventType t) {
        return per(obs::recorder().phase_total(t).wall_ns, 1'000'000);
      };
      gfib_rebuild_ms.push_back(ms(obs::TraceEventType::kGfibRebuild));
      replay_rebuild_ns_per_flow.push_back(
          per(last.replay_gfib_rebuild_s * 1e9, round_flows));
      barrier_ms.push_back(ms(obs::TraceEventType::kShardBarrierWait));
      obs::recorder().disable();
    } else {
      cpu_plain.push_back(per_flow);
      wall_plain.push_back(last.replay_wall_s);
    }
  }

  core::Network& net = *last.net;
  const core::RunMetrics& m = net.metrics();
  const std::uint64_t flows = m.flows_seen;
  const double cpu_ns_per_flow = median(cpu_plain);
  check_invariants(last, "the last round", checks);

  // Datapath probes: the workload's packets through each table of their
  // ingress switch, with the tables as the replay left them. Every probe
  // runs at the replay's end time, so no probe sees a rule before it was
  // installed. A lookup at that time first sweeps the rules that expired
  // before it; one untimed lookup per switch does that sweep, after which
  // no probe changes what another reads (a hit in `decide` refreshes the
  // rule's expiry past the fixed time).
  const SimTime now = net.simulator().now();
  const ProbePackets pk = probe_packets(last, 250'000);
  std::uint64_t table_entries = 0;
  for (std::uint32_t s = 0; s < net.topology().switch_count(); ++s) {
    openflow::FlowTable& table = net.edge_switch(SwitchId{s}).flow_table();
    g_probe_sink = table.lookup(pk.pkts.front(), now) != nullptr;
    table_entries += table.size();
  }
  const std::size_t gfib_bytes = net.total_gfib_bytes();
  const auto sw = [&](std::size_t i) -> core::EdgeSwitch& {
    return net.edge_switch(pk.ingress[i]);
  };
  const double table_ns = probe_ns(pk, [&](std::size_t i) {
    return static_cast<std::uint64_t>(
        sw(i).flow_table().lookup(pk.pkts[i], now) != nullptr);
  });
  const double lfib_ns = probe_ns(pk, [&](std::size_t i) {
    return static_cast<std::uint64_t>(
        sw(i).lfib().contains(pk.pkts[i].dst_mac));
  });
  std::vector<SwitchId> cands;
  const double gfib_ns = probe_ns(pk, [&](std::size_t i) {
    cands.clear();
    sw(i).gfib().query_into(BloomHash::of(pk.pkts[i].dst_mac), cands);
    return static_cast<std::uint64_t>(cands.size());
  });
  const double decide_ns = probe_ns(pk, [&](std::size_t i) {
    const auto d = sw(i).decide(pk.pkts[i], now, w.mode);
    return static_cast<std::uint64_t>(d.kind) + d.candidates.size();
  });

  // Residual: replay CPU per flow not explained by the per-flow table
  // operations, each weighted by the flows that reach it in Fig. 5 order,
  // and by the G-FIB rebuilds the replay made (traced rounds).
  const std::uint64_t n_table = flows;
  const std::uint64_t n_lfib =
      lazyctrl_mode(w) ? flows - m.flows_flow_table_hit : 0;
  const std::uint64_t n_gfib =
      lazyctrl_mode(w) ? n_lfib - m.flows_local_delivery : 0;
  const double fl = static_cast<double>(flows);
  const double table_term = table_ns * static_cast<double>(n_table) / fl;
  const double lfib_term = lfib_ns * static_cast<double>(n_lfib) / fl;
  const double gfib_term = gfib_ns * static_cast<double>(n_gfib) / fl;
  const double rebuild_term = median(replay_rebuild_ns_per_flow);
  const double residual =
      cpu_ns_per_flow - table_term - lfib_term - gfib_term - rebuild_term;
  std::printf("# layer sum (ns/flow): flow_table %.2f (%.2f ns x %llu) + "
              "lfib %.2f (%.2f ns x %llu) + gfib_scan %.2f (%.2f ns x %llu) "
              "+ gfib_rebuild %.2f + residual %.2f = replay_cpu %.2f\n",
              table_term, table_ns, static_cast<unsigned long long>(n_table),
              lfib_term, lfib_ns, static_cast<unsigned long long>(n_lfib),
              gfib_term, gfib_ns, static_cast<unsigned long long>(n_gfib),
              rebuild_term, residual, cpu_ns_per_flow);

  // Grouping probes on the round's own history graph (built here for the
  // OpenFlow baseline, whose set-up does not need one).
  graph::WeightedGraph history = last.in->history;
  if (!lazyctrl_mode(w)) {
    ScopedSpan s(spans, "graph.history_build");
    history = workload::build_intensity_graph(last.in->trace, last.in->topo,
                                              0, kHour);
  }
  core::Grouping ini;
  {
    ScopedSpan s(spans, "probe.graph.inigroup");
    Rng rng = Rng::stream(seed, kProbeStream);
    ini = core::Sgi(core::SgiOptions{w.group_size_limit})
              .initial_grouping(history, rng);
  }
  {
    // One DGM plan on the run's final traffic estimate, against the live
    // grouping (the IniGroup probe's for the baseline).
    const core::Config& cfg = net.config();
    dgm::RegrouperOptions ro;
    ro.group_size_limit = cfg.grouping.group_size_limit;
    ro.max_moves = cfg.dgm.max_moves_per_round;
    ro.max_merges = cfg.dgm.max_merges_per_round;
    ro.max_splits = cfg.dgm.max_splits_per_round;
    ro.min_gain_fraction = cfg.dgm.min_gain_fraction;
    const graph::WeightedGraph estimate =
        net.traffic_monitor().intensity_graph();
    ScopedSpan s(spans, "probe.dgm.plan");
    Rng rng = Rng::stream(seed, kProbeStream + 1);
    const dgm::MigrationPlan plan = dgm::IncrementalRegrouper(ro).plan(
        lazyctrl_mode(w) ? net.grouping() : ini, estimate, rng);
    g_probe_sink = plan.moves.size() + plan.merges.size() + plan.splits.size();
  }

  // Sharded-runtime figures: a 1-shard replay of the same inputs for the
  // speed-up, and the default-window count on the surge window.
  double shard_speedup = 0;
  double flows_per_span_default = 0;
  if (w.shards > 1) {
    Round one = run_round(w, seed, 1, spans);
    account(one);
    checks.expect(one.net->metrics().identical_to(*first),
                  "1-shard replay identical to the sharded rounds");
    shard_speedup = one.replay_wall_s / median(wall_plain);

    const workload::Trace slice = workload::slice_trace(
        last.in->trace, kSurgeFrom, kSurgeFrom + kDefaultWindowSlice);
    // The same slice at the default window with the workload's shards,
    // and at 1 shard for the slowdown.
    double slice_wall[2] = {0, 0};
    for (const std::size_t shards : {w.shards, std::size_t{1}}) {
      core::Config cfg = make_config(w, seed, shards);
      cfg.runtime.sync_window = 0;  // the default window
      core::Network dn(last.in->topo, cfg);
      dn.bootstrap(last.in->history);
      const double t0 = wall_now();
      dn.replay(slice);
      slice_wall[shards == 1] = wall_now() - t0;
      attempted += slice.flows.size();
      failed += dn.metrics().flows_dropped;
      const auto& ro = dn.runtime_obs();
      if (shards > 1) {
        flows_per_span_default = per(ro.flows, ro.spans);
        std::printf("# default window: %llu spans for %llu flows\n",
                    static_cast<unsigned long long>(ro.spans),
                    static_cast<unsigned long long>(ro.flows));
      }
    }
    std::printf("# default window: %zu-shard replay of %zu flows took "
                "%.4f s, 1 shard %.4f s (%.1fx slower)\n",
                w.shards, slice.flows.size(), slice_wall[0], slice_wall[1],
                slice_wall[0] / slice_wall[1]);
  }

  const auto& rt = net.runtime_obs();
  const std::uint64_t events = net.simulator().processed_events();
  const dgm::MaintainerStats* ds = net.dgm_stats();
  const auto n_rounds = static_cast<std::uint64_t>(cpu_plain.size());
  const auto n_traced = static_cast<std::uint64_t>(cpu_traced.size());
  const auto span_median = [&](const char* name) {
    return median(spans.durations(name));
  };
  const auto span_n = [&](const char* name) {
    return static_cast<std::uint64_t>(spans.durations(name).size());
  };
  const double replay_wall_ns = median(wall_plain) * 1e9;

  std::vector<Metric> out = {
      {"workload.trace_gen_s", span_median("workload.trace_gen"), "s",
       span_n("workload.trace_gen")},
      {"graph.history_build_s", span_median("graph.history_build"), "s",
       span_n("graph.history_build")},
      {"graph.inigroup_s", span_median("probe.graph.inigroup"), "s", 1},
      {"core.bootstrap_s", span_median("core.bootstrap"), "s",
       span_n("core.bootstrap")},
      {"bloom.gfib_bytes", static_cast<double>(gfib_bytes), "bytes", 1},
      {"core.decide_ns", decide_ns, "ns", pk.pkts.size()},
      {"core.lfib_lookup_ns", lfib_ns, "ns", pk.pkts.size()},
      {"bloom.gfib_scan_ns", gfib_ns, "ns", pk.pkts.size()},
      {"core.local_flows", dbl(m.flows_local_delivery), "count", flows},
      {"bloom.intra_group_flows", dbl(m.flows_intra_group), "count", flows},
      {"bloom.fp_copies", dbl(m.bf_false_positive_copies), "count", flows},
      {"openflow.lookup_ns", table_ns, "ns", pk.pkts.size()},
      {"openflow.table_hits", dbl(m.flows_flow_table_hit), "count", flows},
      {"openflow.table_entries", dbl(table_entries), "count",
       net.topology().switch_count()},
      {"sim.events", dbl(events), "count", 1},
      {"sim.ns_per_event", per(replay_wall_ns, events), "ns", events},
      {"dgm.rounds", ds ? dbl(ds->rounds) : 0.0, "count", 1},
      {"dgm.plans_applied", dbl(m.dgm_plans_applied), "count", 1},
      {"dgm.switch_moves", dbl(m.dgm_switch_moves), "count", 1},
      {"dgm.flow_mods", dbl(m.dgm_flow_mods), "count", 1},
      {"dgm.plan_ms", span_median("probe.dgm.plan") * 1e3, "ms", 1},
      {"bloom.gfib_rebuild_ms", median(gfib_rebuild_ms), "ms", n_traced},
      {"core.ctrl_queue_delay_max_ms", m.controller_queue_delay_ms.max(), "ms",
       m.controller_queue_delay_ms.count()},
      {"core.ctrl_outage_queue_peak",
       dbl(net.controller().outage_queue_peak()), "count", 1},
      {"runtime.flows_per_span", per(rt.flows, rt.spans), "flows", rt.spans},
      {"runtime.redecided_flows", dbl(rt.redecided_flows), "count", 1},
      {"runtime.deferred_flows", dbl(rt.deferred_flows), "count", 1},
      {"runtime.barrier_wait_ms", median(barrier_ms), "ms", n_traced},
      {"runtime.shard_speedup", shard_speedup, "x", w.shards > 1 ? 1u : 0u},
      {"runtime.flows_per_span_default_window", flows_per_span_default, "flows",
       w.shards > 1 ? 1u : 0u},
      {"core.residual_ns_per_flow", residual, "ns", n_rounds},
      {"obs.trace_overhead_pct",
       100.0 * (median(cpu_traced) - cpu_ns_per_flow) / cpu_ns_per_flow,
       "%",
       n_traced},
  };
  std::printf("# workload=%s seed=%llu untraced=%llu traced=%llu checks=%zu\n",
              w.name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(n_rounds),
              static_cast<unsigned long long>(n_traced), checks.run());
  print_result(checks.ok(), attempted, failed, out);
  return checks.ok() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: lazyctrl_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      for (const WorkloadSpec& s : kWorkloads) {
        if (std::strcmp(s.name, val) == 0) w = &s;
      }
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(val);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || w == nullptr || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
  return trace == 0 ? run_end_to_end(*w, seed, seconds)
                    : run_per_layer(*w, seed, seconds);
}
