// The four benchmark workloads: plans made from the seed, one cell runner
// per workload over the staged Run API (ctor -> start() -> run_to() ->
// fork() -> finish()), the engagement gate, and the correctness checks.
#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <stdexcept>

#include "app/web.h"
#include "check/invariants.h"
#include "exp/download.h"
#include "exp/ideal.h"
#include "exp/scenario_run.h"
#include "exp/snapshot.h"
#include "exp/streaming.h"
#include "exp/sweep.h"
#include "exp/testbed.h"
#include "exp/webrun.h"
#include "obs/recorder.h"
#include "perfbench.h"
#include "sched/registry.h"

namespace perfbench {

using namespace mps;

namespace {

// ---- workload sizes --------------------------------------------------------

constexpr double kVideoS = 180.0;        // quick-scale Fig. 9 video
constexpr double kSwitchS = 135.0;       // what-if switch: 75% into the video
constexpr double kStreamSliceS = 10.0;   // run_to slice of a streaming cell
constexpr double kWebSliceS = 1.0;       // run_to slice of a page load
constexpr std::int64_t kFlows = 10'000;  // many_flows population
constexpr double kFlowsDurationS = 8.0;
constexpr double kFlowsSliceS = 0.1;
// lossy_web: WiFi RTT swept as in Section 6, page seeds per (RTT, scheduler).
const std::vector<double> kWebWifiRttMs = {20.0, 50.0, 100.0, 200.0};
constexpr std::size_t kWebSeeds = 16;

double since_s(std::int64_t t0) { return static_cast<double>(host_ns() - t0) * 1e-9; }

// A timed phase of a cell; records a span when tracing.
class Phase {
 public:
  Phase(SpanLog* log, const char* name, std::int64_t parent, std::int64_t cell)
      : log_(log), t0_(host_ns()) {
    if (log_ != nullptr) id_ = log_->open(name, parent, cell);
  }
  double stop() {
    if (log_ != nullptr) log_->close(id_);
    return since_s(t0_);
  }
  std::int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int64_t t0_;
  std::int64_t id_ = -1;
};

// ---- specs -----------------------------------------------------------------

ScenarioSpec stream_spec(double wifi, double lte, const std::string& sched,
                         std::uint64_t seed) {
  ScenarioSpec s;
  s.name = "paper_grid";
  s.paths = {wifi_path(wifi), lte_path(lte)};
  s.scheduler = sched;
  s.workload.kind = WorkloadKind::kStream;
  s.workload.video_s = kVideoS;
  s.workload.runs = 1;
  s.seed = seed;
  return s;
}

// Heterogeneous faulted paths: Gilbert-Elliott bursts and short flaps on
// WiFi, light iid loss on LTE. The flap phase moves with the page seed so
// flaps land at different points of different page loads. The flap period
// is kept off the doubling RTO clock: with a 2 s period a subflow whose
// backoff interval reaches a multiple of the period retransmits into the
// same down window forever and the page never finishes (perfbench_test
// Censoring.PhaseLockedFlapStallsAPageAndCountsAsFailed).
}  // namespace

ScenarioSpec web_spec(double wifi_rtt_ms, const std::string& sched, std::uint64_t seed,
                      bool faults) {
  ScenarioSpec s;
  s.name = "lossy_web";
  PathSpec wifi = wifi_path(10.0);
  wifi.rtt_ms = wifi_rtt_ms;
  PathSpec lte = lte_path(5.0);
  if (faults) {
    wifi.faults.gilbert_elliott.enabled = true;
    wifi.faults.gilbert_elliott.p_good_bad = 0.01;
    wifi.faults.gilbert_elliott.p_bad_good = 0.3;
    wifi.faults.gilbert_elliott.loss_bad = 0.5;
    wifi.faults.flap.enabled = true;
    wifi.faults.flap.period_s = 2.3;
    wifi.faults.flap.down_s = 0.3;
    wifi.faults.flap.start_s = 0.1 * static_cast<double>(seed % 17);
    lte.loss_rate = 0.002;
  }
  s.paths = {wifi, lte};
  s.scheduler = sched;
  s.workload.kind = WorkloadKind::kWeb;
  s.workload.runs = 1;
  s.seed = seed;
  return s;
}

namespace {

// bench_scale's cell shape: capacity scaled per flow, 5%/s Poisson churn,
// exponential sizes, scheduler default.
ScenarioSpec flows_spec(std::int64_t flows, double duration_s, std::uint64_t seed) {
  ScenarioSpec s;
  s.name = "many_flows";
  const double mbps = static_cast<double>(flows) * 0.024;
  s.paths = {wifi_path(mbps), lte_path(mbps)};
  s.scheduler = "default";
  s.traffic.enabled = true;
  s.traffic.flows = flows;
  s.traffic.arrival_rate_per_s = static_cast<double>(flows) * 0.05;
  s.traffic.max_arrivals = std::max<std::int64_t>(flows / 10, 16);
  s.traffic.flow_bytes = 256 * 1024;
  s.traffic.size_dist = "exponential";
  s.traffic.duration_s = duration_s;
  s.seed = seed;
  return s;
}

const std::vector<double>& grid() { return paper_bandwidth_grid(); }

struct GridCell {
  double wifi = 0.0;
  double lte = 0.0;
  std::string sched;
};

// paper_grid: scheduler-major over WiFi x LTE, as bench_fig09 sweeps it.
GridCell grid_cell(std::size_t i) {
  const std::size_t n = grid().size();
  return {grid()[(i % (n * n)) / n], grid()[i % n], paper_schedulers()[i / (n * n)]};
}

struct WebCell {
  double rtt_ms = 0.0;
  std::string sched;
  std::uint64_t seed = 0;
};

WebCell web_cell(std::size_t i, std::uint64_t seed) {
  const std::size_t k = paper_schedulers().size();
  const std::size_t page = i % kWebSeeds;
  const std::size_t sched = (i / kWebSeeds) % k;
  const std::size_t rtt = i / (kWebSeeds * k);
  return {kWebWifiRttMs[rtt], paper_schedulers()[sched], seed * 1000 + page};
}

// ---- outcome digests and censoring -----------------------------------------

void digest_stream(Digest& d, const StreamingResult& r) {
  d.add(r.mean_bitrate_mbps);
  d.add(r.mean_throughput_mbps);
  d.add(r.fraction_fast);
  d.add(static_cast<std::uint64_t>(r.chunks_fetched));
  d.add(static_cast<std::uint64_t>(r.rebuffer_time.ns()));
  d.add(r.reinjections);
  d.add(r.iw_resets_wifi);
  d.add(r.iw_resets_lte);
}

void digest_web(Digest& d, const WebRunResult& r) {
  d.add(r.mean_page_load_s);
  d.add(static_cast<std::uint64_t>(r.object_times.count()));
  d.add(r.object_times.mean());
  d.add(static_cast<std::uint64_t>(r.ooo_delay.count()));
  d.add(r.iw_resets);
}

void digest_traffic(Digest& d, const TrafficResult& r) {
  d.add(static_cast<std::uint64_t>(r.started));
  d.add(static_cast<std::uint64_t>(r.completed));
  d.add(static_cast<std::uint64_t>(r.churned));
  d.add(r.aggregate_goodput_mbps);
  d.add(r.orphans);
  for (const TrafficFlowRecord& f : r.flows) {
    d.add(f.delivered);
    d.add(f.completion_s);
  }
}

// ---- recorder counts -------------------------------------------------------

Counts counts_from_recorder(const FlightRecorder& rec, double sim_s) {
  const MetricsRegistry& m = rec.metrics();
  Counts c;
  c.segments_sent = m.total("subflow.segments_sent");
  c.retransmits = m.total("subflow.retransmits");
  c.rtos = m.total("subflow.rtos");
  c.fast_recoveries = m.total("subflow.fast_recoveries");
  c.idle_resets = m.total("subflow.idle_cwnd_resets");
  c.drops_queue = m.total("link.drops_queue");
  c.drops_fault = m.total("link.drops_fault");
  c.drops_random = m.total("link.drops_random");
  c.reinjections = m.total("conn.reinjections");
  c.ooo_bytes = m.total("conn.ooo_bytes_total");
  c.window_stalls = m.total("conn.window_stalls");
  for (const Instrument& inst : m.instruments()) {
    if (inst.kind != InstrumentKind::kCounter) continue;
    if (inst.name == "subflow.segments_sent") {
      ++c.subflows;
      if (inst.count > 0) ++c.subflows_used;
    } else if (inst.name == "link.busy_ns" && inst.labels.entity.ends_with(".down")) {
      c.link_busy_s += static_cast<double>(inst.count) * 1e-9;
      c.link_avail_s += sim_s;
    }
  }
  return c;
}

// Additive work of `after` beyond `before` (a fork's recorder starts as a
// clone of its prefix's).
Counts counts_delta(const Counts& after, const Counts& before) {
  Counts c = after;
  c.segments_sent -= before.segments_sent;
  c.retransmits -= before.retransmits;
  c.rtos -= before.rtos;
  c.fast_recoveries -= before.fast_recoveries;
  c.idle_resets -= before.idle_resets;
  c.drops_queue -= before.drops_queue;
  c.drops_fault -= before.drops_fault;
  c.drops_random -= before.drops_random;
  c.link_busy_s -= before.link_busy_s;
  c.link_avail_s -= before.link_avail_s;
  c.reinjections -= before.reinjections;
  c.ooo_bytes -= before.ooo_bytes;
  c.window_stalls -= before.window_stalls;
  return c;
}

// Attaches a cell's aggregated pick() totals to its cell.run span.
void attach_pick(SpanLog* log, std::int64_t span, const PickStats& pick) {
  if (log == nullptr) return;
  Span& s = log->at(span);
  s.attrs["sched.calls"] = static_cast<double>(pick.calls);
  s.attrs["sched.waits"] = static_cast<double>(pick.waits);
  s.attrs["sched.pick_ns"] = static_cast<double>(pick.ns);
}

// ---- paper_grid ------------------------------------------------------------

}  // namespace

std::string censored_stream(const StreamingResult& r) {
  const int planned = static_cast<int>(kVideoS / 5.0);  // 5 s DASH chunks
  if (r.chunks_fetched < planned) {
    return "censored: " + std::to_string(r.chunks_fetched) + "/" + std::to_string(planned) +
           " chunks";
  }
  return "";
}

std::string censored_download(const DownloadResult& r) {
  // DownloadRun leaves completion at 0 when it stops at its 600 s cap.
  if (r.completion <= Duration::zero() || r.completion >= Duration::seconds(600)) {
    return "censored: download did not complete";
  }
  return "";
}

std::string censored_web(bool done, std::size_t objects) {
  const auto planned = static_cast<std::size_t>(WebPageConfig{}.object_count);
  if (!done) return "censored: page never finished";
  if (objects != planned) {
    return "censored: " + std::to_string(objects) + "/" + std::to_string(planned) + " objects";
  }
  return "";
}

namespace {

// Drives a streaming run to completion in fixed simulated-time slices.
template <typename Run>
void run_in_slices(Run& run, double from_s, double slice_s, double limit_s,
                   std::vector<double>& slice_ms) {
  for (double t = from_s + slice_s; !run.done() && t <= limit_s + slice_s; t += slice_s) {
    const std::int64_t t0 = host_ns();
    run.run_to(TimePoint::origin() + Duration::from_seconds(t));
    slice_ms.push_back(since_s(t0) * 1e3);
  }
}

CellResult stream_cell(const ScenarioSpec& spec, bool traced, SpanLog* log, std::int64_t id,
                       bool check_invariants) {
  CellResult r;
  r.scheduler = spec.scheduler;
  FlightRecorder rec;
  ScenarioRunOptions o;
  if (traced || check_invariants) o.recorder = &rec;
  if (traced) {
    o.scheduler_override = timed_factory(scheduler_factory(spec.scheduler), &r.counts.pick);
  }
  const std::int64_t t0 = host_ns();
  const std::int64_t root = log != nullptr ? log->open("cell", -1, id) : -1;
  Phase setup(log, "cell.setup", root, id);
  StreamingRun run(streaming_params_from_spec(spec, o));
  std::unique_ptr<InvariantChecker> checker;
  if (check_invariants) {
    checker = std::make_unique<InvariantChecker>(run.sim());
    checker->watch(run.connection());
  }
  run.start();
  r.setup_s = setup.stop();

  Phase body(log, "cell.run", root, id);
  run_in_slices(run, 0.0, kStreamSliceS, 4.0 * kVideoS, r.slice_ms);
  body.stop();

  Phase collect(log, "cell.collect", root, id);
  const StreamingResult res = run.finish();
  collect.stop();
  r.sim_s = run.sim().now().to_seconds();
  r.why = censored_stream(res);
  r.failed = !r.why.empty();
  Digest d;
  digest_stream(d, res);
  r.digest = d.h;
  if (traced) {
    const PickStats pick = r.counts.pick;
    r.counts = counts_from_recorder(rec, r.sim_s);
    r.counts.pick = pick;
    r.counts.events = run.sim().events_processed();
    r.counts.sim_s = r.sim_s;
    r.counts.chunks = static_cast<std::uint64_t>(res.chunks_fetched);
  }
  attach_pick(log, body.id(), r.counts.pick);
  if (log != nullptr) log->close(root);
  if (checker != nullptr && !checker->ok()) {
    r.failed = true;
    r.why = "invariant: " + checker->report(1);
  }
  r.host_s = since_s(t0);
  return r;
}

// ---- lossy_web -------------------------------------------------------------

// One page load. Untraced cells use the library's WebPageRun; traced cells
// need a recorder and a timed scheduler, which WebPageRun does not accept,
// so they rebuild the same world from Testbed + WebBrowser exactly as
// WebPageRun::construct does. The outcome digests of the two must match.
CellResult web_cell_run(const ScenarioSpec& spec, bool traced, SpanLog* log, std::int64_t id) {
  CellResult r;
  r.scheduler = spec.scheduler;
  const std::int64_t t0 = host_ns();
  const std::int64_t root = log != nullptr ? log->open("cell", -1, id) : -1;
  WebRunResult res;
  double page_load_sum = 0.0;
  bool done = false;
  Phase setup(log, "cell.setup", root, id);
  const WebRunParams p = web_params_from_spec(spec);
  if (!traced) {
    WebPageRun run(p, 0);
    run.start();
    r.setup_s = setup.stop();
    Phase body(log, "cell.run", root, id);
    run_in_slices(run, 0.0, kWebSliceS, 3600.0, r.slice_ms);
    body.stop();
    Phase collect(log, "cell.collect", root, id);
    done = run.done();
    run.finish(res, page_load_sum);
    collect.stop();
    r.sim_s = run.sim().now().to_seconds();
  } else {
    FlightRecorder rec;
    TestbedConfig tb;
    if (p.use_path_overrides) {
      tb.wifi = p.wifi_override;
      tb.lte = p.lte_override;
    } else {
      tb.wifi = wifi_profile(Rate::mbps(p.wifi_mbps));
      tb.lte = lte_profile(Rate::mbps(p.lte_mbps));
    }
    tb.seed = p.seed;
    tb.conn.cc = p.cc;
    tb.recorder = &rec;
    Testbed bed(tb);
    WebPageConfig wc;
    Rng page_rng(0xC0FFEE);
    const SchedulerFactory factory = timed_factory(scheduler_factory(p.scheduler), &r.counts.pick);
    WebBrowser browser(bed.sim(), wc, make_page_objects(page_rng, wc),
                       [&bed, &factory] { return bed.make_connection(factory); });
    browser.on_finished = [&done, &bed] {
      done = true;
      bed.sim().request_stop();
    };
    browser.start();
    r.setup_s = setup.stop();
    Phase body(log, "cell.run", root, id);
    const TimePoint cap = TimePoint::origin() + Duration::seconds(3600);
    for (double t = kWebSliceS; !done; t += kWebSliceS) {
      const std::int64_t s0 = host_ns();
      const TimePoint to = TimePoint::origin() + Duration::from_seconds(t);
      bed.sim().run_until(to < cap ? to : cap);
      r.slice_ms.push_back(since_s(s0) * 1e3);
      if (!(to < cap)) break;
    }
    body.stop();
    Phase collect(log, "cell.collect", root, id);
    res.object_times.merge(browser.object_times());
    res.ooo_delay.merge(browser.ooo_delays());
    res.iw_resets += browser.iw_resets();
    page_load_sum += browser.page_load_time().to_seconds();
    collect.stop();
    r.sim_s = bed.sim().now().to_seconds();
    const PickStats pick = r.counts.pick;
    r.counts = counts_from_recorder(rec, r.sim_s);
    r.counts.pick = pick;
    r.counts.events = bed.sim().events_processed();
    r.counts.sim_s = r.sim_s;
    r.counts.page_loads = done ? 1 : 0;
    r.counts.objects = browser.object_times().count();
    attach_pick(log, body.id(), r.counts.pick);
  }
  res.mean_page_load_s = page_load_sum;  // one run: the mean is the value
  r.why = censored_web(done, res.object_times.count());
  r.failed = !r.why.empty();
  Digest d;
  digest_web(d, res);
  r.digest = d.h;
  if (log != nullptr) log->close(root);
  r.host_s = since_s(t0);
  return r;
}

// ---- whatif_fork -----------------------------------------------------------

// One shared prefix forked into one branch per paper scheduler. Returns the
// branches; the prefix's setup and host time ride on branch 0. Span cell
// ids: the prefix is `first_id`, branch b is `first_id + 1 + b`.
std::vector<CellResult> whatif_group(const ScenarioSpec& spec, bool traced, SpanLog* log,
                                     std::int64_t first_id, bool check_invariants) {
  const auto& scheds = paper_schedulers();
  std::vector<CellResult> out(scheds.size());
  FlightRecorder rec;
  PickStats prefix_pick;
  ScenarioRunOptions o;
  if (traced || check_invariants) o.recorder = &rec;
  if (traced) {
    o.scheduler_override = timed_factory(scheduler_factory(spec.scheduler), &prefix_pick);
  }
  const TimePoint switch_at = TimePoint::origin() + Duration::from_seconds(kSwitchS);

  const std::int64_t t0 = host_ns();
  const std::int64_t root = log != nullptr ? log->open("cell", -1, first_id) : -1;
  Phase setup(log, "cell.setup", root, first_id);
  StreamingRun prefix(streaming_params_from_spec(spec, o));
  prefix.start();
  out[0].setup_s = setup.stop();
  Phase body(log, "cell.run", root, first_id);
  run_in_slices(prefix, 0.0, kStreamSliceS, kSwitchS - kStreamSliceS, out[0].slice_ms);
  prefix.run_to(switch_at);
  body.stop();
  attach_pick(log, body.id(), prefix_pick);
  if (log != nullptr) log->close(root);
  const double prefix_sim_s = prefix.sim().now().to_seconds();
  const std::uint64_t prefix_events = prefix.sim().events_processed();
  const Counts prefix_counts = traced ? counts_from_recorder(rec, prefix_sim_s) : Counts{};
  out[0].prefix_sim_s = prefix_sim_s;
  out[0].counts.events = prefix_events;
  out[0].counts.sim_s = prefix_sim_s;
  out[0].counts.pick = prefix_pick;
  out[0].prefix_host_s = since_s(t0);

  for (std::size_t b = 0; b < scheds.size(); ++b) {
    CellResult& r = out[b];
    const std::int64_t id = first_id + 1 + static_cast<std::int64_t>(b);
    r.scheduler = scheds[b];
    PickStats pick;
    const std::int64_t b0 = host_ns();
    const std::int64_t broot = log != nullptr ? log->open("cell", -1, id) : -1;
    Phase fork(log, "snapshot.fork", broot, id);
    std::unique_ptr<StreamingRun> f = prefix.fork();
    f->set_scheduler(traced ? timed_factory(scheduler_factory(scheds[b]), &pick)
                            : scheduler_factory(scheds[b]));
    std::unique_ptr<InvariantChecker> checker;
    if (check_invariants) {
      checker = std::make_unique<InvariantChecker>(f->sim());
      checker->watch(f->connection());
    }
    r.fork_ms.push_back(fork.stop() * 1e3);
    const std::uint64_t events_at_fork = f->sim().events_processed();
    Phase run(log, "cell.run", broot, id);
    run_in_slices(*f, kSwitchS, kStreamSliceS, 4.0 * kVideoS, r.slice_ms);
    run.stop();
    Phase collect(log, "cell.collect", broot, id);
    const StreamingResult res = f->finish();
    collect.stop();
    const double end_s = f->sim().now().to_seconds();
    r.sim_s = end_s - prefix_sim_s + (b == 0 ? prefix_sim_s : 0.0);
    r.why = censored_stream(res);
    r.failed = !r.why.empty();
    if (checker != nullptr && !checker->ok()) {
      r.failed = true;
      r.why = "invariant: " + checker->report(1);
    }
    Digest d;
    digest_stream(d, res);
    r.digest = d.h;
    if (traced) {
      Counts c = counts_delta(counts_from_recorder(*f->recorder(), end_s), prefix_counts);
      c.events = f->sim().events_processed() - events_at_fork;
      c.sim_s = end_s - prefix_sim_s;
      c.chunks = static_cast<std::uint64_t>(res.chunks_fetched);
      c.pick = pick;
      if (b == 0) {
        // The prefix's work is counted once, on branch 0.
        Counts p = prefix_counts;
        p.events = prefix_events;
        p.sim_s = prefix_sim_s;
        p.pick = prefix_pick;
        p.subflows = p.subflows_used = 0;
        c.add(p);
      }
      r.counts = c;
    }
    attach_pick(log, run.id(), pick);
    if (log != nullptr) log->close(broot);
    r.host_s = since_s(b0);
  }
  std::set<std::uint64_t> distinct;
  for (const CellResult& r : out) distinct.insert(r.digest);
  out[0].branches_differ = distinct.size() > 1;
  return out;
}

// ---- many_flows ------------------------------------------------------------

// Per-flow stats read at teardown (a FlightRecorder is not attached here: its
// registry resolves every instrument by linear scan, which at 10^4 flows
// would cost more than the simulation).
struct FlowTap {
  Counts c;
  std::uint64_t active = 0;
  std::set<Path*> paths;
  SchedulerFactory factory;  // the timed scheduler swapped into each flow

  void on_start(Connection& conn) {
    ++c.flows_started;
    ++active;
    c.peak_active_flows = std::max(c.peak_active_flows, active);
    for (Subflow* sf : conn.subflows()) {
      if (sf != nullptr) paths.insert(&sf->path());
    }
    conn.set_scheduler(factory());
  }
  void on_end(Connection& conn) {
    --active;
    for (Subflow* sf : conn.subflows()) {
      if (sf == nullptr) continue;
      const SubflowStats& s = sf->stats();
      c.segments_sent += s.segments_sent;
      c.retransmits += s.retransmits;
      c.rtos += s.rto_events;
      c.fast_recoveries += s.fast_retransmits;
      c.idle_resets += s.idle_resets;
      ++c.subflows;
      if (s.segments_sent > 0) ++c.subflows_used;
    }
    c.reinjections += conn.meta_stats().reinjections;
    c.window_stalls += conn.meta_stats().window_stalls;
  }
};

CellResult flows_cell(const ScenarioSpec& spec, bool traced, SpanLog* log,
                      bool check_invariants) {
  CellResult r;
  r.scheduler = spec.scheduler;
  FlowTap tap;
  tap.factory = timed_factory(scheduler_factory(spec.scheduler), &r.counts.pick);
  FlightRecorder rec;
  ScenarioRunOptions o;
  if (check_invariants) o.recorder = &rec;

  const std::int64_t t0 = host_ns();
  const std::int64_t root = log != nullptr ? log->open("cell", -1, 0) : -1;
  Phase setup(log, "cell.setup", root, 0);
  TrafficRun run(spec, o);
  std::unique_ptr<InvariantChecker> checker;
  if (check_invariants) {
    checker = std::make_unique<InvariantChecker>(run.sim());
    run.engine().on_flow_start = [&checker](Connection& c) { checker->watch(c); };
    run.engine().on_flow_end = [&checker](Connection& c) { checker->unwatch(c); };
  } else if (traced) {
    run.engine().on_flow_start = [&tap](Connection& c) { tap.on_start(c); };
    run.engine().on_flow_end = [&tap](Connection& c) { tap.on_end(c); };
  }
  run.start();
  r.setup_s = setup.stop();
  const std::uint64_t events0 = run.sim().events_processed();

  const double start_s = run.sim().now().to_seconds();
  const double end_s = run.engine().end_time().to_seconds();
  const auto slices = static_cast<std::int64_t>(std::llround((end_s - start_s) / kFlowsSliceS));
  for (std::int64_t k = 1; k <= slices; ++k) {
    Phase slice(log, "cell.run", root, 0);
    run.run_to(TimePoint::origin() +
               Duration::from_seconds(start_s + static_cast<double>(k) * kFlowsSliceS));
    r.slice_ms.push_back(slice.stop() * 1e3);
  }
  const std::uint64_t events = run.sim().events_processed() - events0;
  r.sim_s = run.sim().now().to_seconds() - start_s;
  Phase collect(log, "cell.collect", root, 0);
  const TrafficResult res = run.finish();
  collect.stop();
  Digest d;
  digest_traffic(d, res);
  r.digest = d.h;
  if (traced) {
    const PickStats pick = r.counts.pick;
    Counts& c = tap.c;
    for (Path* p : tap.paths) {
      const LinkStats& s = p->down().stats();
      c.drops_queue += s.drops_queue + p->up().stats().drops_queue;
      c.drops_fault += s.drops_fault + p->up().stats().drops_fault;
      c.drops_random += s.drops_random + p->up().stats().drops_random;
      c.link_busy_s += static_cast<double>(s.bytes_delivered) * 8.0 / p->down().rate().bps();
      c.link_avail_s += r.sim_s;
    }
    c.events = events;
    c.sim_s = r.sim_s;
    c.flows_completed = res.completed;
    c.churn_arrivals = res.churned;
    c.pick = pick;
    r.counts = c;
  }
  if (log != nullptr) {
    log->close(root);
  }
  if (checker != nullptr && !checker->ok()) {
    r.failed = true;
    r.why = "invariant: " + checker->report(1);
  }
  r.host_s = since_s(t0);
  return r;
}

// lossy_web under the InvariantChecker: the browser retires connections
// without telling its owner, so a checker cannot safely watch them. The
// slice instead runs one page-sized download per cell over the same faulted
// paths and scheduler, which keeps the workload's recovery and reinjection
// paths under the checker.
CellResult web_invariant_cell(const ScenarioSpec& spec) {
  CellResult r;
  r.scheduler = spec.scheduler;
  const WebRunParams wp = web_params_from_spec(spec);
  DownloadParams dp;
  if (wp.use_path_overrides) {
    dp.paths = {wp.wifi_override, wp.lte_override};
  } else {
    dp.wifi_mbps = wp.wifi_mbps;
    dp.lte_mbps = wp.lte_mbps;
  }
  dp.bytes = WebPageConfig{}.total_bytes;
  dp.scheduler = wp.scheduler;
  dp.cc = wp.cc;
  dp.seed = wp.seed;
  FlightRecorder rec;
  const std::int64_t t0 = host_ns();
  DownloadRun run(dp);
  // Trace events resolve the recorder at emission, so attaching it after
  // construction is enough for the checker's event stream.
  run.sim().set_recorder(&rec);
  InvariantChecker checker(run.sim());
  checker.watch(run.connection());
  run.start();
  const DownloadResult res = run.finish();
  r.why = censored_download(res);
  if (!checker.ok()) r.why = "invariant: " + checker.report(1);
  if (checker.checks_run() == 0) r.why = "invariant: checker saw no events";
  r.failed = !r.why.empty();
  Digest d;
  d.add(static_cast<std::uint64_t>(res.completion.ns()));
  r.digest = d.h;
  r.sim_s = run.sim().now().to_seconds();
  r.host_s = since_s(t0);
  return r;
}

void fill_sweep(PassResult& p, const SweepTelemetry& t) {
  for (const WorkerStats& w : t.workers) {
    p.sweep_busy_s += static_cast<double>(w.busy_ns) * 1e-9;
    p.sweep_wait_s += static_cast<double>(w.wait_ns) * 1e-9;
    p.sweep_idle_s += static_cast<double>(w.idle_ns) * 1e-9;
  }
}

}  // namespace

std::size_t plan_size(Workload w) {
  switch (w) {
    case Workload::kPaperGrid: return paper_schedulers().size() * 36;
    case Workload::kManyFlows: return 1;
    case Workload::kLossyWeb:
      return kWebWifiRttMs.size() * paper_schedulers().size() * kWebSeeds;
    case Workload::kWhatifFork: return 36;
  }
  return 0;
}

PassResult run_pass(Workload w, std::uint64_t seed, const PassOptions& opts) {
  PassResult p;
  std::vector<std::size_t> plan = opts.subset;
  if (plan.empty()) {
    // The seed also picks the order the sweep claims cells in, which sets
    // where the long cells fall and so how idle the workers end the pass.
    plan.resize(plan_size(w));
    for (std::size_t i = 0; i < plan.size(); ++i) plan[i] = i;
    std::shuffle(plan.begin(), plan.end(), std::mt19937_64(seed));
  }
  const bool tracing = opts.traced;
  SpanLog pass_log;
  const std::int64_t root = tracing ? pass_log.open("workload", -1, -1) : -1;
  const std::size_t per = w == Workload::kWhatifFork ? paper_schedulers().size() : 1;
  std::vector<std::vector<CellResult>> results(plan.size());
  std::vector<std::size_t> sampled_before(plan.size(), 0);
  std::vector<SpanLog> logs(plan.size());

  const auto cell = [&](std::size_t k) -> std::vector<CellResult> {
    const std::size_t i = plan[k];
    SpanLog* log = tracing ? &logs[k] : nullptr;
    const auto id = static_cast<std::int64_t>(w == Workload::kWhatifFork ? i * (per + 1) : i);
    switch (w) {
      case Workload::kPaperGrid: {
        const GridCell g = grid_cell(i);
        CellResult r = stream_cell(stream_spec(g.wifi, g.lte, g.sched, seed), tracing, log, id,
                                   opts.check_invariants);
        r.hetero = std::max(g.wifi, g.lte) / std::min(g.wifi, g.lte) >= 4.0;
        r.label = g.sched + "@" + std::to_string(g.wifi) + "/" + std::to_string(g.lte);
        return {r};
      }
      case Workload::kLossyWeb: {
        const WebCell c = web_cell(i, seed);
        const ScenarioSpec spec = web_spec(c.rtt_ms, c.sched, c.seed, !opts.strip_faults);
        CellResult r = opts.check_invariants ? web_invariant_cell(spec)
                                             : web_cell_run(spec, tracing, log, id);
        r.label = c.sched + "@rtt" + std::to_string(static_cast<int>(c.rtt_ms)) + "/seed" +
                  std::to_string(c.seed);
        return {r};
      }
      case Workload::kWhatifFork: {
        const std::size_t n = grid().size();
        const ScenarioSpec spec =
            stream_spec(grid()[i / n], grid()[i % n], paper_schedulers()[0], seed);
        return whatif_group(spec, tracing, log, id, opts.check_invariants);
      }
      case Workload::kManyFlows: {
        const ScenarioSpec spec = flows_spec(
            opts.flows_override > 0 ? opts.flows_override : kFlows,
            opts.duration_override_s > 0 ? opts.duration_override_s : kFlowsDurationS, seed);
        return {flows_cell(spec, tracing, log, opts.check_invariants)};
      }
    }
    return {};
  };
  HostSpeed* const speed = opts.host_speed;
  if (speed != nullptr && opts.jobs != 1) {
    throw std::invalid_argument("host speed sampling needs jobs=1");
  }
  // A run that throws counts as failed; the pass goes on.
  const auto guarded = [&](std::size_t k) {
    if (speed != nullptr) {
      if (speed->due()) {
        // Its own span, so the sample's time is no layer's self time.
        const std::int64_t id = tracing ? logs[k].open("host.sample", -1, -1) : -1;
        speed->sample();
        if (tracing) logs[k].close(id);
      }
      sampled_before[k] = speed->last();
    }
    try {
      results[k] = cell(k);
    } catch (const std::exception& e) {
      results[k].assign(per, CellResult{});
      for (CellResult& r : results[k]) {
        r.failed = true;
        r.why = std::string("threw: ") + e.what();
      }
    }
  };

  if (speed != nullptr) speed->begin();
  const std::int64_t t0 = host_ns();
  if (w == Workload::kManyFlows) {
    guarded(0);  // one world, driven inline
  } else {
    SweepRunner runner(SweepOptions{opts.jobs});
    runner.run(plan.size(), guarded);
    fill_sweep(p, runner.telemetry());
  }
  p.wall_s = since_s(t0);
  if (speed != nullptr) {
    p.wall_s -= static_cast<double>(speed->spent_ns()) * 1e-9;
    p.host_factor = speed->end();
    for (std::size_t k = 0; k < plan.size(); ++k) {
      for (CellResult& r : results[k]) r.host_factor = speed->factor_after(sampled_before[k]);
    }
  }

  // Cells and the digest in plan order, whatever order the sweep ran them in.
  std::vector<std::size_t> order(plan.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&plan](std::size_t a, std::size_t b) { return plan[a] < plan[b]; });
  Digest d;
  for (const std::size_t k : order) {
    for (CellResult& r : results[k]) {
      d.add(r.digest);
      if (r.why.rfind("invariant", 0) == 0) {
        ++p.invariant_violations;
        if (p.first_violation.empty()) p.first_violation = r.why;
      }
      p.cells.push_back(std::move(r));
    }
    if (tracing) pass_log.append(logs[k], root);
  }
  p.digest = d.h;
  if (tracing) {
    pass_log.close(root);
    p.spans = pass_log.spans();
  }
  return p;
}


std::vector<std::string> engagement_gate(Workload w, const PassResult& traced) {
  std::vector<std::string> fails;
  const auto most = [](std::size_t hits, std::size_t n) { return n > 0 && 2 * hits > n; };
  const auto need = [&fails](bool ok, const std::string& what) {
    if (!ok) fails.push_back(what);
  };
  Counts total;
  for (const CellResult& c : traced.cells) total.add(c.counts);
  const std::size_t n = traced.cells.size();
  switch (w) {
    case Workload::kPaperGrid: {
      std::size_t both = 0;
      std::size_t ecf_het = 0;
      std::size_t ecf_waits = 0;
      for (const CellResult& c : traced.cells) {
        if (c.counts.subflows >= 2 && c.counts.subflows_used == c.counts.subflows) ++both;
        if (c.scheduler == "ecf" && c.hetero) {
          ++ecf_het;
          if (c.counts.pick.waits > 0) ++ecf_waits;
        }
      }
      need(most(both, n), "both subflows carry bytes in " + std::to_string(both) + "/" +
                              std::to_string(n) + " cells");
      need(most(ecf_waits, ecf_het), "ecf waits on " + std::to_string(ecf_waits) + "/" +
                                         std::to_string(ecf_het) + " heterogeneous cells");
      break;
    }
    case Workload::kManyFlows:
      need(total.churn_arrivals > 0, "no churn arrivals");
      need(total.flows_completed > 0, "no flow completed");
      need(total.drops_queue > 0, "no queue drops");
      break;
    case Workload::kLossyWeb: {
      std::size_t fault = 0;
      std::size_t rtx = 0;
      std::size_t rto = 0;
      for (const CellResult& c : traced.cells) {
        fault += c.counts.drops_fault > 0 ? 1 : 0;
        rtx += c.counts.retransmits > 0 ? 1 : 0;
        rto += c.counts.rtos > 0 ? 1 : 0;
      }
      const std::string of = "/" + std::to_string(n) + " cells";
      need(most(fault, n), "fault drops in " + std::to_string(fault) + of);
      need(most(rtx, n), "retransmits in " + std::to_string(rtx) + of);
      need(most(rto, n), "RTOs in " + std::to_string(rto) + of);
      break;
    }
    case Workload::kWhatifFork: {
      std::size_t forks = 0;
      std::size_t groups_n = 0;
      std::size_t differ = 0;
      for (std::size_t i = 0; i < n; ++i) {
        forks += traced.cells[i].fork_ms.size();
        if (i % paper_schedulers().size() == 0) {
          ++groups_n;
          differ += traced.cells[i].branches_differ ? 1 : 0;
        }
      }
      need(forks > 0, "no forks");
      need(most(differ, groups_n), "branch outcomes differ in " + std::to_string(differ) + "/" +
                                       std::to_string(groups_n) + " groups");
      break;
    }
  }
  return fails;
}

std::vector<std::string> reference_check(Workload w, std::uint64_t seed, int jobs,
                                         const PassResult& full) {
  std::vector<std::string> errs;
  if (w == Workload::kManyFlows) {
    // One world, so no jobs axis: compare the sliced, hooked run with the
    // library's one-shot run_scenario on a shrunk world.
    PassOptions o;
    o.flows_override = 300;
    o.duration_override_s = 2.0;
    o.traced = true;
    const PassResult sliced = run_pass(w, seed, o);
    Digest d;
    digest_traffic(d, run_scenario(flows_spec(300, 2.0, seed)).traffic);
    if (d.h != sliced.cells[0].digest) errs.push_back("sliced run != run_scenario");
    return errs;
  }
  const std::size_t per = w == Workload::kWhatifFork ? paper_schedulers().size() : 1;
  const std::size_t n = plan_size(w);
  PassOptions o;
  // Four plan indices, one from each quarter of the plan.
  for (std::size_t k = 0; k < 4; ++k) o.subset.push_back((k * n) / 4 + (k * 7) % (n / 4));
  o.jobs = 1;
  const PassResult serial = run_pass(w, seed, o);
  o.jobs = jobs;
  const PassResult parallel = run_pass(w, seed, o);
  for (std::size_t k = 0; k < o.subset.size(); ++k) {
    const std::size_t i = o.subset[k];
    for (std::size_t b = 0; b < per; ++b) {
      const std::uint64_t ref = serial.cells[k * per + b].digest;
      const std::string at = " at plan index " + std::to_string(i);
      if (parallel.cells[k * per + b].digest != ref) errs.push_back("jobs=1 != jobs=N" + at);
      if (full.cells.size() == n * per && full.cells[i * per + b].digest != ref) {
        errs.push_back("subset != full pass" + at);
      }
    }
    // The library's one-shot entry points must agree with the staged cells.
    Digest d;
    if (w == Workload::kPaperGrid) {
      const GridCell g = grid_cell(i);
      digest_stream(d, run_scenario(stream_spec(g.wifi, g.lte, g.sched, seed)).streaming);
      if (d.h != serial.cells[k].digest) errs.push_back("run_scenario != staged cell at " +
                                                        std::to_string(i));
    } else if (w == Workload::kLossyWeb) {
      const WebCell c = web_cell(i, seed);
      digest_web(d, run_scenario(web_spec(c.rtt_ms, c.sched, c.seed, true)).web);
      if (d.h != serial.cells[k].digest) errs.push_back("run_scenario != staged cell at " +
                                                        std::to_string(i));
    } else {
      const std::size_t g = grid().size();
      const auto outs = run_whatif_grid(
          stream_spec(grid()[i / g], grid()[i % g], paper_schedulers()[0], seed),
          paper_schedulers(), kSwitchS, true, {}, SweepOptions{1});
      for (std::size_t b = 0; b < per; ++b) {
        Digest db;
        digest_stream(db, outs[b].streaming);
        if (db.h != serial.cells[k * per + b].digest) {
          errs.push_back("run_whatif_grid != staged branch at " + std::to_string(i));
        }
      }
    }
  }
  return errs;
}

PassResult invariant_slice(Workload w, std::uint64_t seed) {
  PassOptions o;
  o.check_invariants = true;
  const std::size_t n = plan_size(w);
  switch (w) {
    case Workload::kManyFlows:
      // The checker re-validates every watched flow on each event, so its
      // cost grows with the square of the population.
      o.flows_override = 60;
      o.duration_override_s = 2.0;
      break;
    case Workload::kLossyWeb:
      for (std::size_t k = 0; k < 4; ++k) o.subset.push_back(k * (n / 4) + k);
      break;
    default:
      o.subset = {seed % n, (seed + n / 2) % n};
      break;
  }
  return run_pass(w, seed, o);
}

}  // namespace perfbench
