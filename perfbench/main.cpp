// perfbench: runs one benchmark workload for a fixed host-time budget and
// prints its metrics. The last line of stdout is the JSON result
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Run from the repository root (it reads scenarios/*.json and
// writes span logs to .bench_out/):
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.h"
#include "scenario/json.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

const char* const kOutDir = ".bench_out";
const char* const kScenarios = "scenarios";

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Timings of one kind of pass (untraced or traced), scaled to the quiet host
// (HostSpeed): a pass's wall time by the pass's factor, everything measured
// inside a cell by the cell's. Every timing is taken per pass and
// reported as the median over the run's passes; the latency percentiles are
// those of one pass's cells or slices. Fork and build latencies (per-layer
// only) are pooled over the run. Failed runs are counted, never timed.
struct Timed {
  std::vector<double> raw_wall_s, host_factor;
  std::vector<double> wall_s, setup_s, speed, cell_host_s;
  std::vector<double> cell_p50, cell_p90, slice_p50, slice_p90;
  std::vector<double> fork_ms, build_ms;
  std::size_t cells = 0;
  std::size_t slices = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void add(const PassResult& p) {
    double setup = 0.0;
    double sim = 0.0;
    double host = 0.0;
    std::vector<double> cell_ms;
    std::vector<double> slice_ms;
    for (const CellResult& c : p.cells) {
      const double f = c.host_factor;
      setup += c.setup_s * f;
      ++attempted;
      if (c.failed) {
        ++failed;
        if (first_failure.empty()) first_failure = c.label + " " + c.why;
        continue;
      }
      sim += c.sim_s;
      host += (c.host_s + c.prefix_host_s) * f;
      cell_ms.push_back(c.host_s * 1e3 * f);
      if (c.setup_s > 0.0) build_ms.push_back(c.setup_s * 1e3 * f);
      for (double x : c.slice_ms) slice_ms.push_back(x * f);
      for (double x : c.fork_ms) fork_ms.push_back(x * f);
    }
    raw_wall_s.push_back(p.wall_s);
    host_factor.push_back(p.host_factor);
    wall_s.push_back(p.wall_s * p.host_factor);
    setup_s.push_back(setup);
    cell_host_s.push_back(host);
    speed.push_back(host > 0.0 ? sim / host : 0.0);
    cell_p50.push_back(quantile(cell_ms, 0.5));
    cell_p90.push_back(quantile(cell_ms, 0.9));
    slice_p50.push_back(quantile(slice_ms, 0.5));
    slice_p90.push_back(quantile(slice_ms, 0.9));
    cells += cell_ms.size();
    slices += slice_ms.size();
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

std::vector<Metric> end_to_end(const Timed& t, std::uint64_t peak_rss) {
  return {
      {"wall_s", median(t.wall_s), "s"},
      {"setup_s", median(t.setup_s), "s"},
      {"sim_s_per_wall_s", median(t.speed), "ratio"},
      {"cell_ms_p50", median(t.cell_p50), "ms"},
      {"cell_ms_p90", median(t.cell_p90), "ms"},
      {"slice_ms_p50", median(t.slice_p50), "ms"},
      {"slice_ms_p90", median(t.slice_p90), "ms"},
      {"peak_rss_mb", static_cast<double>(peak_rss) * 1e-6, "MB"},
      {"completed_frac", 1.0 - ratio(static_cast<double>(t.failed),
                                     static_cast<double>(t.attempted)),
       "ratio"},
  };
}

std::vector<Metric> per_layer(Workload w, const Timed& untraced, const Timed& traced,
                              const PassResult& last, const PassResult& pool,
                              double rss_per_flow,
                              const std::string& scenarios) {
  Counts c;
  double prefix_sim = 0.0;
  double forks = 0.0;
  for (const CellResult& cell : last.cells) {
    c.add(cell.counts);
    prefix_sim += cell.prefix_sim_s;
    forks += static_cast<double>(cell.fork_ms.size());
  }
  const auto n = [](std::uint64_t x) { return static_cast<double>(x); };
  std::map<std::string, double> self;
  const std::vector<std::int64_t> st = self_times_ns(last.spans);
  for (std::size_t i = 0; i < st.size(); ++i) {
    self[last.spans[i].name] += static_cast<double>(st[i]) * 1e-9;
  }
  std::vector<Metric> m = {
      {"sim.events", n(c.events), "count"},
      {"sim.ns_per_event", ratio(median(untraced.cell_host_s) * 1e9, n(c.events)), "ns"},
      {"sim.kernel_mevents_per_s", probe_kernel_mevents_per_s(), "Mevent/s"},
      {"sched.calls", n(c.pick.calls), "count"},
      {"sched.waits", n(c.pick.waits), "count"},
      {"sched.useful_ratio", ratio(n(c.pick.calls - c.pick.waits), n(c.pick.calls)), "ratio"},
      {"sched.self_share",
       ratio(static_cast<double>(c.pick.ns) * 1e-9, traced.cell_host_s.back()), "ratio"},
  };
  for (const char* s : {"default", "ecf", "daps", "blest"}) {
    m.push_back({std::string("sched.pick_ns.") + s, probe_pick_ns(s), "ns"});
  }
  std::size_t presets = 0;
  const double parse_us = probe_scenario_parse_us(scenarios, &presets);
  const std::vector<Metric> rest = {
      {"tcp.segments_sent", n(c.segments_sent), "count"},
      {"tcp.retransmits", n(c.retransmits), "count"},
      {"tcp.rtos", n(c.rtos), "count"},
      {"tcp.fast_recoveries", n(c.fast_recoveries), "count"},
      {"tcp.idle_cwnd_resets", n(c.idle_resets), "count"},
      {"tcp.retransmit_ratio", ratio(n(c.retransmits), n(c.segments_sent)), "ratio"},
      {"net.drops_queue", n(c.drops_queue), "count"},
      {"net.drops_fault", n(c.drops_fault), "count"},
      {"net.drops_random", n(c.drops_random), "count"},
      {"net.busy_share", ratio(c.link_busy_s, c.link_avail_s), "ratio"},
      {"mptcp.reinjections", n(c.reinjections), "count"},
      {"mptcp.ooo_bytes", n(c.ooo_bytes), "B"},
      {"mptcp.window_stalls", n(c.window_stalls), "count"},
      {"app.chunks", n(c.chunks), "count"},
      {"app.page_loads", n(c.page_loads), "count"},
      {"app.objects", n(c.objects), "count"},
      {"traffic.flows_started", n(c.flows_started), "count"},
      {"traffic.flows_completed", n(c.flows_completed), "count"},
      {"traffic.peak_active_flows", n(c.peak_active_flows), "count"},
      {"traffic.rss_bytes_per_flow", w == Workload::kManyFlows ? rss_per_flow : 0.0, "B"},
      {"scenario.parse_us", parse_us, "us"},
      {"scenario.build_ms_p50", quantile(untraced.build_ms, 0.5), "ms"},
      {"sweep.busy_s", pool.sweep_busy_s, "s"},
      {"sweep.wait_s", pool.sweep_wait_s, "s"},
      {"sweep.idle_s", pool.sweep_idle_s, "s"},
      {"sweep.idle_share",
       ratio(pool.sweep_idle_s, pool.sweep_busy_s + pool.sweep_wait_s + pool.sweep_idle_s),
       "ratio"},
      {"snapshot.forks", forks, "count"},
      {"snapshot.fork_ms_p50", quantile(untraced.fork_ms, 0.5), "ms"},
      {"snapshot.fork_ms_p90", quantile(untraced.fork_ms, 0.9), "ms"},
      {"snapshot.prefix_share", ratio(prefix_sim, c.sim_s), "ratio"},
      {"obs.trace_overhead", ratio(median(traced.wall_s), median(untraced.wall_s)) - 1.0,
       "ratio"},
      {"span.workload.self_s", self["workload"], "s"},
      {"span.cell.self_s", self["cell"], "s"},
      {"span.cell.setup.self_s", self["cell.setup"], "s"},
      {"span.cell.run.self_s", self["cell.run"], "s"},
      {"span.snapshot.fork.self_s", self["snapshot.fork"], "s"},
      {"span.cell.collect.self_s", self["cell.collect"], "s"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  std::printf("scenario presets parsed: %zu\n", presets);
  return m;
}

int run(const Args& a, Workload w) {
  // Timed passes run on one worker: on a host whose cores are shared with
  // other machines, cells on every core at once time the neighbours' load
  // more than the simulator. The worker pool, min(4, nproc), runs the jobs
  // check and, in traced runs, one pass for the sweep telemetry.
  const int pool_jobs =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  const int jobs = 1;
  std::printf("fingerprint: cpu=\"%s\" nproc=%u compiler=\"%s\" build_type=%s\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d jobs=%d pool=%d plan=%zu\n",
              workload_name(w), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, jobs, pool_jobs, plan_size(w));

  HostSpeed host_speed;
  PassOptions untraced_opts;
  untraced_opts.jobs = jobs;
  untraced_opts.host_speed = &host_speed;
  PassOptions traced_opts = untraced_opts;
  traced_opts.traced = true;

  // Measure for the budget: untraced passes only, or untraced and traced
  // passes alternating. A pass starts only if it is expected to end within
  // the budget; at least one pass of each kind runs.
  Timed untraced;
  Timed traced;
  PassResult last_traced;
  PassResult first_untraced;  // reference for the subset checks
  std::vector<std::uint64_t> digests;
  double rss_first_pass = 0.0;
  const std::uint64_t rss0 = peak_rss_bytes();
  const std::int64_t t0 = host_ns();
  double longest = 0.0;
  for (int i = 0;; ++i) {
    const double elapsed = static_cast<double>(host_ns() - t0) * 1e-9;
    const bool need_more = i == 0 || (a.trace && traced.wall_s.empty());
    if (!need_more && elapsed + longest > a.seconds) break;
    const bool tracing = a.trace && i % 2 == 1;
    PassResult p = run_pass(w, a.seed, tracing ? traced_opts : untraced_opts);
    if (i == 0) rss_first_pass = static_cast<double>(peak_rss_bytes() - rss0);
    longest = std::max(longest, p.wall_s);
    digests.push_back(p.digest);
    (tracing ? traced : untraced).add(p);
    if (tracing) {
      last_traced = std::move(p);
    } else if (first_untraced.cells.empty()) {
      first_untraced = std::move(p);
    }
  }
  const std::uint64_t peak_rss = peak_rss_bytes();

  // Correctness: one outcome digest across every pass (traced or not), the
  // jobs and one-shot reference checks, the invariant slice, and in traced
  // runs the engagement gate.
  const std::int64_t t_checks = host_ns();
  std::vector<std::string> errors;
  for (std::uint64_t d : digests) {
    if (d != digests.front()) errors.push_back("outcome digest differs between passes");
  }
  for (const std::string& e : reference_check(w, a.seed, pool_jobs, first_untraced)) {
    errors.push_back(e);
  }
  // Traced runs: one whole pass on the worker pool, for the sweep telemetry
  // (how idle long-tailed cells leave the workers at the end of a pass).
  PassResult pool;
  if (a.trace) {
    PassOptions pool_opts;
    pool_opts.jobs = pool_jobs;
    pool = run_pass(w, a.seed, pool_opts);
    if (pool.digest != digests.front()) errors.push_back("pool pass digest differs");
  }
  const PassResult inv = invariant_slice(w, a.seed);
  if (inv.invariant_violations > 0) errors.push_back("invariants: " + inv.first_violation);
  for (const CellResult& c : inv.cells) {
    if (c.failed && c.why.rfind("invariant", 0) != 0) {
      std::printf("invariant slice run failed: %s %s\n", c.label.c_str(), c.why.c_str());
    }
  }
  if (a.trace) {
    for (const std::string& g : engagement_gate(w, last_traced)) {
      errors.push_back("engagement gate: " + g);
    }
  }
  std::printf("checks took %.2f s\n", static_cast<double>(host_ns() - t_checks) * 1e-9);
  std::printf("passes: untraced=%zu traced=%zu cells=%zu slices=%zu\n", untraced.wall_s.size(),
              traced.wall_s.size(), untraced.cells, untraced.slices);
  std::printf("host: raw pass wall median %.4f s, host factor median %.3f (min %.3f, max %.3f)\n",
              median(untraced.raw_wall_s), median(untraced.host_factor),
              *std::min_element(untraced.host_factor.begin(), untraced.host_factor.end()),
              *std::max_element(untraced.host_factor.begin(), untraced.host_factor.end()));
  std::printf("digest: %016llx\n", static_cast<unsigned long long>(digests.front()));
  std::printf("invariant slice: %zu cells, %llu violations\n", inv.cells.size(),
              static_cast<unsigned long long>(inv.invariant_violations));
  if (!untraced.first_failure.empty()) {
    std::printf("first failed run: %s\n", untraced.first_failure.c_str());
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());

  std::vector<Metric> metrics;
  if (a.trace) {
    Counts peak;
    for (const CellResult& c : last_traced.cells) peak.add(c.counts);
    const double per_flow = ratio(rss_first_pass, static_cast<double>(peak.peak_active_flows));
    metrics = per_layer(w, untraced, traced, last_traced, pool, per_flow, kScenarios);
    std::filesystem::create_directories(kOutDir);
    const std::string path = std::string(kOutDir) + "/spans-" + workload_name(w) + "-seed" +
                             std::to_string(a.seed) + ".json";
    std::ofstream(path) << spans_to_json(last_traced.spans) << "\n";
    std::printf("spans: %zu written to %s\n", last_traced.spans.size(), path.c_str());
  } else {
    metrics = end_to_end(untraced, peak_rss);
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  mps::Json out = mps::Json::object();
  out.set("correct", mps::Json::boolean(errors.empty()));
  out.set("attempted", mps::Json::number(static_cast<std::int64_t>(untraced.attempted)));
  out.set("failed", mps::Json::number(static_cast<std::int64_t>(untraced.failed)));
  mps::Json mj = mps::Json::object();
  for (const Metric& m : metrics) {
    mps::Json v = mps::Json::object();
    v.set("value", mps::Json::number(m.value));
    v.set("unit", mps::Json::string(m.unit));
    mj.set(m.name, v);
  }
  out.set("metrics", mj);
  std::printf("%s\n", out.dump().c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const auto w = perfbench::parse_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  try {
    return perfbench::run(a, *w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
