// The repository benchmark: four workloads driven through the simulator's
// public APIs, a pass loop that reports host-time end-to-end metrics, and a
// traced pass that times each layer from outside by wrapping the calls into
// it (spans around the staged Run API, a timing decorator around
// Scheduler::pick, FlightRecorder counters).
//
// Workloads (see README.md for why each exists):
//   paper_grid   Fig. 9 streaming grid: 4 schedulers x 36 bandwidth pairs
//   many_flows   one world of ~10^4 concurrent MPTCP flows in run_to slices
//   lossy_web    107-object page loads over faulted heterogeneous paths
//   whatif_fork  shared-prefix what-if scheduler grid (prefix fork)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario_run.h"
#include "mptcp/scheduler.h"

namespace perfbench {

enum class Workload { kPaperGrid, kManyFlows, kLossyWeb, kWhatifFork };

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(const std::string& name);

// ---- host clock and process memory -----------------------------------------

// Monotonic host nanoseconds (steady_clock).
std::int64_t host_ns();
// Process high-water resident set, bytes (getrusage).
std::uint64_t peak_rss_bytes();

// ---- host speed ------------------------------------------------------------

// How fast the host runs memory-bound code right now. On a host whose
// shared cache and memory are also loaded by other machines, a pass of the
// simulator slows by up to 2x for tens of seconds at a time, so raw host
// times of the same code differ run to run by more than any change worth
// measuring. A timed pass samples a fixed loop that shares no code with the
// simulator (a heap, pointer chasing and a hashed table over ~4 MB) at its
// start, between cells at most every 0.2 s, and at its end; the loop slows
// with the host, and the pass's host times are scaled by nominal / mean
// sample time, to what the pass would take on the quiet host; each cell's
// host times are scaled by the two samples around it. A change to the
// simulator moves the pass and not the loop, so it shows in full.
class HostSpeed {
 public:
  HostSpeed();
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  void begin();  // starts a pass with a sample
  // Between cells: whether the last sample is old enough, and a sample.
  bool due() const;
  void sample();
  // Ends the pass with a sample; returns the pass's scale factor.
  double end();
  // The latest sample, and the scale factor from the two samples around
  // whatever ran after sample `k`.
  std::size_t last() const { return samples_.size() - 1; }
  double factor_after(std::size_t k) const;
  // Host time the pass spent sampling between cells (not the pass's).
  std::int64_t spent_ns() const { return spent_ns_; }
  const std::vector<double>& samples_s() const { return samples_; }

 private:
  struct State;
  double run_s();

  std::unique_ptr<State> s_;
  std::vector<double> samples_;
  std::int64_t spent_ns_ = 0;
  std::int64_t last_ns_ = 0;
};

// ---- small statistics ------------------------------------------------------

// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// FNV-1a over 64-bit words: the simulated-outcome digest.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x);
  void add(double x);  // exact bit pattern
};

// ---- spans -----------------------------------------------------------------

// One timed interval recorded by the benchmark around a call into a layer.
// `parent` indexes the enclosing span in the same log (-1 for a root); spans
// of one cell share `cell` (-1 for spans outside any cell).
struct Span {
  std::string name;
  std::int64_t parent = -1;
  std::int64_t cell = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::map<std::string, double> attrs;
};

// Per-span self time: duration minus the part of the interval covered by
// the union of its children (children may overlap when cells run on several
// workers, so the union is measured, not the sum).
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// Thread-confined span recorder for one cell; merged into a pass-wide log.
class SpanLog {
 public:
  std::int64_t open(const std::string& name, std::int64_t parent, std::int64_t cell);
  void close(std::int64_t id);
  Span& at(std::int64_t id) { return spans_[static_cast<std::size_t>(id)]; }
  // Appends `other`, re-pointing its roots at `parent`.
  void append(const SpanLog& other, std::int64_t parent);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

std::string spans_to_json(const std::vector<Span>& spans);

// ---- scheduler timing decorator -------------------------------------------

// Aggregated pick() accounting for one cell (one span per pick would swamp
// the run).
struct PickStats {
  std::uint64_t calls = 0;
  std::uint64_t waits = 0;  // nullptr returns
  std::int64_t ns = 0;
};

// Wraps a scheduler factory so every pick() is timed into `stats`
// (borrowed; must outlive every scheduler the factory makes).
mps::SchedulerFactory timed_factory(mps::SchedulerFactory inner, PickStats* stats);

// ---- per-layer counts ------------------------------------------------------

// Work counts of one cell, read from the FlightRecorder (or, on many_flows,
// from the flows' own stats at teardown). Summed across cells.
struct Counts {
  std::uint64_t events = 0;
  double sim_s = 0.0;
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rtos = 0;
  std::uint64_t fast_recoveries = 0;
  std::uint64_t idle_resets = 0;
  std::uint64_t drops_queue = 0;
  std::uint64_t drops_fault = 0;
  std::uint64_t drops_random = 0;
  double link_busy_s = 0.0;   // downlink serialization time
  double link_avail_s = 0.0;  // downlinks x simulated time
  std::uint64_t reinjections = 0;
  std::uint64_t ooo_bytes = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t chunks = 0;
  std::uint64_t page_loads = 0;
  std::uint64_t objects = 0;
  std::uint64_t subflows_used = 0;  // subflows that sent at least one segment
  std::uint64_t subflows = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t churn_arrivals = 0;
  std::uint64_t peak_active_flows = 0;
  PickStats pick;

  void add(const Counts& o);
};

// ---- cells and passes ------------------------------------------------------

struct CellResult {
  std::uint64_t digest = 0;
  bool failed = false;
  std::string why;  // failure reason
  std::string label;
  double setup_s = 0.0;  // construction + start(), before the first event
  double host_s = 0.0;   // whole cell (a what-if branch: fork to collect)
  double sim_s = 0.0;    // simulated seconds advanced
  std::vector<double> slice_ms;
  std::vector<double> fork_ms;
  // whatif_fork: the shared prefix's simulated and host time, on branch 0.
  double prefix_sim_s = 0.0;
  double prefix_host_s = 0.0;
  bool hetero = false;        // paper_grid: bandwidth ratio >= 4
  std::string scheduler;
  bool branches_differ = false;  // whatif_fork group
  double host_factor = 1.0;      // HostSpeed scale of this cell's times
  Counts counts;                 // traced passes only
};

struct PassOptions {
  int jobs = 1;
  bool traced = false;
  // Restrict to these plan indices (empty = the whole plan).
  std::vector<std::size_t> subset;
  // Strip the workload's fault models (the engagement gate's negative test).
  bool strip_faults = false;
  // many_flows: shrink the world (tests and check slices).
  std::int64_t flows_override = 0;
  double duration_override_s = 0.0;
  // Run every cell under InvariantChecker.
  bool check_invariants = false;
  // Sample the host's speed through the pass (jobs=1 only; borrowed).
  HostSpeed* host_speed = nullptr;
};

struct PassResult {
  double wall_s = 0.0;  // raw host time, sampling between cells taken out
  // Scale from this pass's host times to the quiet host's (HostSpeed); 1
  // when the pass was not sampled.
  double host_factor = 1.0;
  std::vector<CellResult> cells;
  std::uint64_t digest = 0;  // over cell digests in plan order
  std::uint64_t invariant_violations = 0;
  std::string first_violation;
  // SweepRunner::telemetry() of the pass, seconds summed over workers.
  double sweep_busy_s = 0.0;
  double sweep_wait_s = 0.0;
  double sweep_idle_s = 0.0;
  std::vector<Span> spans;  // traced passes only
};

// The plan size of a workload: cells, or what-if groups of one branch per
// paper scheduler. The seed changes the inputs, never the plan size.
std::size_t plan_size(Workload w);

// Runs one pass of the workload. Cells run through SweepRunner with
// `opts.jobs` workers (many_flows is one world and runs inline).
PassResult run_pass(Workload w, std::uint64_t seed, const PassOptions& opts);

// Engagement gate: empty when the workload's target layer engaged in the
// traced pass, otherwise the reasons it did not.
std::vector<std::string> engagement_gate(Workload w, const PassResult& traced);

// The workload's own outputs, checked three ways: a plan subset at jobs=1
// and jobs=`jobs` must give the digests of the full pass `full`, and the
// library's one-shot entry points (run_scenario, run_whatif_grid) must
// agree with the staged cells. Returns the mismatches.
std::vector<std::string> reference_check(Workload w, std::uint64_t seed, int jobs,
                                         const PassResult& full);

// A slice of the workload under check/InvariantChecker; violations land in
// PassResult::invariant_violations.
PassResult invariant_slice(Workload w, std::uint64_t seed);

// Censored runs, detected from outside: a result the runner reports at its
// safety cap is a failure, never a number. Empty when the run completed.
std::string censored_stream(const mps::StreamingResult& r);
std::string censored_download(const mps::DownloadResult& r);
std::string censored_web(bool done, std::size_t objects);

// The lossy_web cell spec: WiFi at `wifi_rtt_ms` with burst loss and flaps
// (when `faults`), LTE with light iid loss, one 107-object page load.
mps::ScenarioSpec web_spec(double wifi_rtt_ms, const std::string& sched, std::uint64_t seed,
                           bool faults);

// ---- isolated layer probes -------------------------------------------------

// EventQueue churn (the bench_speed kernel shape): million pops per second.
double probe_kernel_mevents_per_s();
// Scheduler::pick on a fixed mid-transfer two-subflow connection: ns/pick.
double probe_pick_ns(const std::string& scheduler);
// Parse + validate (strict parse, world resolution) every scenarios/*.json
// under `dir`: mean microseconds per preset. Throws when a preset fails.
double probe_scenario_parse_us(const std::string& dir, std::size_t* presets = nullptr);

}  // namespace perfbench
