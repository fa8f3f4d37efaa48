// Benchmark-side tracing: host clock, spans and their self time, the
// scheduler timing decorator, and the small statistics the report uses.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "perfbench.h"
#include "scenario/json.h"

namespace perfbench {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPaperGrid: return "paper_grid";
    case Workload::kManyFlows: return "many_flows";
    case Workload::kLossyWeb: return "lossy_web";
    case Workload::kWhatifFork: return "whatif_fork";
  }
  return "?";
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kPaperGrid, Workload::kManyFlows, Workload::kLossyWeb,
                     Workload::kWhatifFork}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Digest::add(std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
}

void Digest::add(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  add(bits);
}

// ---- spans -----------------------------------------------------------------

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (p.end_ns - p.start_ns) - covered;
  }
  return out;
}

std::int64_t SpanLog::open(const std::string& name, std::int64_t parent, std::int64_t cell) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.cell = cell;
  s.start_ns = host_ns();
  s.end_ns = s.start_ns;
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t id) { at(id).end_ns = host_ns(); }

void SpanLog::append(const SpanLog& other, std::int64_t parent) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span s : other.spans_) {
    s.parent = s.parent < 0 ? parent : s.parent + base;
    spans_.push_back(std::move(s));
  }
}

std::string spans_to_json(const std::vector<Span>& spans) {
  using mps::Json;
  const std::vector<std::int64_t> self = self_times_ns(spans);
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  Json arr = Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Json j = Json::object();
    j.set("id", Json::number(static_cast<std::int64_t>(i)));
    j.set("parent", Json::number(s.parent));
    j.set("cell", Json::number(s.cell));
    j.set("name", Json::string(s.name));
    j.set("start_ns", Json::number(s.start_ns - t0));
    j.set("dur_ns", Json::number(s.end_ns - s.start_ns));
    j.set("self_ns", Json::number(self[i]));
    if (!s.attrs.empty()) {
      Json a = Json::object();
      for (const auto& [k, v] : s.attrs) a.set(k, Json::number(v));
      j.set("attrs", a);
    }
    arr.push_back(j);
  }
  return arr.dump(1);
}

// ---- scheduler timing decorator -------------------------------------------

namespace {

class TimedScheduler final : public mps::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<mps::Scheduler> inner, PickStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  mps::Subflow* pick(mps::Connection& conn) override {
    const std::int64_t t0 = host_ns();
    mps::Subflow* s = inner_->pick(conn);
    stats_->ns += host_ns() - t0;
    ++stats_->calls;
    if (s == nullptr) ++stats_->waits;
    return s;
  }
  const char* name() const override { return inner_->name(); }
  bool duplicate_to_all() const override { return inner_->duplicate_to_all(); }
  void reset() override { inner_->reset(); }
  void on_subflow_change(mps::Connection& conn) override { inner_->on_subflow_change(conn); }
  void restore_from(const mps::Scheduler& src) override {
    mps::Scheduler::restore_from(src);
    inner_->restore_from(*static_cast<const TimedScheduler&>(src).inner_);
  }

 private:
  std::unique_ptr<mps::Scheduler> inner_;
  PickStats* stats_;
};

}  // namespace

mps::SchedulerFactory timed_factory(mps::SchedulerFactory inner, PickStats* stats) {
  return [inner = std::move(inner), stats] {
    return std::make_unique<TimedScheduler>(inner(), stats);
  };
}

void Counts::add(const Counts& o) {
  events += o.events;
  sim_s += o.sim_s;
  segments_sent += o.segments_sent;
  retransmits += o.retransmits;
  rtos += o.rtos;
  fast_recoveries += o.fast_recoveries;
  idle_resets += o.idle_resets;
  drops_queue += o.drops_queue;
  drops_fault += o.drops_fault;
  drops_random += o.drops_random;
  link_busy_s += o.link_busy_s;
  link_avail_s += o.link_avail_s;
  reinjections += o.reinjections;
  ooo_bytes += o.ooo_bytes;
  window_stalls += o.window_stalls;
  chunks += o.chunks;
  page_loads += o.page_loads;
  objects += o.objects;
  subflows_used += o.subflows_used;
  subflows += o.subflows;
  flows_started += o.flows_started;
  flows_completed += o.flows_completed;
  churn_arrivals += o.churn_arrivals;
  peak_active_flows = std::max(peak_active_flows, o.peak_active_flows);
  pick.calls += o.pick.calls;
  pick.waits += o.pick.waits;
  pick.ns += o.pick.ns;
}

}  // namespace perfbench
