// Isolated layer probes through public APIs. They are reported as per-layer
// metrics only: each times one layer with everything else held still.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exp/testbed.h"
#include "perfbench.h"
#include "scenario/spec.h"
#include "scenario/world.h"
#include "sched/registry.h"
#include "sim/event_queue.h"
#include "util/rng.h"

namespace perfbench {

using namespace mps;

namespace {

volatile std::uint64_t g_sink = 0;  // keeps probe results observable

constexpr int kProbeRepeats = 5;

}  // namespace

double probe_kernel_mevents_per_s() {
  // bench_speed's kernel cell shape: each pop fires, schedules a near-future
  // replacement (a link transmission) and restarts one far timer (the
  // per-ACK RTO pattern).
  constexpr std::size_t kLive = 1024;
  constexpr std::size_t kTimers = 256;
  constexpr std::uint64_t kPops = 400'000;
  std::vector<double> rates;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    EventQueue q;
    std::uint64_t sink = 0;
    std::uint64_t now_ns = 0;
    Rng rng(42);
    auto payload = [&sink, &now_ns] { sink += now_ns; };
    std::vector<EventId> timers(kTimers);
    for (std::size_t i = 0; i < kLive; ++i) {
      q.schedule(TimePoint::from_ns(static_cast<std::int64_t>(1 + rng.uniform_int(1'000'000))),
                 payload);
    }
    for (std::size_t i = 0; i < kTimers; ++i) {
      timers[i] = q.schedule(
          TimePoint::from_ns(static_cast<std::int64_t>(200'000'000 + rng.uniform_int(1'000'000))),
          payload);
    }
    const std::int64_t t0 = host_ns();
    for (std::uint64_t pops = 0; pops < kPops; ++pops) {
      auto fired = q.pop();
      now_ns = static_cast<std::uint64_t>(fired.when.ns());
      fired.fn();
      q.schedule(TimePoint::from_ns(
                     static_cast<std::int64_t>(now_ns + 50'000 + rng.uniform_int(950'000))),
                 payload);
      const std::size_t k = static_cast<std::size_t>(rng.uniform_int(kTimers));
      q.cancel(timers[k]);
      timers[k] =
          q.schedule(TimePoint::from_ns(static_cast<std::int64_t>(now_ns + 200'000'000)), payload);
    }
    const double secs = static_cast<double>(host_ns() - t0) * 1e-9;
    g_sink = g_sink + sink;
    rates.push_back(static_cast<double>(kPops) / secs * 1e-6);
  }
  return median(rates);
}

double probe_pick_ns(const std::string& scheduler) {
  // bench_micro_scheduler's rig: a connection frozen mid-transfer with RTT
  // estimates on both subflows and partly used windows.
  TestbedConfig tb;
  tb.wifi = wifi_profile(Rate::mbps(0.7));
  tb.lte = lte_profile(Rate::mbps(8.6));
  Testbed bed(tb);
  auto conn = bed.make_connection(scheduler_factory(scheduler));
  conn->send(6'000'000);
  bed.sim().run_until(TimePoint::origin() + Duration::seconds(2));
  constexpr int kPicks = 200'000;
  std::vector<double> ns;
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    std::uint64_t acc = 0;
    const std::int64_t t0 = host_ns();
    for (int i = 0; i < kPicks; ++i) {
      acc += reinterpret_cast<std::uintptr_t>(conn->scheduler().pick(*conn));
    }
    ns.push_back(static_cast<double>(host_ns() - t0) / kPicks);
    g_sink = g_sink + acc;
  }
  return median(ns);
}

double probe_scenario_parse_us(const std::string& dir, std::size_t* presets) {
  std::vector<std::string> texts;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".json") continue;
    std::ifstream in(e.path());
    std::stringstream ss;
    ss << in.rdbuf();
    texts.push_back(ss.str());
  }
  if (texts.empty()) throw std::runtime_error("no scenario presets under " + dir);
  if (presets != nullptr) *presets = texts.size();
  std::vector<double> per_preset_us;
  for (int rep = 0; rep < 4 * kProbeRepeats; ++rep) {
    const std::int64_t t0 = host_ns();
    for (const std::string& text : texts) {
      // Strict parse (key-path errors) plus resolution into world configs.
      const WorldBuilder builder(parse_scenario(text));
      g_sink = g_sink + builder.path_configs().size();
    }
    per_preset_us.push_back(static_cast<double>(host_ns() - t0) * 1e-3 /
                            static_cast<double>(texts.size()));
  }
  return median(per_preset_us);
}

}  // namespace perfbench
