// Host speed sampling for timed passes: a fixed loop that shares no code
// with the simulator, timed between cells.
#include <algorithm>
#include <functional>
#include <numeric>
#include <random>

#include "perfbench.h"

namespace perfbench {

namespace {

// What one sample takes on a quiet host: about the loop's fastest time on a
// 4-vCPU Intel Xeon guest with 2 MB of L2 per core (it reads 5-11 ms there
// as the neighbours' load comes and goes). Timings are scaled to this speed;
// on another host the scale differs, one more reason results from different
// hosts are never compared.
constexpr double kNominalSampleS = 0.0050;
// A pass samples at its start and end, and between cells at most this often.
constexpr std::int64_t kSampleEveryNs = 200'000'000;
constexpr int kStepsPerSample = 20'000;

constexpr std::size_t kEvents = 16'384;     // 256 KB binary heap
constexpr std::size_t kNodes = 32'768;      // 2 MB of 64-byte nodes, one cycle
constexpr std::size_t kTable = 262'144;     // 2 MB table

struct Node {
  std::uint32_t next;
  std::uint32_t pad[15];
};

}  // namespace

// The loop's state lives as long as the sampler, so a sample times memory
// access, never allocation: a heap of pending (time, id) events, nodes
// chained in one random cycle (pointer chasing) and a table updated at
// hashed slots, the access pattern of an event-driven simulator.
struct HostSpeed::State {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
  std::vector<Node> nodes;
  std::vector<std::uint64_t> table;
  std::mt19937_64 rng{20170613};
  std::uint32_t at = 0;
  std::uint64_t sink = 0;

  State() : nodes(kNodes), table(kTable) {
    std::vector<std::uint32_t> order(kNodes);
    std::iota(order.begin(), order.end(), 0u);
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t i = 0; i < kNodes; ++i) nodes[order[i]].next = order[(i + 1) % kNodes];
    for (std::uint32_t i = 0; i < kEvents; ++i) heap.emplace_back(rng() % 1'000'000, i);
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
  }

  void run() {
    for (int k = 0; k < kStepsPerSample; ++k) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      auto& [t, id] = heap.back();
      at = nodes[at].next;
      std::uint64_t& slot = table[(t * 0x9E3779B97F4A7C15ull ^ at) % kTable];
      slot += t + id;
      sink += slot;
      t += 1 + rng() % 100'000;
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
  }
};

HostSpeed::HostSpeed() : s_(std::make_unique<State>()) { s_->run(); }
HostSpeed::~HostSpeed() = default;

double HostSpeed::run_s() {
  const std::int64_t t0 = host_ns();
  s_->run();
  last_ns_ = host_ns();
  return static_cast<double>(last_ns_ - t0) * 1e-9;
}

void HostSpeed::begin() {
  samples_.clear();
  spent_ns_ = 0;
  samples_.push_back(run_s());
}

bool HostSpeed::due() const { return host_ns() - last_ns_ >= kSampleEveryNs; }

void HostSpeed::sample() {
  const std::int64_t t0 = host_ns();
  samples_.push_back(run_s());
  spent_ns_ += last_ns_ - t0;
}

double HostSpeed::factor_after(std::size_t k) const {
  const std::size_t next = std::min(k + 1, samples_.size() - 1);
  return 2.0 * kNominalSampleS / (samples_[k] + samples_[next]);
}

double HostSpeed::end() {
  samples_.push_back(run_s());
  const double mean =
      std::accumulate(samples_.begin(), samples_.end(), 0.0) / static_cast<double>(samples_.size());
  return kNominalSampleS / mean;
}

}  // namespace perfbench
