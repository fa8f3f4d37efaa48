// The benchmark's own tests: span self time, the engagement gate, censored
// runs counted as failures, and tracing leaving outcomes untouched.
#include <gtest/gtest.h>

#include "exp/scenario_run.h"
#include "perfbench.h"
#include "scenario/spec.h"

namespace perfbench {
namespace {

TEST(Spans, SelfTimeAddsUpForOneCell) {
  PassOptions o;
  o.traced = true;
  o.subset = {7};
  const PassResult p = run_pass(Workload::kPaperGrid, 1, o);
  const std::vector<std::int64_t> self = self_times_ns(p.spans);
  std::size_t cells = 0;
  for (std::size_t i = 0; i < p.spans.size(); ++i) {
    const Span& s = p.spans[i];
    EXPECT_GE(self[i], 0) << s.name;
    if (s.name != "cell") continue;
    ++cells;
    std::int64_t children = 0;
    std::size_t kids = 0;
    for (const Span& k : p.spans) {
      if (k.parent == static_cast<std::int64_t>(i)) {
        EXPECT_EQ(k.cell, s.cell);
        children += k.end_ns - k.start_ns;
        ++kids;
      }
    }
    EXPECT_GE(kids, 3u);  // cell.setup, cell.run, cell.collect
    EXPECT_EQ(self[i] + children, s.end_ns - s.start_ns);
  }
  EXPECT_EQ(cells, 1u);
}

TEST(Spans, SelfTimeMeasuresTheUnionOfOverlappingChildren) {
  std::vector<Span> spans(3);
  spans[0] = {"workload", -1, -1, 0, 100, {}};
  spans[1] = {"cell", 0, 0, 10, 60, {}};
  spans[2] = {"cell", 0, 1, 40, 90, {}};  // overlaps: another worker
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 80);
  EXPECT_EQ(self[1], 50);
}

TEST(Gate, LossyWebFailsWithItsFaultsRemoved) {
  PassOptions o;
  o.traced = true;
  o.jobs = 2;
  for (std::size_t i = 0; i < plan_size(Workload::kLossyWeb); i += 16) o.subset.push_back(i);
  const PassResult faulted = run_pass(Workload::kLossyWeb, 1, o);
  EXPECT_TRUE(engagement_gate(Workload::kLossyWeb, faulted).empty());
  o.strip_faults = true;
  const PassResult clean = run_pass(Workload::kLossyWeb, 1, o);
  const auto fails = engagement_gate(Workload::kLossyWeb, clean);
  ASSERT_FALSE(fails.empty());
  EXPECT_NE(fails.front().find("fault drops in 0/"), std::string::npos) << fails.front();
}

TEST(Gate, ManyFlowsEngagesChurnCompletionsAndQueueDrops) {
  PassOptions o;
  o.traced = true;
  o.flows_override = 300;
  o.duration_override_s = 2.0;
  const PassResult p = run_pass(Workload::kManyFlows, 3, o);
  EXPECT_TRUE(engagement_gate(Workload::kManyFlows, p).empty());
}

TEST(Censoring, DownloadAtTheCapCountsAsFailed) {
  // ROADMAP's reproducer: the 512 KB wget cell over a 0.001 Mbps LTE path
  // stops at the 600 s cap with completion left at 0.
  mps::ScenarioSpec s;
  s.paths = {mps::wifi_path(1.0), mps::lte_path(0.001)};
  s.scheduler = "ecf";
  s.workload.kind = mps::WorkloadKind::kDownload;
  s.workload.bytes = 524288;
  s.seed = 100;
  EXPECT_FALSE(censored_download(mps::run_download(s)).empty());
  s.paths[1] = mps::lte_path(10.0);
  EXPECT_EQ(censored_download(mps::run_download(s)), "");
}

TEST(Censoring, StreamThatFetchesTooFewChunksCountsAsFailed) {
  mps::ScenarioSpec s;
  s.paths = {mps::wifi_path(0.001), mps::lte_path(0.001)};
  s.workload.kind = mps::WorkloadKind::kStream;
  s.workload.video_s = 180.0;
  EXPECT_NE(censored_stream(mps::run_streaming(s)).find("censored"), std::string::npos);
  EXPECT_NE(censored_web(false, 0), "");
  EXPECT_NE(censored_web(true, 106), "");
  EXPECT_EQ(censored_web(true, 107), "");
}

TEST(Censoring, PhaseLockedFlapStallsAPageAndCountsAsFailed) {
  // A 2 s flap period divides the doubling RTO backoff, so a stuck subflow
  // retransmits into the same down window until the 3600 s cap; the page
  // never finishes (the library reports its load time as 0).
  mps::ScenarioSpec s = web_spec(100.0, "default", 1002, true);
  s.paths[0].faults.flap.period_s = 2.0;
  mps::WebPageRun run(mps::web_params_from_spec(s), 0);
  run.start();
  mps::WebRunResult res;
  double page_load_sum = 0.0;
  run.finish(res, page_load_sum);
  EXPECT_EQ(page_load_sum, 0.0);
  EXPECT_EQ(censored_web(run.done(), res.object_times.count()),
            "censored: page never finished");
}

TEST(Tracing, LeavesEveryWorkloadsOutcomeUnchanged) {
  for (Workload w : {Workload::kPaperGrid, Workload::kLossyWeb, Workload::kWhatifFork,
                     Workload::kManyFlows}) {
    PassOptions o;
    o.subset = {1, 5};
    o.flows_override = 200;
    o.duration_override_s = 1.0;
    const std::uint64_t plain = run_pass(w, 2, o).digest;
    o.traced = true;
    EXPECT_EQ(run_pass(w, 2, o).digest, plain) << workload_name(w);
  }
}

TEST(HostSpeed, ScalesEveryCellAndLeavesOutcomesUnchanged) {
  HostSpeed speed;
  PassOptions o;
  o.subset = {1, 5, 40};
  const PassResult plain = run_pass(Workload::kPaperGrid, 2, o);
  o.host_speed = &speed;
  const PassResult sampled = run_pass(Workload::kPaperGrid, 2, o);
  EXPECT_EQ(sampled.digest, plain.digest);
  EXPECT_EQ(plain.host_factor, 1.0);
  EXPECT_GT(sampled.host_factor, 0.0);
  EXPECT_GE(speed.samples_s().size(), 2u);  // at the pass's start and end
  for (const CellResult& c : sampled.cells) EXPECT_GT(c.host_factor, 0.0);
  // Cells on several workers at once cannot be told apart from the samples.
  o.jobs = 2;
  EXPECT_THROW(run_pass(Workload::kPaperGrid, 2, o), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
