#include "obs/profiler.h"

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace bigdawg::obs {
namespace {

/// A small span tree exercising every fold path: engine attribution,
/// coordination self time, cast volume, nested shims.
TraceSpan MakeTree(const std::string& island, const std::string& engine) {
  TraceSpan exec;
  exec.name = "exec";
  exec.duration_ms = 3.0;

  TraceSpan cast;
  cast.name = "cast";
  cast.duration_ms = 2.0;
  cast.tags = {{"rows", "10"}, {"bytes", "160"}};

  TraceSpan scope;
  scope.name = "scope";
  scope.duration_ms = 6.0;
  scope.tags = {{"engine", engine}};
  scope.children = {std::move(cast), std::move(exec)};

  TraceSpan locks;
  locks.name = "locks";
  locks.duration_ms = 1.0;

  TraceSpan attempt;
  attempt.name = "attempt";
  attempt.duration_ms = 8.0;
  attempt.children = {std::move(locks), std::move(scope)};

  TraceSpan root;
  root.name = "query";
  root.duration_ms = 10.0;
  root.tags = {{"island", island},
               {"status", "OK"},
               {"attempts", "2"},
               {"failovers", "1"}};
  root.children = {std::move(attempt)};
  return root;
}

/// 8 ingest threads racing over 2 classes x 2 engines while readers
/// hammer every const surface (Render, RenderCosts, Snapshot, shares,
/// ExportMetrics). Run under TSan via scripts/check.sh; the arithmetic
/// assertions below prove no ingest was lost or double-counted.
TEST(ProfilerStormTest, ConcurrentIngestLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  Profiler profiler;

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&profiler, t] {
      const std::string island = t % 2 == 0 ? "ARRAY" : "RELATIONAL";
      const std::string engine = t % 4 < 2 ? "scidb" : "postgres";
      const TraceSpan tree = MakeTree(island, engine);
      for (int i = 0; i < kPerThread; ++i) {
        profiler.Ingest(tree);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&profiler] {
      MetricsRegistry scratch;
      for (int i = 0; i < 50; ++i) {
        (void)profiler.Render();
        (void)profiler.RenderCosts();
        (void)profiler.Snapshot("ARRAY");
        (void)profiler.ExecSelfShare("RELATIONAL");
        (void)profiler.CoordinationShare("ARRAY");
        (void)profiler.Sample();
        profiler.ExportMetrics(&scratch);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  constexpr int64_t kTotal = int64_t{kThreads} * kPerThread;
  EXPECT_EQ(profiler.ingested(), kTotal);
  ASSERT_EQ(profiler.Classes(),
            (std::vector<std::string>{"ARRAY", "RELATIONAL"}));
  for (const char* island : {"ARRAY", "RELATIONAL"}) {
    const ClassProfile profile = profiler.Snapshot(island);
    EXPECT_EQ(profile.queries, kTotal / 2);
    EXPECT_EQ(profile.retries, kTotal / 2);       // attempts=2 -> 1 retry
    EXPECT_EQ(profile.failovers, kTotal / 2);
    EXPECT_DOUBLE_EQ(profile.total_ms, 10.0 * kTotal / 2);
    EXPECT_EQ(profile.root.count, kTotal / 2);
    const ProfileNode& attempt = profile.root.children.at("attempt");
    EXPECT_EQ(attempt.count, kTotal / 2);
    EXPECT_EQ(attempt.children.at("locks").count, kTotal / 2);
    const ProfileNode& scope = attempt.children.at("scope");
    EXPECT_EQ(scope.children.at("cast").count, kTotal / 2);
    EXPECT_EQ(scope.children.at("exec").count, kTotal / 2);
    // Each class's ingests split evenly across the two engines.
    int64_t cast_rows = 0;
    double exec_self = 0;
    for (const auto& [engine, cost] : profile.engines) {
      cast_rows += cost.cast_rows;
      exec_self += cost.exec_self_ms;
    }
    EXPECT_EQ(cast_rows, 10 * kTotal / 2);
    EXPECT_DOUBLE_EQ(exec_self, 3.0 * kTotal / 2);
  }
}

}  // namespace
}  // namespace bigdawg::obs
