// mimic_bench: runs one MIMIC workload against BigDAWG and prints its
// metrics; the last line of stdout is the JSON result.
//
//   mimic_bench --workload browse_mix --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates one-second untraced and traced phases and reports the
// per-layer breakdown folded from the traced phases' span trees. The
// client loop is the same in both kinds of phase; only the tracer differs.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <numeric>

#include "bench.h"
#include "common/logging.h"
#include "core/stream_ageout.h"
#include "exec/query_analysis.h"
#include "obs/exposition.h"

namespace perfbench {
namespace {

// Set-up is repeated at least this many times and for at least this long,
// and the median time is kept; a set-up that takes a fraction of a second
// is then timed over several of the host's slow and fast stretches.
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 5;
// The feeder counts as fallen behind when an event goes out this late.
// Shorter stalls are charged to the events' lag, which is timed from each
// event's due time.
constexpr double kFeedLateLimitMs = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
      have[1] = true;
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value);
      have[2] = args->seconds > 0 && args->seconds <= 3600;
    } else if (key == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      have[3] = std::strcmp(value, "0") == 0 || args->trace;
    } else {
      return false;
    }
  }
  return argc == 9 && have[0] && have[1] && have[2] && have[3];
}

/// Nearest-rank quantile of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// What the clients saw in one or more phases.
struct Tally {
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> by_kind;  ///< latency per Op::kind
  std::vector<std::string> texts;  ///< every query text, when kept
  int64_t completed = 0;  ///< the service returned a result
  int64_t failed = 0;     ///< the service returned an error
  int64_t rejected = 0;   ///< Submit refused the query
  int64_t wrong = 0;      ///< a result the oracle rejected
  double seconds = 0;
  std::string first_error;

  int64_t ops() const { return completed + failed + rejected; }
  void Note(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }
  void Merge(const Tally& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    texts.insert(texts.end(), o.texts.begin(), o.texts.end());
    completed += o.completed;
    failed += o.failed;
    rejected += o.rejected;
    wrong += o.wrong;
    seconds += o.seconds;
    if (first_error.empty()) first_error = o.first_error;
    for (const auto& [kind, v] : o.by_kind) {
      by_kind[kind].insert(by_kind[kind].end(), v.begin(), v.end());
    }
  }
};

/// Closed-loop clients, each with its own session and generator.
class Clients {
 public:
  /// `keep_texts` records every query text, for the analysis pass.
  Clients(Fixture* fixture, Workload* workload, uint64_t seed, bool keep_texts)
      : fixture_(fixture), workload_(workload), keep_texts_(keep_texts) {
    for (int c = 0; c < workload->clients(); ++c) {
      sessions_.push_back(fixture->service->OpenSession());
      rngs_.emplace_back(seed * 1000003ULL + static_cast<uint64_t>(c) + 1);
    }
  }

  /// Runs one operation of `client` and records it.
  void RunOne(int client, Tally* t) {
    Op op = workload_->Next(client, &rngs_[static_cast<size_t>(client)]);
    if (keep_texts_) t->texts.push_back(op.text);
    const auto start = SteadyClock::now();
    exec::SubmitOptions opts;
    opts.session = sessions_[static_cast<size_t>(client)];
    bigdawg::Result<exec::QueryHandle> handle = fixture_->service->Submit(op.text, opts);
    if (!handle.ok()) {
      ++t->rejected;
      t->Note(op.text + ": " + handle.status().ToString());
      return;
    }
    bigdawg::Result<relational::Table> result = handle->Wait();
    const auto finish = SteadyClock::now();
    const double latency_ms = MsBetween(start, finish);
    t->latency_ms.push_back(latency_ms);
    t->by_kind[op.kind].push_back(latency_ms);
    if (!result.ok()) {
      ++t->failed;
      t->Note(op.text + ": " + result.status().ToString());
    } else {
      ++t->completed;
      const std::string why = op.check(*result);
      if (!why.empty()) {
        ++t->wrong;
        t->Note(op.text + ": " + why);
      }
    }
  }

  /// Runs every client for `seconds`, with the tracer on when `traced`.
  /// Meanwhile the calling thread runs `tick` about every millisecond.
  Tally Phase(double seconds, bool traced, const std::function<void()>& tick) {
    core::BigDawg& dawg = *fixture_->dawg;
    if (traced) dawg.tracer().Enable();
    std::vector<Tally> tallies(sessions_.size());
    const auto start = SteadyClock::now();
    const auto end = start + std::chrono::duration_cast<SteadyClock::duration>(
                                 std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < sessions_.size(); ++c) {
      threads.emplace_back([this, c, end, &tallies] {
        while (SteadyClock::now() < end) RunOne(static_cast<int>(c), &tallies[c]);
      });
    }
    while (SteadyClock::now() < end) {
      tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::thread& t : threads) t.join();
    Tally all;
    for (const Tally& t : tallies) all.Merge(t);
    all.seconds = MsBetween(start, SteadyClock::now()) / 1e3;
    if (traced) dawg.tracer().Disable();
    return all;
  }

  /// Warm-up: every client runs `n` operations, all clients at once.
  Tally Warm(int n) {
    std::vector<Tally> tallies(sessions_.size());
    std::vector<std::thread> threads;
    for (size_t c = 0; c < sessions_.size(); ++c) {
      threads.emplace_back([this, c, n, &tallies] {
        for (int i = 0; i < n; ++i) {
          RunOne(static_cast<int>(c), &tallies[c]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Tally all;
    for (const Tally& t : tallies) all.Merge(t);
    return all;
  }

 private:
  Fixture* fixture_;
  Workload* workload_;
  const bool keep_texts_;
  std::vector<int64_t> sessions_;
  std::vector<bigdawg::Rng> rngs_;
};

/// The service's own query counters, read the way a scrape reads them.
std::map<std::string, double> ScrapeQueryCounters(const exec::QueryService& service,
                                                  std::string* error) {
  std::map<std::string, double> out;
  bigdawg::Result<obs::Exposition> parsed = obs::ParseExposition(service.DumpMetrics());
  if (!parsed.ok()) {
    *error = "metrics exposition does not parse: " + parsed.status().ToString();
    return out;
  }
  const obs::ExpositionFamily* family = parsed->Find("bigdawg_queries_total");
  if (family == nullptr) {
    *error = "metrics exposition has no bigdawg_queries_total";
    return out;
  }
  for (const obs::ExpositionSeries& s : family->series) {
    if (const std::string* outcome = s.Label("outcome")) out[*outcome] = s.value;
  }
  return out;
}

/// Peak resident memory of the process so far, as the kernel counts it
/// (VmHWM in /proc/self/status), so no transient escapes a sampling grid.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// Bytes the allocator has handed out and not had back, heap and mmap.
double HeapMb() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd) / (1024.0 * 1024.0);
}

/// Mean microseconds `exec::AnalyzeQuery` and `BigDawg::PlanCasts` take
/// per query text. The service analyses every query in Submit, before its
/// trace starts, so the breakdown times the same call on the traced texts,
/// one at a time after the window. PlanCasts runs only for EXPLAIN.
std::pair<double, double> TimeAnalysis(core::BigDawg& dawg,
                                       const std::vector<std::string>& texts) {
  double analyze_us = 0, plan_us = 0;
  for (const std::string& text : texts) {
    const auto a = SteadyClock::now();
    (void)exec::AnalyzeQuery(dawg, text);
    const auto b = SteadyClock::now();
    (void)dawg.PlanCasts(text);
    const auto c = SteadyClock::now();
    analyze_us += MsBetween(a, b) * 1e3;
    plan_us += MsBetween(b, c) * 1e3;
  }
  const double n = static_cast<double>(std::max<size_t>(1, texts.size()));
  return {analyze_us / n, plan_us / n};
}

/// Allocated cells per stored row of the age-out history array.
double HistoryCellsPerRow(core::BigDawg& dawg) {
  bigdawg::Result<core::ObjectLocation> loc = dawg.catalog().Lookup(feed::kHistory);
  if (!loc.ok()) return 0;
  bigdawg::Result<bigdawg::array::Array> a = dawg.scidb().GetArray(loc->native_name);
  if (!a.ok() || a->NonEmptyCount() == 0) return 0;
  double volume = 1;
  for (const bigdawg::array::Dimension& d : a->dims()) {
    volume *= static_cast<double>(d.chunk_length);
  }
  return static_cast<double>(a->NumChunks()) * volume /
         static_cast<double>(a->NonEmptyCount());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Run(const Args& args) {
  bigdawg::SetLogLevel(bigdawg::LogLevel::kError);

  // Set-up: generate, load, start, prepare, warm up -- several times,
  // median kept.
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Clients> clients;
  std::vector<std::string> problems;
  const auto setup_start = SteadyClock::now();
  for (int rep = 0; rep < kSetupReps ||
                    MsBetween(setup_start, SteadyClock::now()) < kSetupSeconds * 1e3;
       ++rep) {
    clients.reset();
    fixture.reset();
    workload = MakeWorkload(args.workload);
    const auto t0 = SteadyClock::now();
    bigdawg::Result<std::unique_ptr<Fixture>> built =
        BuildFixture(args.seed);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    fixture = std::move(*built);
    const auto t1 = SteadyClock::now();
    workload->Bind(fixture.get());  // the oracle is not part of set-up
    const auto t2 = SteadyClock::now();
    const bigdawg::Status prepared = workload->Prepare(fixture.get());
    if (!prepared.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", prepared.ToString().c_str());
      return 1;
    }
    clients = std::make_unique<Clients>(fixture.get(), workload.get(), args.seed,
                                        args.trace);
    const Tally warm = clients->Warm(workload->warmup_ops());
    setup_s.push_back((MsBetween(t0, t1) + MsBetween(t2, SteadyClock::now())) / 1e3);
    if (warm.wrong + warm.failed + warm.rejected > 0) {
      problems.push_back("warm-up: " + warm.first_error);
    }
  }
  core::BigDawg& dawg = *fixture->dawg;
  VitalsFeed& vitals = *fixture->feed;
  core::StreamAgeOut& ageout = *dawg.stream_ageout();

  // Measure.
  std::string scrape_error;
  const std::map<std::string, double> before =
      ScrapeQueryCounters(*fixture->service, &scrape_error);
  const core::CastCacheStats cache_before = dawg.cast_cache().Stats();
  const core::StreamAgeOutStats ageout_before = ageout.GetStats();
  const stream::StreamEngineStats stream_before = dawg.sstore().GetStats();
  const int64_t processed_before = vitals.processed();
  const auto window_start = SteadyClock::now();

  vitals.Start(static_cast<int64_t>(feed::kRate * (args.seconds + 5)));
  LayerFold fold;
  Tally untraced, traced;
  double heap_peak_mb = 0;
  std::vector<obs::TraceSpan> drained;
  int ticks = 0;
  // The same tick runs in every phase. The tracer's ring keeps only 128
  // traces, slow and failed ones first, so it is drained every millisecond
  // (a no-op with the tracer off), off the client threads.
  auto tick = [&] {
    std::vector<obs::TraceSpan> finished = dawg.tracer().DrainFinished();
    drained.insert(drained.end(), std::make_move_iterator(finished.begin()),
                   std::make_move_iterator(finished.end()));
    if (++ticks % 5 == 0) {
      heap_peak_mb = std::max(heap_peak_mb, HeapMb());
      vitals.Sample();
    }
  };
  if (!args.trace) {
    untraced = clients->Phase(args.seconds, false, tick);
  } else {
    for (int i = 0; i < args.seconds; ++i) {
      const bool on = i % 2 == 1;
      Tally phase = clients->Phase(1, on, tick);
      if (on) {
        tick();  // what finished before Disable
        fold.Absorb(std::move(drained));
        drained.clear();
        traced.Merge(phase);
      } else {
        untraced.Merge(phase);
      }
    }
  }
  const FeedReport fr = vitals.Stop();
  const double rss_peak_mb = PeakRssMb();
  const double window_s = MsBetween(window_start, SteadyClock::now()) / 1e3;
  fixture->service->Drain();

  // Check what the run did against what the program says it did.
  Tally all = untraced;
  all.Merge(traced);
  const std::map<std::string, double> after =
      ScrapeQueryCounters(*fixture->service, &scrape_error);
  if (!scrape_error.empty()) problems.push_back(scrape_error);
  auto delta = [&](const char* outcome) {
    auto b = before.find(outcome), a = after.find(outcome);
    return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
  };
  if (delta("completed") != static_cast<double>(all.completed) ||
      delta("failed") != static_cast<double>(all.failed) ||
      delta("rejected") != static_cast<double>(all.rejected)) {
    problems.push_back("service counters disagree with the client counts");
  }
  if (all.wrong > 0 || all.failed > 0 || all.rejected > 0) {
    problems.push_back(all.first_error);
  }

  const int64_t processed = vitals.processed();
  if (fr.offered != fr.accepted ||
      processed - processed_before != fr.accepted) {
    problems.push_back("feed: " + std::to_string(fr.offered) + " offered, " +
                       std::to_string(fr.accepted) + " accepted, " +
                       std::to_string(processed - processed_before) + " committed");
  }
  const std::string alerts = vitals.CheckAlerts(processed);
  if (!alerts.empty()) problems.push_back(alerts);
  const stream::StreamEngineStats stream_after = dawg.sstore().GetStats();
  int64_t buffered = -1, appended = -1;
  for (const stream::StreamInfo& s : dawg.sstore().ListStreams()) {
    if (s.name == "hr") {
      buffered = static_cast<int64_t>(s.buffered);
      appended = s.total_appended;
    }
  }
  if (appended != processed || buffered + stream_after.aged_out != appended) {
    problems.push_back("stream: appended/buffered/evicted do not add up");
  }
  // Age-out is exactly-once: every evicted row is flushed or pending.
  const core::StreamAgeOutStats ageout_after = ageout.GetStats();
  if (ageout_after.flushed_rows + ageout_after.pending_rows != stream_after.aged_out ||
      ageout_after.flush_failures != 0) {
    problems.push_back("age-out: flushed + pending != evicted");
  }
  if (fr.late_ms_max > kFeedLateLimitMs) {
    problems.push_back("feeder fell behind its schedule: run invalid");
  }

  const bool correct = problems.empty();
  const int64_t attempted = all.ops() + fr.offered;
  const int64_t failed = all.failed + all.rejected + all.wrong + fr.backpressured +
                         (fr.offered - fr.accepted);

  std::printf("workload %s  seed %llu  seconds %d  trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("queries %lld (%lld untraced, %lld traced)  events %lld  verdict %s\n",
              static_cast<long long>(all.ops()), static_cast<long long>(untraced.ops()),
              static_cast<long long>(traced.ops()), static_cast<long long>(fr.offered),
              correct ? "correct" : "WRONG");
  for (const std::string& p : problems) std::printf("  problem: %s\n", p.c_str());
  for (const auto& [kind, v] : all.by_kind) {
    std::printf("  %-16s %8zu queries  p50 %9.4f ms  p99 %9.4f ms\n", kind.c_str(),
                v.size(), Quantile(v, 0.50), Quantile(v, 0.99));
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"query_qps", static_cast<double>(untraced.completed) / untraced.seconds, "1/s"},
        {"query_p50_ms", Quantile(untraced.latency_ms, 0.50), "ms"},
        {"query_p99_ms", Quantile(untraced.latency_ms, 0.99), "ms"},
        {"ingest_lag_p50_ms", Quantile(fr.lag_ms, 0.50), "ms"},
        {"ingest_lag_p99_ms", Quantile(fr.lag_ms, 0.99), "ms"},
        {"success_ratio",
         1.0 - static_cast<double>(failed) /
                   static_cast<double>(std::max<int64_t>(1, attempted)),
         "ratio"},
        {"rss_peak_mb", rss_peak_mb, "MB"},
    };
  } else {
    const double n = static_cast<double>(std::max<size_t>(1, traced.latency_ms.size()));
    const double mean_latency =
        std::accumulate(traced.latency_ms.begin(), traced.latency_ms.end(), 0.0) / n;
    const auto [analyze_us, plan_casts_us] = TimeAnalysis(dawg, traced.texts);
    const double analyze_ms = analyze_us / 1e3;
    const double handoff_ms = mean_latency - fold.MeanQueryMs() - analyze_ms;
    const double qps_u = static_cast<double>(untraced.ops()) / untraced.seconds;
    const double qps_t = static_cast<double>(traced.ops()) / traced.seconds;
    const core::CastCacheStats cache = dawg.cast_cache().Stats();
    const double hits = static_cast<double>(cache.hits - cache_before.hits);
    const double misses = static_cast<double>(cache.misses - cache_before.misses);
    const double batches =
        static_cast<double>(stream_after.batches - stream_before.batches);

    // The breakdown: the parts add up to the traced mean latency.
    std::printf("\nper-layer breakdown of the traced mean latency "
                "(%lld queries, %lld traces)\n",
                static_cast<long long>(traced.ops()),
                static_cast<long long>(fold.traces()));
    std::printf("  %-22s %10.4f ms\n", "exec.analyze", analyze_ms);
    double sum = analyze_ms;
    for (const std::string& layer : LayerFold::Layers()) {
      std::printf("  %-22s %10.4f ms\n", layer.c_str(), fold.MeanMs(layer));
      sum += fold.MeanMs(layer);
    }
    std::printf("  %-22s %10.4f ms  (residual)\n", "exec.queue_handoff_ms", handoff_ms);
    sum += handoff_ms;
    std::printf("  %-22s %10.4f ms  (traced mean latency %.4f ms)\n", "sum", sum,
                mean_latency);

    metrics = {{"traced.latency_mean_ms", mean_latency, "ms"},
               {"exec.analyze_us", analyze_us, "us"},
               {"exec.queue_handoff_ms", handoff_ms, "ms"}};
    for (const std::string& layer : LayerFold::Layers()) {
      metrics.push_back({layer, fold.MeanMs(layer), "ms"});
    }
    const std::vector<Metric> rest = {
        {"core.plan_casts_us", plan_casts_us, "us"},
        {"core.cast_bytes", fold.MeanCastBytes(), "bytes"},
        {"core.cast_cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
         "ratio"},
        {"core.cast_cache.misses", misses, "count"},
        {"core.cast_cache.coalesced_waits",
         static_cast<double>(cache.coalesced_waits - cache_before.coalesced_waits),
         "count"},
        {"core.cast_cache.evictions",
         static_cast<double>(cache.evictions - cache_before.evictions), "count"},
        {"core.ageout.flushes",
         static_cast<double>(ageout_after.flushes - ageout_before.flushes), "count"},
        {"core.ageout.rows_per_s",
         static_cast<double>(ageout_after.flushed_rows - ageout_before.flushed_rows) /
             window_s,
         "1/s"},
        {"core.ageout.pending_rows_max", static_cast<double>(fr.pending_rows_max),
         "count"},
        {"array.cells_per_row", HistoryCellsPerRow(dawg), "cells"},
        {"stream.rows_per_batch",
         batches > 0 ? static_cast<double>(processed - processed_before) / batches : 0,
         "rows"},
        {"stream.queue_depth_max", static_cast<double>(fr.queue_depth_max), "count"},
        {"stream.backpressured", static_cast<double>(fr.backpressured), "count"},
        {"stream.alerts", static_cast<double>(stream_after.alerts - stream_before.alerts),
         "count"},
        {"feed_late_ms_max", fr.late_ms_max, "ms"},
        {"heap_peak_mb", heap_peak_mb, "MB"},
        {"obs.trace_overhead_pct", qps_u > 0 ? (qps_u - qps_t) / qps_u * 100 : 0, "%"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
  }
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n",
              Json(correct, std::max<int64_t>(1, attempted), failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <browse_mix|ingest_monitor> "
                 "--seed <n> --seconds <n> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  if (perfbench::MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return perfbench::Run(args);
}
