// Shared declarations of the MIMIC polystore benchmark (see WORKLOADS.md).
//
// The benchmark drives BigDAWG from outside, the way the paper's
// interfaces do: MIMIC data comes from mimic::Generate and
// mimic::LoadIntoBigDawg, queries go through exec::QueryService, and vitals
// go through stream::StreamEngine::Ingest. Every result is checked against
// an answer computed from the generated MimicData.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/bigdawg.h"
#include "exec/query_service.h"
#include "mimic/mimic.h"
#include "obs/trace.h"
#include "relational/table.h"

namespace perfbench {

namespace core = bigdawg::core;
namespace exec = bigdawg::exec;
namespace mimic = bigdawg::mimic;
namespace obs = bigdawg::obs;
namespace relational = bigdawg::relational;
namespace stream = bigdawg::stream;

using SteadyClock = std::chrono::steady_clock;

inline double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One client operation: a query text and the oracle for its result.
struct Op {
  std::string kind;  ///< query class, for the per-class latency summary
  std::string text;
  /// Returns "" when the result is right, else what is wrong with it.
  std::function<std::string(const relational::Table&)> check;
};

// ---------------------------------------------------------------------------
// The live vitals feed (fixture.cc)
// ---------------------------------------------------------------------------

/// The `hr(patient_id, hr)` feed every workload runs beside its queries:
/// 5,000 events/s over 64 patients, aged out of S-Store into a rolling
/// `hr__history` archive on the array engine.
namespace feed {
/// Open-loop rate of the timed feed, events per second.
inline constexpr double kRate = 5000;
inline constexpr int64_t kPatients = 64;
/// Rows S-Store keeps in `hr` before retention evicts them.
inline constexpr int64_t kRetention = 2048;
/// Age-out batch size (StreamAgeOutConfig::flush_rows).
inline constexpr int64_t kFlushRows = 1024;
/// Rows the archive keeps (StreamAgeOutConfig::max_history_rows).
inline constexpr int64_t kHistoryRows = 16 * kFlushRows;
/// Events fed during set-up, as fast as backpressure allows: enough to
/// fill retention and then the archive up to its cap, so the measured
/// window sees a full, rolling history.
inline constexpr int64_t kWarmEvents = kRetention + kHistoryRows;
/// The archive's name on the array engine.
inline constexpr const char* kHistory = "hr__history";
}  // namespace feed

/// What the feed saw over the measured window.
struct FeedReport {
  int64_t offered = 0;        ///< events the feeder handed to Ingest
  int64_t accepted = 0;       ///< Ingest calls that returned OK
  int64_t backpressured = 0;  ///< Ingest calls refused with ResourceExhausted
  double late_ms_max = 0;     ///< how far the feeder ran behind its schedule
  std::vector<double> lag_ms; ///< due time -> per-tuple procedure, per event
  int64_t queue_depth_max = 0;     ///< sampled every 5 ms
  int64_t pending_rows_max = 0;    ///< sampled age-out backlog
};

/// The open-loop feeder plus the benchmark's per-tuple stored procedure.
/// Event `seq` is a pure function of (seed, seq), so the set of injected
/// out-of-range vitals is known without recording it.
class VitalsFeed {
 public:
  VitalsFeed(core::BigDawg* dawg, uint64_t seed);
  ~VitalsFeed();

  VitalsFeed(const VitalsFeed&) = delete;
  VitalsFeed& operator=(const VitalsFeed&) = delete;

  /// Declares `hr`, its window `hr_recent`, the `hr_reference` bounds
  /// table and the per-tuple procedure, and enables age-out. Call before
  /// sstore().Start().
  bigdawg::Status Define();
  /// Feeds the warm-up events and waits until they are processed.
  bigdawg::Status Warm();
  /// Feeds the next `n` events as fast as backpressure allows and waits
  /// until they are processed. Set-up only: call before Start().
  bigdawg::Status Feed(int64_t n);
  /// Starts the timed open-loop feeder thread; it stops after
  /// `max_events` or at Stop().
  void Start(int64_t max_events);
  /// Samples S-Store's queue depth and the age-out backlog (from the
  /// measuring thread, off the feeder's schedule).
  void Sample();
  /// Stops the feeder, waits until S-Store has processed every accepted
  /// event, and returns what the measured window saw.
  FeedReport Stop();

  /// Records the alert rows a STREAM(ALERTS) query drained.
  std::string AbsorbAlerts(const relational::Table& alerts);
  /// Drains the engine's remaining alerts and checks that every injected
  /// out-of-range vital produced exactly one alert. "" when it did.
  std::string CheckAlerts(int64_t total_events);

  int64_t processed() const { return processed_.load(std::memory_order_relaxed); }

 private:
  /// The value of event `seq`; `*anomaly` says whether it is out of range.
  bigdawg::Row EventAt(int64_t seq, bool* anomaly) const;
  void Run(int64_t max_events);
  void OnTuple(int64_t seq);

  core::BigDawg* dawg_;
  const uint64_t seed_;

  std::atomic<int64_t> processed_{0};  ///< per-tuple procedure runs
  /// Events fed before Start(); the timed feed's first event is this seq.
  std::atomic<int64_t> set_up_events_{0};
  std::atomic<bool> stop_{false};
  SteadyClock::time_point t0_{};
  /// Written by the procedure (S-Store's executor), read after Stop().
  std::vector<double> lag_ms_;
  FeedReport report_;  ///< feeder-thread counters, read after join
  int64_t queue_depth_max_ = 0;
  int64_t pending_rows_max_ = 0;

  std::mutex alerts_mu_;
  std::vector<int64_t> alert_seqs_;

  std::thread feeder_;
};

// ---------------------------------------------------------------------------
// The polystore under test (fixture.cc)
// ---------------------------------------------------------------------------

struct Fixture {
  mimic::MimicData data;
  std::unique_ptr<core::BigDawg> dawg;
  std::unique_ptr<VitalsFeed> feed;
  std::unique_ptr<exec::QueryService> service;

  ~Fixture();
};

/// Generates MIMIC, loads it, defines the feed and starts S-Store and the
/// query service with their defaults.
bigdawg::Result<std::unique_ptr<Fixture>> BuildFixture(uint64_t seed);

// ---------------------------------------------------------------------------
// Workloads (workloads.cc)
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  /// Operations each client runs, all clients at once, before measuring
  /// (after Bind), to fill caches.
  virtual int warmup_ops() const = 0;
  /// Computes the oracle answers from the fixture's generated data.
  virtual void Bind(Fixture* fixture) = 0;
  /// Brings the fixture into the state the whole window runs in; part of
  /// set-up, after Bind and before the warm-up operations.
  virtual bigdawg::Status Prepare(Fixture* /*fixture*/) { return bigdawg::Status::OK(); }
  /// The next operation of `client`; called only from that client's
  /// thread, with that client's generator.
  virtual Op Next(int client, bigdawg::Rng* rng) = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// ---------------------------------------------------------------------------
// Per-layer breakdown (layers.cc)
// ---------------------------------------------------------------------------

/// Self time per layer folded from drained span trees. A span's self time
/// is its duration minus its children's, so the parts of one trace add up
/// to its root `query` span exactly.
class LayerFold {
 public:
  /// The layer names, in table order.
  static const std::vector<std::string>& Layers();

  void Absorb(std::vector<obs::TraceSpan> traces);

  int64_t traces() const;
  /// Mean self ms per trace of `layer`.
  double MeanMs(const std::string& layer) const;
  /// Mean root `query` span duration per trace.
  double MeanQueryMs() const;
  /// Mean bytes moved by CAST per trace.
  double MeanCastBytes() const;

 private:
  void Fold(const obs::TraceSpan& span, const std::string& island);

  int64_t traces_ = 0;
  double query_ms_ = 0;
  double cast_bytes_ = 0;
  std::map<std::string, double> self_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
