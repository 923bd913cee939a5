// The polystore under test and the live vitals feed beside it.

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "bench.h"
#include "common/macros.h"
#include "core/stream_ageout.h"

namespace perfbench {

namespace {

using bigdawg::DataType;
using bigdawg::Field;
using bigdawg::Row;
using bigdawg::Schema;
using bigdawg::Status;
using bigdawg::Value;

// Dataset size: 500 patients x 4 s x 64 Hz = 128k waveform cells.
constexpr int64_t kPatients = 500;
constexpr int64_t kWaveSeconds = 4;
constexpr int64_t kWaveHz = 64;

// Reference bounds every patient's vitals are checked against; normal
// events fall well inside, injected ones well outside.
constexpr double kRefLow = 40;
constexpr double kRefHigh = 150;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

VitalsFeed::VitalsFeed(core::BigDawg* dawg, uint64_t seed)
    : dawg_(dawg), seed_(seed) {}

VitalsFeed::~VitalsFeed() {
  stop_.store(true);
  if (feeder_.joinable()) feeder_.join();
}

Row VitalsFeed::EventAt(int64_t seq, bool* anomaly) const {
  const uint64_t h = Mix(seed_ ^ Mix(static_cast<uint64_t>(seq)));
  const double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  *anomaly = (h & 255) == 0;  // one event in 256 is out of range
  double hr;
  if (!*anomaly) {
    hr = 55 + 55 * u;
  } else if ((h >> 8) & 1) {
    hr = 175 + 20 * u;  // tachycardia
  } else {
    hr = 20 + 10 * u;  // bradycardia
  }
  return {Value(seq % feed::kPatients), Value(hr)};
}

Status VitalsFeed::Define() {
  stream::StreamEngine& sstore = dawg_->sstore();
  stream::StreamOptions options;
  options.retention = feed::kRetention;
  BIGDAWG_RETURN_NOT_OK(sstore.CreateStream(
      "hr",
      Schema({Field("patient_id", DataType::kInt64), Field("hr", DataType::kDouble)}),
      options));
  BIGDAWG_RETURN_NOT_OK(sstore.CreateWindow("hr_recent", "hr", /*size=*/256,
                                            /*slide=*/64));
  BIGDAWG_RETURN_NOT_OK(sstore.CreateTable(
      "hr_reference", Schema({Field("patient_id", DataType::kInt64),
                              Field("low", DataType::kDouble),
                              Field("high", DataType::kDouble)})));
  BIGDAWG_RETURN_NOT_OK(sstore.RegisterProcedure(
      "hr_reference_load", [](stream::ProcContext* ctx) {
        for (int64_t p = 0; p < feed::kPatients; ++p) {
          BIGDAWG_RETURN_NOT_OK(ctx->Put(
              "hr_reference", {Value(p), Value(kRefLow), Value(kRefHigh)}));
        }
        return Status::OK();
      }));
  BIGDAWG_RETURN_NOT_OK(sstore.ExecuteProcedure("hr_reference_load", {}));
  // The benchmark's per-tuple procedure: stamps the event's lag and raises
  // one threshold alert per out-of-range vital.
  BIGDAWG_RETURN_NOT_OK(sstore.RegisterProcedure(
      "hr_check", [this](stream::ProcContext* ctx) -> Status {
        const Row& in = ctx->input();
        const int64_t seq = processed_.fetch_add(1, std::memory_order_relaxed);
        OnTuple(seq);
        BIGDAWG_ASSIGN_OR_RETURN(Row ref, ctx->Get("hr_reference", in[0]));
        const double hr = in[1].double_unchecked();
        if (hr < ref[1].double_unchecked() || hr > ref[2].double_unchecked()) {
          ctx->EmitAlert({in[0], Value(seq), Value(hr)});
        }
        return Status::OK();
      }));
  BIGDAWG_RETURN_NOT_OK(sstore.BindStreamTrigger("hr", "hr_check"));
  core::StreamAgeOutConfig ageout;
  ageout.flush_rows = feed::kFlushRows;
  ageout.max_history_rows = feed::kHistoryRows;
  return dawg_->EnableStreamAgeOut(ageout);
}

Status VitalsFeed::Warm() {
  BIGDAWG_RETURN_NOT_OK(Feed(feed::kWarmEvents));
  if (!dawg_->catalog().Contains(feed::kHistory)) {
    return Status::Internal("warm-up feed did not age out a first flush");
  }
  return Status::OK();
}

Status VitalsFeed::Feed(int64_t n) {
  const int64_t first = set_up_events_.load();
  for (int64_t seq = first; seq < first + n; ++seq) {
    bool anomaly = false;
    Row row = EventAt(seq, &anomaly);
    for (;;) {
      Status st = dawg_->sstore().Ingest("hr", row);
      if (st.ok()) break;
      if (!st.IsResourceExhausted()) return st;
      std::this_thread::yield();
    }
  }
  set_up_events_.store(first + n);
  dawg_->sstore().WaitForDrain();
  return Status::OK();
}

void VitalsFeed::OnTuple(int64_t seq) {
  const int64_t i = seq - set_up_events_.load(std::memory_order_relaxed);
  if (i < 0 || i >= static_cast<int64_t>(lag_ms_.size())) return;
  const auto due = t0_ + std::chrono::duration_cast<SteadyClock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(i) / feed::kRate));
  lag_ms_[static_cast<size_t>(i)] = MsBetween(due, SteadyClock::now());
}

void VitalsFeed::Start(int64_t max_events) {
  lag_ms_.assign(static_cast<size_t>(max_events), std::nan(""));
  report_ = FeedReport{};
  stop_.store(false);
  t0_ = SteadyClock::now();
  feeder_ = std::thread([this, max_events] { Run(max_events); });
}

void VitalsFeed::Run(int64_t max_events) {
  const double period_s = 1.0 / feed::kRate;
  auto due_at = [this, period_s](int64_t i) {
    return t0_ + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) * period_s));
  };
  const int64_t first = set_up_events_.load();
  int64_t sent = 0;
  while (sent < max_events && !stop_.load(std::memory_order_relaxed)) {
    const double elapsed_s =
        std::chrono::duration<double>(SteadyClock::now() - t0_).count();
    const int64_t due =
        std::min(max_events, static_cast<int64_t>(elapsed_s / period_s) + 1);
    for (; sent < due; ++sent) {
      bool anomaly = false;
      Row row = EventAt(first + sent, &anomaly);
      report_.late_ms_max =
          std::max(report_.late_ms_max, MsBetween(due_at(sent), SteadyClock::now()));
      ++report_.offered;
      for (;;) {
        Status st = dawg_->sstore().Ingest("hr", row);
        if (st.ok()) {
          ++report_.accepted;
          break;
        }
        if (!st.IsResourceExhausted()) break;  // lost: offered != accepted
        ++report_.backpressured;
        std::this_thread::yield();
      }
    }
    std::this_thread::sleep_until(due_at(sent));
  }
}

void VitalsFeed::Sample() {
  queue_depth_max_ = std::max(
      queue_depth_max_,
      static_cast<int64_t>(dawg_->sstore().GetStats().queue_depth));
  pending_rows_max_ = std::max(pending_rows_max_,
                                     dawg_->stream_ageout()->GetStats().pending_rows);
}

FeedReport VitalsFeed::Stop() {
  stop_.store(true);
  if (feeder_.joinable()) feeder_.join();
  dawg_->sstore().WaitForDrain();
  FeedReport report = report_;
  report.queue_depth_max = queue_depth_max_;
  report.pending_rows_max = pending_rows_max_;
  report.lag_ms.assign(lag_ms_.begin(),
                       lag_ms_.begin() + std::min<int64_t>(
                                             report.accepted,
                                             static_cast<int64_t>(lag_ms_.size())));
  return report;
}

std::string VitalsFeed::AbsorbAlerts(const relational::Table& alerts) {
  std::vector<int64_t> seqs;
  for (const Row& row : alerts.rows()) {
    // STREAM(ALERTS) renders the alert row (patient_id, seq, hr) as strings.
    if (row.size() != 3 || row[1].type() != DataType::kString) {
      return "malformed alert row";
    }
    const int64_t seq = std::strtoll(row[1].string_unchecked().c_str(), nullptr, 10);
    if (row[0].string_unchecked() != std::to_string(seq % feed::kPatients)) {
      return "alert for seq " + std::to_string(seq) + " names the wrong patient";
    }
    seqs.push_back(seq);
  }
  std::lock_guard lock(alerts_mu_);
  alert_seqs_.insert(alert_seqs_.end(), seqs.begin(), seqs.end());
  return "";
}

std::string VitalsFeed::CheckAlerts(int64_t total_events) {
  std::vector<int64_t> seen;
  {
    std::lock_guard lock(alerts_mu_);
    for (const Row& row : dawg_->sstore().TakeAlerts()) {
      alert_seqs_.push_back(row[1].int64_unchecked());
    }
    seen = alert_seqs_;
  }
  std::sort(seen.begin(), seen.end());
  std::vector<int64_t> expected;
  for (int64_t seq = 0; seq < total_events; ++seq) {
    bool anomaly = false;
    (void)EventAt(seq, &anomaly);
    if (anomaly) expected.push_back(seq);
  }
  if (seen == expected) return "";
  return "alerts: " + std::to_string(seen.size()) + " raised for " +
         std::to_string(expected.size()) + " out-of-range vitals";
}

Fixture::~Fixture() {
  service.reset();  // drains in-flight queries
  if (feed != nullptr) (void)feed->Stop();
  if (dawg != nullptr) dawg->sstore().Stop();
  feed.reset();  // the stopped engine no longer calls its procedure
  dawg.reset();
}

bigdawg::Result<std::unique_ptr<Fixture>> BuildFixture(uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  mimic::MimicConfig config;
  config.num_patients = kPatients;
  config.waveform_seconds = kWaveSeconds;
  config.waveform_hz = kWaveHz;
  config.seed = seed;
  BIGDAWG_ASSIGN_OR_RETURN(f->data, mimic::Generate(config));
  f->dawg = std::make_unique<core::BigDawg>();
  BIGDAWG_RETURN_NOT_OK(mimic::LoadIntoBigDawg(f->data, f->dawg.get()));
  f->feed = std::make_unique<VitalsFeed>(f->dawg.get(), seed);
  BIGDAWG_RETURN_NOT_OK(f->feed->Define());
  f->dawg->sstore().Start();
  // QueryService defaults: 4 workers, profiler on, adaptive placement off.
  f->service = std::make_unique<exec::QueryService>(f->dawg.get());
  BIGDAWG_RETURN_NOT_OK(f->feed->Warm());
  return f;
}

}  // namespace perfbench
