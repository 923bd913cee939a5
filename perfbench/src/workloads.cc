// The MIMIC workloads and the oracles their results are checked
// against. Every expected answer is computed from the generated MimicData
// (or the feed's event function), never read back from an engine.

#include <algorithm>
#include <cmath>
#include <set>

#include "bench.h"
#include "common/macros.h"

namespace perfbench {

namespace {

using bigdawg::Row;
using bigdawg::Rng;
using bigdawg::Value;

int ColumnIndex(const relational::Table& t, const std::string& name) {
  bigdawg::Result<size_t> idx = t.schema().IndexOf(name);
  return idx.ok() ? static_cast<int>(*idx) : -1;
}

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

double Num(const Value& v) {
  bigdawg::Result<double> d = v.ToNumeric();
  return d.ok() ? *d : std::nan("");
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// Count and sum of one GROUP BY group.
struct Group {
  int64_t n = 0;
  double sum = 0;
};
using Groups = std::map<std::string, Group>;

/// Checks a GROUP BY result against the oracle groups: every group present
/// once with its count (and average, when `avg_col` is given).
std::string CheckGroups(const relational::Table& t, const std::string& key_col,
                        const std::string& n_col, const std::string& avg_col,
                        const Groups& want) {
  const int k = ColumnIndex(t, key_col), n = ColumnIndex(t, n_col);
  const int a = avg_col.empty() ? -1 : ColumnIndex(t, avg_col);
  if (k < 0 || n < 0 || (!avg_col.empty() && a < 0)) return "missing column";
  if (t.num_rows() != want.size()) {
    return std::to_string(t.num_rows()) + " groups, want " +
           std::to_string(want.size());
  }
  std::set<std::string> seen;
  for (const Row& row : t.rows()) {
    const std::string key = row[static_cast<size_t>(k)].ToString();
    auto it = want.find(key);
    if (it == want.end() || !seen.insert(key).second) return "bad group " + key;
    if (Num(row[static_cast<size_t>(n)]) != static_cast<double>(it->second.n)) {
      return "group " + key + " count is wrong";
    }
    if (a >= 0 && !Near(Num(row[static_cast<size_t>(a)]),
                        it->second.sum / static_cast<double>(it->second.n))) {
      return "group " + key + " average is wrong";
    }
  }
  return "";
}

/// A one-row, one-column numeric answer.
std::string CheckScalar(const relational::Table& t, const std::string& col,
                        double want) {
  const int c = ColumnIndex(t, col);
  if (c < 0 || t.num_rows() != 1) return "want one row with " + col;
  const double got = Num(t.rows()[0][static_cast<size_t>(c)]);
  if (got != want) return col + " = " + Fmt(got) + ", want " + Fmt(want);
  return "";
}

/// The dense waveform matrix, patient-major, from the generated array.
struct Waveforms {
  int64_t patients = 0;
  int64_t samples = 0;
  std::vector<double> mv;

  explicit Waveforms(const mimic::MimicData& data) {
    patients = data.waveforms.dims()[0].length;
    samples = data.waveforms.dims()[1].length;
    mv.assign(static_cast<size_t>(patients * samples), std::nan(""));
    data.waveforms.Scan([this](const bigdawg::array::Coordinates& c,
                               const std::vector<double>& v) {
      mv[static_cast<size_t>(c[0] * samples + c[1])] = v[0];
      return true;
    });
  }
  double At(int64_t p, int64_t t) const {
    return mv[static_cast<size_t>(p * samples + t)];
  }
};

// The text layer's tokenizer rule: maximal runs of alphanumerics,
// lower-cased.
std::vector<std::string> Terms(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

// ---------------------------------------------------------------------------
// browse_mix: short interactive queries, no CAST.
// ---------------------------------------------------------------------------

class BrowseMix final : public Workload {
 public:
  int clients() const override { return 4; }
  int warmup_ops() const override { return 100; }

  void Bind(Fixture* f) override {
    const mimic::MimicData& d = f->data;
    for (const Row& r : d.patients.rows()) {
      names_.push_back(r[1].string_unchecked());
      ages_.push_back(r[2].int64_unchecked());
      ++patients_by_race_[r[4].string_unchecked()].n;
    }
    for (const Row& r : d.admissions.rows()) {
      const std::string& diagnosis = r[2].string_unchecked();
      const std::string& race = r[5].string_unchecked();
      const double stay = r[4].double_unchecked();
      ++admissions_by_race_[race].n;
      Group& g = stay_by_diagnosis_[diagnosis];
      ++g.n;
      g.sum += stay;
      if (diagnosis == "sepsis") {
        Group& s = sepsis_stay_by_race_[race];
        ++s.n;
        s.sum += stay;
      }
    }
    wave_ = std::make_unique<Waveforms>(d);
    for (const mimic::Note& note : d.notes) {
      std::map<std::string, int64_t> tf;
      for (const std::string& term : Terms(note.text)) ++tf[term];
      for (const auto& [term, n] : tf) {
        ++docs_with_[term];
        term_tf_[term] += static_cast<double>(n);
      }
    }
  }

  Op Next(int /*client*/, Rng* rng) override {
    const uint64_t r = rng->NextBelow(100);
    if (r < 40) return PointLookup(rng);
    if (r < 55) return GroupBy(rng);
    if (r < 80) return Tile(rng);
    if (r < 92) return Search(rng);
    if (r < 97) return Myria();
    return RowSum();
  }

 private:
  Op PointLookup(Rng* rng) {
    const int64_t k = rng->NextInt(0, static_cast<int64_t>(names_.size()) - 1);
    const std::string name = names_[static_cast<size_t>(k)];
    const int64_t age = ages_[static_cast<size_t>(k)];
    return {"point_lookup",
            "RELATIONAL(SELECT name, age FROM patients WHERE patient_id = " +
                std::to_string(k) + ")",
            [name, age](const relational::Table& t) -> std::string {
              if (t.num_rows() != 1 || t.schema().num_fields() != 2) {
                return "point lookup: want one (name, age) row";
              }
              const Row& row = t.rows()[0];
              if (row[0].ToString() != name || Num(row[1]) != static_cast<double>(age)) {
                return "point lookup: wrong row";
              }
              return "";
            }};
  }

  // SeeDB-style exploration: the reference view and the sepsis target
  // view of stay length by race, and the diagnosis mix.
  Op GroupBy(Rng* rng) {
    switch (rng->NextBelow(3)) {
      case 0:
        return {"group_by",
                "RELATIONAL(SELECT race, COUNT(*) AS n FROM admissions GROUP BY race)",
                [this](const relational::Table& t) {
                  return CheckGroups(t, "race", "n", "", admissions_by_race_);
                }};
      case 1:
        return {"group_by",
                "RELATIONAL(SELECT diagnosis, COUNT(*) AS n, AVG(stay_days) AS "
                "avg_stay FROM admissions GROUP BY diagnosis)",
                [this](const relational::Table& t) {
                  return CheckGroups(t, "diagnosis", "n", "avg_stay",
                                     stay_by_diagnosis_);
                }};
      default:
        return {"group_by",
                "RELATIONAL(SELECT race, COUNT(*) AS n, AVG(stay_days) AS "
                "avg_stay FROM admissions WHERE diagnosis = 'sepsis' GROUP BY race)",
                [this](const relational::Table& t) {
                  return CheckGroups(t, "race", "n", "avg_stay",
                                     sepsis_stay_by_race_);
                }};
    }
  }

  // A 4-patient x 64-sample tile at a random pan position.
  Op Tile(Rng* rng) {
    constexpr int64_t kRows = 4, kCols = 64;
    const int64_t p0 = rng->NextInt(0, wave_->patients - kRows);
    const int64_t t0 = rng->NextInt(0, wave_->samples - kCols);
    const int64_t p1 = p0 + kRows - 1, t1 = t0 + kCols - 1;
    return {"tile", "ARRAY(subarray(waveforms, " + std::to_string(p0) + ", " +
                std::to_string(t0) + ", " + std::to_string(p1) + ", " +
                std::to_string(t1) + "))",
            [this, p0, t0, p1, t1](const relational::Table& t) -> std::string {
              if (t.num_rows() != static_cast<size_t>(kRows * kCols) ||
                  t.schema().num_fields() != 3) {
                return "tile: " + std::to_string(t.num_rows()) + " cells, want " +
                       std::to_string(kRows * kCols);
              }
              for (const Row& row : t.rows()) {
                const int64_t p = row[0].int64_unchecked();
                const int64_t s = row[1].int64_unchecked();
                if (p < p0 || p > p1 || s < t0 || s > t1 ||
                    row[2].double_unchecked() != wave_->At(p, s)) {
                  return "tile: wrong cell";
                }
              }
              return "";
            }};
  }

  Op Search(Rng* rng) {
    static const char* kTerms[] = {"sick",     "heparin", "rhythm",
                                   "family",   "stable",  "critical",
                                   "recovering", "insulin"};
    const std::string term = kTerms[rng->NextBelow(8)];
    const int64_t docs = docs_with_.count(term) ? docs_with_.at(term) : 0;
    const double tf = term_tf_.count(term) ? term_tf_.at(term) : 0;
    return {"text_search", "TEXT(SEARCH " + term + ")",
            [docs, tf](const relational::Table& t) -> std::string {
              const int score = ColumnIndex(t, "score");
              if (static_cast<int64_t>(t.num_rows()) != docs || score < 0) {
                return "search: " + std::to_string(t.num_rows()) + " docs, want " +
                       std::to_string(docs);
              }
              double sum = 0;
              for (const Row& row : t.rows()) sum += Num(row[static_cast<size_t>(score)]);
              return sum == tf ? "" : "search: wrong scores";
            }};
  }

  Op Myria() {
    return {"myria_group_by",
            "MYRIA(SELECT race, COUNT(*) AS n FROM patients GROUP BY race)",
            [this](const relational::Table& t) {
              return CheckGroups(t, "race", "n", "", patients_by_race_);
            }};
  }

  // D4M over the notes' term x document incidence: per-term tf totals.
  Op RowSum() {
    return {"d4m_rowsum", "D4M(ROWSUM notes)",
            [this](const relational::Table& t) -> std::string {
              if (t.num_rows() != term_tf_.size()) return "rowsum: wrong term count";
              for (const Row& row : t.rows()) {
                auto it = term_tf_.find(row[0].ToString());
                if (it == term_tf_.end() || Num(row[1]) != it->second) {
                  return "rowsum: wrong sum for " + row[0].ToString();
                }
              }
              return "";
            }};
  }

  std::vector<std::string> names_;
  std::vector<int64_t> ages_;
  Groups patients_by_race_, admissions_by_race_, stay_by_diagnosis_,
      sepsis_stay_by_race_;
  std::unique_ptr<Waveforms> wave_;
  std::map<std::string, int64_t> docs_with_;
  std::map<std::string, double> term_tf_;
};

// ---------------------------------------------------------------------------
// ingest_monitor: live vitals with age-out, readers beside writers.
// ---------------------------------------------------------------------------

class IngestMonitor final : public Workload {
 public:
  int clients() const override { return 2; }
  int warmup_ops() const override { return 10; }

  void Bind(Fixture* f) override {
    fixture_ = f;
    int64_t max_id = 0;
    for (const Row& r : f->data.labs.rows()) {
      max_id = std::max(max_id, r[0].int64_unchecked());
      ++labs_[r[1].int64_unchecked()];
    }
    patients_ = f->data.patients.num_rows();
    for (int c = 0; c < clients(); ++c) {
      clients_.push_back(ClientState{max_id + 1 + c * 1000000000LL, {}});
    }
  }

  // Every flush bumps the archive's version, so the next CAST of the
  // archive misses and the cast cache keeps one more relation. The stale
  // versions leave only once the cache's budget is full. Set-up fills it,
  // so that the whole window runs in that steady, evicting state.
  bigdawg::Status Prepare(Fixture* f) override {
    constexpr int kMaxFlushes = 4096;
    const core::CastCache& cache = f->dawg->cast_cache();
    for (int i = 0; cache.Stats().evictions == 0; ++i) {
      if (i == kMaxFlushes) {
        return bigdawg::Status::Internal("the cast cache never filled");
      }
      BIGDAWG_RETURN_NOT_OK(f->feed->Feed(feed::kFlushRows));
      BIGDAWG_ASSIGN_OR_RETURN(exec::QueryHandle handle,
                               f->service->Submit(kHistoryCast));
      BIGDAWG_RETURN_NOT_OK(handle.Wait().status());
    }
    return bigdawg::Status::OK();
  }

  Op Next(int client, Rng* rng) override {
    const uint64_t r = rng->NextBelow(100);
    if (r < 18) return WindowAggregate();
    if (r < 30) return Alerts();
    if (r < 45) {
      return History("history_array", "ARRAY(aggregate(hr__history, count, hr))",
                     "count_hr");
    }
    if (r < 60) {
      return History("history_cast", kHistoryCast, "n");
    }
    // Labs: each client writes and reads only its own patients, so the
    // expected count is exact.
    ClientState& me = clients_[static_cast<size_t>(client)];
    const int64_t p = static_cast<int64_t>(rng->NextBelow(
                          static_cast<uint64_t>(patients_ / clients()))) *
                          clients() + client;
    if (r < 80) {
      const int64_t id = me.next_lab_id++;
      return {"labs_insert",
              "POSTGRES(INSERT INTO labs VALUES (" + std::to_string(id) + ", " +
                  std::to_string(p) + ", 'lactate', " + Fmt(rng->NextDouble(0.5, 12)) +
                  "))",
              [&me, p](const relational::Table&) -> std::string {
                ++me.inserted[p];
                return "";
              }};
    }
    const int64_t want = (labs_.count(p) ? labs_.at(p) : 0) + me.inserted[p];
    return {"labs_read", "RELATIONAL(SELECT COUNT(*) AS n FROM labs WHERE patient_id = " +
                std::to_string(p) + ")",
            [want](const relational::Table& t) {
              return CheckScalar(t, "n", static_cast<double>(want));
            }};
  }

 private:
  static constexpr const char* kHistoryCast =
      "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(hr__history, relation))";

  struct ClientState {
    int64_t next_lab_id = 0;
    std::map<int64_t, int64_t> inserted;  // patient -> rows this client added
  };

  Op WindowAggregate() {
    return {"window_aggregate", "STREAM(AGGREGATE hr_recent)",
            [](const relational::Table& t) -> std::string {
              for (const Row& row : t.rows()) {
                if (row[0].ToString() != "hr") continue;
                const double n = Num(row[1]), lo = Num(row[3]), hi = Num(row[4]),
                             avg = Num(row[5]);
                if (n != 256 || lo < 20 || hi > 195 || avg < lo || avg > hi) {
                  return "window aggregate out of range";
                }
                return "";
              }
              return "window aggregate: no hr column";
            }};
  }

  Op Alerts() {
    VitalsFeed* feed = fixture_->feed.get();
    return {"alerts", "STREAM(ALERTS)",
            [feed](const relational::Table& t) { return feed->AbsorbAlerts(t); }};
  }

  // Set-up fills the archive to its cap and each flush rolls it, so the
  // native count and the CAST count must both read exactly the cap.
  Op History(const std::string& kind, const std::string& text,
             const std::string& col) {
    return {kind, text, [col](const relational::Table& t) {
              return CheckScalar(t, col, static_cast<double>(feed::kHistoryRows));
            }};
  }

  Fixture* fixture_ = nullptr;
  std::map<int64_t, int64_t> labs_;  // generated labs per patient
  int64_t patients_ = 0;
  std::vector<ClientState> clients_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "browse_mix") return std::make_unique<BrowseMix>();
  if (name == "ingest_monitor") return std::make_unique<IngestMonitor>();
  return nullptr;
}

}  // namespace perfbench
