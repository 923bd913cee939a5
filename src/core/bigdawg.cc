#include "core/bigdawg.h"

#include <cstdlib>
#include <mutex>
#include <type_traits>

#include "common/lexer.h"
#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/stream_ageout.h"

namespace bigdawg::core {

namespace {

/// Wall-clock window before a silent shard gets a duplicate request.
double ShardHedgeMs() {
  static const double ms = [] {
    const char* env = std::getenv("BIGDAWG_SHARD_HEDGE_MS");
    if (env != nullptr) {
      char* end = nullptr;
      double v = std::strtod(env, &end);
      if (end != env && v >= 0) return v;
    }
    return 50.0;
  }();
  return ms;
}

}  // namespace

ExecContext*& BigDawg::ActiveCtx() {
  static thread_local ExecContext* ctx = nullptr;
  return ctx;
}

BigDawg::BigDawg() {
  EngineSet engines;
  engines.relational = &relational_;
  engines.array = &array_;
  engines.text = &text_;
  engines.stream = &stream_;
  engines.tiledb = &tiledb_;
  engines.shards = &shard_runtime_;

  ObjectFetcher table_fetcher = [this](const std::string& object) {
    return FetchAsTable(object);
  };
  ArrayFetcher array_fetcher = [this](const std::string& object) {
    return FetchAsArray(object);
  };
  AssocFetcher assoc_fetcher = [this](const std::string& object) {
    return FetchAsAssoc(object);
  };

  // The paper's reference implementation exposes eight islands: the two
  // multi-system islands (Myria, D4M), the cross-engine relational and
  // array islands, text and streaming islands, and degenerate islands for
  // the production relational and array engines.
  auto add = [this](std::unique_ptr<Island> island) {
    std::string key = island->name();
    islands_.emplace(std::move(key), std::move(island));
  };
  add(std::make_unique<RelationalIsland>("RELATIONAL", engines, &catalog_,
                                         table_fetcher, /*degenerate=*/false));
  add(std::make_unique<ArrayIsland>("ARRAY", engines, &catalog_, array_fetcher,
                                    /*degenerate=*/false));
  add(std::make_unique<TextIsland>(engines));
  add(std::make_unique<StreamIsland>(engines));
  add(std::make_unique<D4mIsland>(engines, &catalog_, assoc_fetcher));
  add(std::make_unique<MyriaIsland>(engines, &catalog_, table_fetcher));
  // Degenerate islands: full native functionality of a single engine.
  add(std::make_unique<RelationalIsland>("POSTGRES", engines, &catalog_,
                                         table_fetcher, /*degenerate=*/true));
  add(std::make_unique<ArrayIsland>("SCIDB", engines, &catalog_, array_fetcher,
                                    /*degenerate=*/true));

  // The streaming island's ingest/advance paths go through the same fault
  // plane as every other engine shim, so injected S-Store outages surface
  // as typed ingest rejections and held batches (backpressure).
  stream_.SetEngineCheck([this] { return CheckEngine(kEngineSStore); });

  // Shard-instance calls flow through the same fault plane and routing
  // checks as whole engines, addressed by instance name ("scidb#1") so a
  // schedule or breaker on one shard leaves its siblings serving.
  shard_runtime_.SetInstanceCheck(
      [this](const std::string& instance) { return CheckEngine(instance); });
  shard_runtime_.SetInstanceDownCheck([this](const std::string& instance) {
    return EngineConsideredDown(instance);
  });
  // Scatters inherit the active execution's deadline, cancellation flag,
  // and clock; pool tasks cannot reach the thread-local context
  // themselves, so the policy is captured on the query thread per scatter.
  shard_runtime_.SetPolicyProvider([this] {
    ShardCallPolicy policy;
    if (ExecContext* ctx = ActiveCtx()) {
      policy.clock = ctx->clock;
      policy.has_deadline = ctx->has_deadline;
      policy.deadline = ctx->deadline;
      policy.cancelled = ctx->cancelled;
    }
    policy.hedge_after_ms = ShardHedgeMs();
    return policy;
  });
}

BigDawg::~BigDawg() {
  stream_.Stop();
  // A failed gather returns before its abandoned scatter tasks (and late
  // hedges) drain, and those tasks capture `this`. Join the shard pool
  // before any member they touch is destroyed.
  shard_runtime_.DrainPool();
}

Status BigDawg::RegisterObject(const std::string& object, const std::string& engine,
                               const std::string& native_name) {
  if (engine != kEnginePostgres && engine != kEngineSciDb &&
      engine != kEngineAccumulo && engine != kEngineSStore &&
      engine != kEngineTileDb && engine != kEngineD4m) {
    return Status::InvalidArgument("unknown engine: " + engine);
  }
  return catalog_.Register({object, engine, native_name});
}

std::vector<std::string> BigDawg::ListIslands() const {
  std::vector<std::string> out;
  out.reserve(islands_.size());
  for (const auto& [name, island] : islands_) out.push_back(name);
  return out;
}

Result<Island*> BigDawg::GetIsland(const std::string& name) {
  auto it = islands_.find(ToUpper(name));
  if (it == islands_.end()) return Status::NotFound("no island named " + name);
  return it->second.get();
}

// ---------------------------------------------------------------------------
// Fault plane
// ---------------------------------------------------------------------------

Status BigDawg::CheckEngine(const std::string& engine) {
  // Fast path: the fault plane is a single relaxed load when disabled.
  if (!fault_.enabled()) return Status::OK();
  Status s = fault_.OnCall(engine);
  monitor_.RecordEngineCall(engine, s.ok());
  if (!s.ok() && ActiveCtx() != nullptr) {
    ActiveCtx()->unavailable_engine = engine;
    if (ActiveCtx()->trace != nullptr) {
      // Event span: marks exactly where the fault plane failed the call.
      obs::SpanGuard fault_span(ActiveCtx()->trace, "fault");
      fault_span.Tag("engine", engine);
    }
  }
  return s;
}

bool BigDawg::EngineConsideredDown(const std::string& engine) const {
  return fault_.IsDown(engine) || monitor_.EngineAdvisoryDown(engine);
}

// ---------------------------------------------------------------------------
// Data-model traits: what the one fetch/gather/store path knows per model
// ---------------------------------------------------------------------------

/// Per-model data for the generic fetch, gather, store and shard code: the
/// home engine (where the model is read natively and where its sharded
/// objects live), span names, cache target, the engine instances with their
/// read/write/erase calls, the fragment merge and partitioner, and the
/// conversions from and to a relation.
template <>
struct ModelTraits<relational::Table> {
  using Model = relational::Table;
  using Engine = relational::Database;
  static constexpr const char* kHome = kEnginePostgres;
  static constexpr const char* kShimSpan = "shim:table";
  static constexpr const char* kScatterSpan = "scatter:table";
  static constexpr CastTarget kTarget = CastTarget::kTable;
  static constexpr bool kReadsHomeReplica = true;
  static constexpr bool kFailsOverToHomeReplica = false;
  /// Engines whose objects convert to the model without a nested
  /// FetchAsTable: for a relation, every engine.
  static bool ReadsDirect(const std::string&) { return true; }

  static Engine& Home(BigDawg& d) { return d.relational_; }
  static Engine& Instance(ShardRuntime& r, int i) { return *r.Relational(i); }
  static Result<Model> Read(const Engine& e, const std::string& native) {
    return e.GetTable(native);
  }
  static Status Write(Engine& e, const std::string& native, Model m) {
    return e.PutTable(native, std::move(m));
  }
  static void Erase(Engine& e, const std::string& native) {
    (void)e.DropTable(native);
  }
  static Result<Model> Merge(std::vector<Model> fragments) {
    return MergeTableFragments(std::move(fragments));
  }
  /// Hash-partitions on `key` (default: the first column).
  static Result<std::vector<Model>> Partition(const Model& whole,
                                              const std::string& key,
                                              ShardPlacement* placement) {
    if (whole.schema().num_fields() == 0) {
      return Status::InvalidArgument("table has no columns to shard on");
    }
    placement->kind = PartitionKind::kHash;
    placement->key = key.empty() ? whole.schema().field(0).name : key;
    return PartitionTable(whole, *placement);
  }
};

template <>
struct ModelTraits<array::Array> {
  using Model = array::Array;
  using Engine = array::ArrayEngine;
  static constexpr const char* kHome = kEngineSciDb;
  static constexpr const char* kShimSpan = "shim:array";
  static constexpr const char* kScatterSpan = "scatter:array";
  static constexpr CastTarget kTarget = CastTarget::kArray;
  static constexpr bool kReadsHomeReplica = true;
  /// A down primary with a fresh scidb replica serves the array natively
  /// before FailoverFetch shims any other replica.
  static constexpr bool kFailsOverToHomeReplica = true;
  static bool ReadsDirect(const std::string& engine) {
    return engine == kEngineTileDb || engine == kEngineD4m;
  }

  static Engine& Home(BigDawg& d) { return d.array_; }
  static Engine& Instance(ShardRuntime& r, int i) { return *r.ArrayAt(i); }
  static Result<Model> Read(const Engine& e, const std::string& native) {
    return e.GetArray(native);
  }
  static Status Write(Engine& e, const std::string& native, Model m) {
    return e.PutArray(native, std::move(m));
  }
  static void Erase(Engine& e, const std::string& native) {
    (void)e.RemoveArray(native);
  }
  static Result<Model> Merge(std::vector<Model> fragments) {
    return MergeArrayFragments(std::move(fragments));
  }
  /// Range-partitions dimension `key` (default: the first) into equal
  /// spans.
  static Result<std::vector<Model>> Partition(const Model& whole,
                                              const std::string& key,
                                              ShardPlacement* placement) {
    if (whole.num_dims() == 0) {
      return Status::InvalidArgument("array has no dimensions to shard on");
    }
    placement->kind = PartitionKind::kRange;
    placement->key = key.empty() ? whole.dims()[0].name : key;
    size_t dim_idx = whole.num_dims();
    for (size_t d = 0; d < whole.num_dims(); ++d) {
      if (whole.dims()[d].name == placement->key) {
        dim_idx = d;
        break;
      }
    }
    if (dim_idx == whole.num_dims()) {
      return Status::InvalidArgument("no dimension named " + placement->key);
    }
    const array::Dimension& dim = whole.dims()[dim_idx];
    const int shard_count = placement->shard_count;
    for (int j = 0; j < shard_count - 1; ++j) {
      placement->range_splits.push_back(
          dim.start + (dim.length * (j + 1)) / shard_count);
    }
    return PartitionArray(whole, *placement);
  }
  static Result<Model> FromTable(const relational::Table& t) {
    return TableToArray(t);
  }
  static Result<relational::Table> ToTable(const Model& a) {
    return ArrayToTable(a);
  }
};

template <>
struct ModelTraits<d4m::AssocArray> {
  using Model = d4m::AssocArray;
  using Engine = AssocShard;
  static constexpr const char* kHome = kEngineD4m;
  static constexpr const char* kShimSpan = "shim:assoc";
  static constexpr const char* kScatterSpan = "scatter:assoc";
  static constexpr CastTarget kTarget = CastTarget::kAssoc;
  /// Never: a d4m replica of a text corpus holds its (doc_id, owner, text)
  /// relation as an assoc, not the term x document incidence.
  static constexpr bool kReadsHomeReplica = false;
  static constexpr bool kFailsOverToHomeReplica = false;
  static bool ReadsDirect(const std::string& engine) {
    return engine == kEngineAccumulo;
  }

  static Engine& Home(BigDawg& d) { return d.assoc_store_; }
  static Engine& Instance(ShardRuntime& r, int i) { return *r.AssocAt(i); }
  static Result<Model> Read(const Engine& e, const std::string& native) {
    return e.Get(native);
  }
  static Status Write(Engine& e, const std::string& native, Model m) {
    e.Put(native, std::move(m));
    return Status::OK();
  }
  static void Erase(Engine& e, const std::string& native) { e.Erase(native); }
  static Result<Model> Merge(std::vector<Model> fragments) {
    return MergeAssocFragments(std::move(fragments));
  }
  /// Hash-partitions on the row key.
  static Result<std::vector<Model>> Partition(const Model& whole,
                                              const std::string& key,
                                              ShardPlacement* placement) {
    placement->kind = PartitionKind::kHash;
    placement->key = key.empty() ? "row" : key;
    return PartitionAssoc(whole, *placement);
  }
  static Result<Model> FromTable(const relational::Table& t) {
    return TableToAssoc(t);
  }
  static Result<relational::Table> ToTable(const Model& a) {
    return AssocToTable(a);
  }
};

namespace {

/// Moves a value between data models the way the shims always have:
/// through a relation, except assoc -> array, which encodes the keys
/// ordinally rather than going through (row, col, value) triples.
template <typename To, typename From>
Result<To> Convert(From from) {
  if constexpr (std::is_same_v<To, From>) {
    return from;
  } else if constexpr (std::is_same_v<From, d4m::AssocArray> &&
                       std::is_same_v<To, array::Array>) {
    return AssocToArray(from);
  } else if constexpr (std::is_same_v<From, relational::Table>) {
    return ModelTraits<To>::FromTable(from);
  } else {
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table t, ModelTraits<From>::ToTable(from));
    return Convert<To>(std::move(t));
  }
}

template <typename To, typename From>
Result<To> Convert(Result<From> from) {
  if constexpr (std::is_same_v<To, From>) {
    return from;
  } else {
    if (!from.ok()) return from.status();
    return Convert<To>(std::move(*from));
  }
}

/// Calls `fn` with the traits of the model whose home is `engine` (the
/// model its objects are stored and sharded in); returns `otherwise` for
/// an engine that is no model's home.
template <typename R, typename Fn>
R VisitHomeModel(const std::string& engine, Fn&& fn, R otherwise) {
  if (engine == kEnginePostgres) return fn(ModelTraits<relational::Table>{});
  if (engine == kEngineSciDb) return fn(ModelTraits<array::Array>{});
  if (engine == kEngineD4m) return fn(ModelTraits<d4m::AssocArray>{});
  return otherwise;
}

/// The engine a CAST into `model` materializes on.
const char* EngineForModel(DataModel model) {
  switch (model) {
    case DataModel::kRelation:
      return kEnginePostgres;
    case DataModel::kArray:
      return kEngineSciDb;
    case DataModel::kAssociative:
      return kEngineD4m;
    case DataModel::kTileMatrix:
      return kEngineTileDb;
  }
  return kEnginePostgres;
}

/// CAST temporaries are written, read once, and dropped by the same
/// execution; caching them would only churn the LRU.
bool IsCastTemp(const std::string& object) {
  return object.rfind("__cast_", 0) == 0;
}

/// Reads through the cast cache: `read` runs only on a miss, and a
/// successful result is cached with its byte size.
template <typename T, typename Read, typename Current>
Result<T> CachedRead(CastCache& cache, const CastCacheKey& key, Read&& read,
                     Current&& still_current, const ExecContext* waiter,
                     CastCacheOutcome* outcome, int64_t* bytes) {
  Result<std::shared_ptr<const T>> cached = cache.GetOrCompute<T>(
      key,
      [&]() -> Result<std::pair<std::shared_ptr<const T>, int64_t>> {
        BIGDAWG_ASSIGN_OR_RETURN(T value, read());
        const int64_t size = value.ByteSize();
        return std::make_pair(std::make_shared<const T>(std::move(value)), size);
      },
      still_current, waiter, outcome, bytes);
  if (!cached.ok()) return cached.status();
  return **cached;
}

}  // namespace

// ---------------------------------------------------------------------------
// Cross-model fetch (shims)
// ---------------------------------------------------------------------------

template <typename T>
Result<T> BigDawg::ReadAs(const std::string& engine, const std::string& native) {
  if (engine == kEnginePostgres) return Convert<T>(relational_.GetTable(native));
  if (engine == kEngineSciDb) return Convert<T>(array_.GetArray(native));
  if (engine == kEngineAccumulo) {
    if constexpr (std::is_same_v<T, d4m::AssocArray>) {
      // The D4M view of a text corpus: the term x document incidence
      // associative array (row = term, col = doc id, value = tf).
      d4m::AssocArray out;
      kvstore::ScanOptions options;
      options.family = "idx";
      text_.backing_store().ApplyToRange(options, [&out](const kvstore::Cell& cell) {
        // Rows are "term:<t>".
        std::string term = cell.key.row.substr(5);
        out.Set(term, cell.key.qualifier,
                Value(std::strtod(cell.value.c_str(), nullptr)));
        return true;
      });
      return out;
    } else {
      // The text corpus as a (doc_id, owner, text) relation.
      relational::Table out{Schema({Field("doc_id", DataType::kString),
                                    Field("owner", DataType::kString),
                                    Field("text", DataType::kString)})};
      for (const std::string& id : text_.ListDocumentIds()) {
        Result<std::string> doc_text = text_.GetText(id);
        Result<std::string> owner = text_.GetOwner(id);
        if (!doc_text.ok()) continue;
        out.AppendUnchecked({Value(id), Value(owner.ValueOr("")), Value(*doc_text)});
      }
      return Convert<T>(std::move(out));
    }
  }
  if (engine == kEngineSStore) {
    BIGDAWG_ASSIGN_OR_RETURN(Schema schema, stream_.StreamSchema(native));
    BIGDAWG_ASSIGN_OR_RETURN(std::vector<Row> rows, stream_.StreamContents(native));
    return Convert<T>(relational::Table(std::move(schema), std::move(rows)));
  }
  if (engine == kEngineTileDb) {
    BIGDAWG_ASSIGN_OR_RETURN(tiledb::TileDbArray m, tiledb_.GetArray(native));
    return Convert<T>(TileMatrixToArray(m));
  }
  if (engine == kEngineD4m) {
    Result<d4m::AssocArray> a = assoc_store_.Get(native);
    if (!a.ok()) {
      return Status::Internal("catalog points at missing assoc object: " + native);
    }
    return Convert<T>(std::move(a));
  }
  return Status::Internal("catalog entry has unknown engine: " + engine);
}

Result<relational::Table> BigDawg::FetchTableFrom(const std::string& engine,
                                                  const std::string& native) {
  BIGDAWG_RETURN_NOT_OK(CheckEngine(engine));
  return ReadAs<relational::Table>(engine, native);
}

Result<relational::Table> BigDawg::FailoverFetch(const std::string& object,
                                                 const ObjectLocation& primary) {
  obs::Trace* trace = ActiveCtx() != nullptr ? ActiveCtx()->trace : nullptr;
  obs::SpanGuard failover_span(trace, "failover");
  if (trace != nullptr) failover_span.Tag("from", primary.engine);
  for (const ReplicaLocation& replica : catalog_.Replicas(object)) {
    // Stale replicas never serve failover reads: a degraded answer must
    // still be a correct one.
    if (!catalog_.ReplicaIsFresh(object, replica.engine)) continue;
    if (EngineConsideredDown(replica.engine)) continue;
    Result<relational::Table> served =
        FetchTableFrom(replica.engine, replica.native_name);
    if (!served.ok()) continue;
    if (trace != nullptr) failover_span.Tag("to", replica.engine);
    BIGDAWG_CLOG(Warn, "core") << "failover: serving " << object << " from "
                               << replica.engine << " (primary "
                               << primary.engine << " down)";
    monitor_.RecordFailover(primary.engine);
    if (ActiveCtx() != nullptr) ++ActiveCtx()->failovers;
    return served;
  }
  if (trace != nullptr) failover_span.Tag("error", "unavailable");
  BIGDAWG_CLOG(Warn, "core") << "failover failed: no fresh replica can serve "
                             << object << " (primary " << primary.engine
                             << " down)";
  if (ActiveCtx() != nullptr) ActiveCtx()->unavailable_engine = primary.engine;
  return Status::Unavailable("engine " + primary.engine +
                             " is down and no fresh replica can serve " + object);
}

void BigDawg::StampCacheOutcome(CastCacheOutcome outcome, int64_t bytes,
                                bool ok, obs::SpanGuard* shim_span,
                                obs::Trace* trace) {
  if (ActiveCtx() != nullptr) {
    ActiveCtx()->cast_cache_outcome = CastCacheOutcomeName(outcome);
    ActiveCtx()->cast_cache_bytes = ok ? bytes : -1;
  }
  if (trace != nullptr) shim_span->Tag("cache", CastCacheOutcomeName(outcome));
}

template <typename T>
Result<T> BigDawg::FetchRouted(const std::string& object,
                               const ObjectLocation& loc,
                               obs::SpanGuard* shim_span, obs::Trace* trace) {
  using Traits = ModelTraits<T>;
  auto fresh_home_replica = [&] {
    return loc.engine != Traits::kHome &&
           catalog_.ReplicaIsFresh(object, Traits::kHome) &&
           !EngineConsideredDown(Traits::kHome);
  };
  if (EngineConsideredDown(loc.engine)) {
    if (Traits::kFailsOverToHomeReplica && fresh_home_replica()) {
      BIGDAWG_ASSIGN_OR_RETURN(ReplicaLocation replica,
                               catalog_.ReplicaOn(object, Traits::kHome));
      obs::SpanGuard failover_span(trace, "failover");
      if (trace != nullptr) {
        failover_span.Tag("from", loc.engine);
        failover_span.Tag("to", Traits::kHome);
      }
      BIGDAWG_RETURN_NOT_OK(CheckEngine(Traits::kHome));
      monitor_.RecordFailover(loc.engine);
      if (ActiveCtx() != nullptr) ++ActiveCtx()->failovers;
      return ReadAs<T>(Traits::kHome, replica.native_name);
    }
    return Convert<T>(FailoverFetch(object, loc));
  }
  // Prefer a fresh home-model replica: it serves the model natively,
  // skipping the cross-model shim.
  if (Traits::kReadsHomeReplica && fresh_home_replica()) {
    BIGDAWG_ASSIGN_OR_RETURN(ReplicaLocation replica,
                             catalog_.ReplicaOn(object, Traits::kHome));
    BIGDAWG_RETURN_NOT_OK(CheckEngine(Traits::kHome));
    if (trace != nullptr) shim_span->Tag("replica", Traits::kHome);
    return ReadAs<T>(Traits::kHome, replica.native_name);
  }
  if (loc.engine == Traits::kHome || Traits::ReadsDirect(loc.engine)) {
    BIGDAWG_RETURN_NOT_OK(CheckEngine(loc.engine));
    return ReadAs<T>(loc.engine, loc.native_name);
  }
  // Everything else goes through its relation, itself a (cached) shim.
  return Convert<T>(FetchAsTable(object));
}

template <typename T>
Result<T> BigDawg::FetchAs(const std::string& object) {
  // A repartition can retire the physical names between a snapshot and
  // the reads under it; a NotFound with a moved placement epoch means
  // exactly that race, and a fresh attempt sees the new layout.
  Result<ObjectSnapshot> before = catalog_.Snapshot(object);
  for (int attempt = 0;; ++attempt) {
    Result<T> r = FetchOnce<T>(object);
    if (r.ok() || r.status().code() != StatusCode::kNotFound ||
        attempt >= 4) {
      return r;
    }
    Result<ObjectSnapshot> now = catalog_.Snapshot(object);
    if (!before.ok() || !now.ok() ||
        now->placement.epoch == before->placement.epoch) {
      return r;
    }
    before = std::move(now);
  }
}

template <typename T>
Result<T> BigDawg::FetchOnce(const std::string& object) {
  using Traits = ModelTraits<T>;
  obs::Trace* trace = ActiveCtx() != nullptr ? ActiveCtx()->trace : nullptr;
  obs::SpanGuard shim_span(trace, Traits::kShimSpan);
  if (trace != nullptr) shim_span.Tag("object", object);
  BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
  const ObjectLocation& loc = snap.location;
  if (trace != nullptr) shim_span.Tag("engine", loc.engine);
  if (snap.placement.sharded()) {
    if (trace != nullptr) shim_span.Tag("sharded", "true");
    return VisitHomeModel<Result<T>>(
        loc.engine,
        [&](auto home) -> Result<T> {
          using Home = typename decltype(home)::Model;
          return Convert<T>(GatherSharded<Home>(object, snap));
        },
        Status::Internal("sharded object on unshardable engine: " + loc.engine));
  }
  // A home-model read is native, not a cast: there is no conversion to
  // save, so the cache never interposes on it. (The accumulo term x
  // document incidence build, by contrast, is O(corpus) and one of the
  // cache's best customers.)
  if (!cast_cache_.enabled() || loc.engine == Traits::kHome ||
      IsCastTemp(object)) {
    return FetchRouted<T>(object, loc, &shim_span, trace);
  }
  CastCacheOutcome outcome = CastCacheOutcome::kMiss;
  int64_t bytes = 0;
  Result<T> r = CachedRead<T>(
      cast_cache_,
      CastCacheKey{object, snap.instance_id, snap.version, Traits::kTarget, ""},
      [&] { return FetchRouted<T>(object, loc, &shim_span, trace); },
      [&] { return catalog_.SnapshotIsCurrent(object, snap); }, ActiveCtx(),
      &outcome, &bytes);
  StampCacheOutcome(outcome, bytes, r.ok(), &shim_span, trace);
  return r;
}

Result<relational::Table> BigDawg::FetchAsTable(const std::string& object) {
  return FetchAs<relational::Table>(object);
}

Result<array::Array> BigDawg::FetchAsArray(const std::string& object) {
  return FetchAs<array::Array>(object);
}

Result<d4m::AssocArray> BigDawg::FetchAsAssoc(const std::string& object) {
  return FetchAs<d4m::AssocArray>(object);
}

// ---------------------------------------------------------------------------
// CAST materialization
// ---------------------------------------------------------------------------

Status BigDawg::StoreTableAs(const relational::Table& table, DataModel model,
                             const std::string& object, ExecContext* temp_owner) {
  const char* engine = EngineForModel(model);
  BIGDAWG_RETURN_NOT_OK(StoreTableOnEngine(table, engine, object));
  BIGDAWG_RETURN_NOT_OK(catalog_.Register({object, engine, object}));
  if (temp_owner != nullptr) temp_owner->temporaries.push_back(object);
  return Status::OK();
}

Status BigDawg::CastAndStore(const std::string& object, DataModel target,
                             const std::string& new_object) {
  BIGDAWG_ASSIGN_OR_RETURN(relational::Table table, FetchAsTable(object));
  return StoreTableAs(table, target, new_object, /*temp_owner=*/nullptr);
}

void BigDawg::ClearTemporaries(ExecContext* ctx) {
  for (const std::string& name : ctx->temporaries) {
    Result<ObjectLocation> loc = catalog_.Lookup(name);
    if (!loc.ok()) continue;
    DropPhysical(loc->engine, loc->native_name);
    (void)catalog_.Remove(name);
  }
  ctx->temporaries.clear();
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

Status BigDawg::StoreTableOnEngine(const relational::Table& table,
                                   const std::string& engine,
                                   const std::string& native) {
  // Writes never fail over — a down engine fails the store.
  BIGDAWG_RETURN_NOT_OK(CheckEngine(engine));
  if (engine == kEngineTileDb) {
    BIGDAWG_ASSIGN_OR_RETURN(array::Array a, TableToArray(table));
    BIGDAWG_ASSIGN_OR_RETURN(tiledb::TileDbArray m, ArrayToTileMatrix(a));
    return tiledb_.PutArray(native, std::move(m));
  }
  return VisitHomeModel(
      engine,
      [&](auto traits) -> Status {
        using Traits = decltype(traits);
        BIGDAWG_ASSIGN_OR_RETURN(typename Traits::Model m,
                                 Convert<typename Traits::Model>(table));
        return Traits::Write(Traits::Home(*this), native, std::move(m));
      },
      Status::InvalidArgument("unsupported storage engine: " + engine));
}

void BigDawg::DropPhysical(const std::string& engine, const std::string& native) {
  if (engine == kEnginePostgres) (void)relational_.DropTable(native);
  if (engine == kEngineSciDb) (void)array_.RemoveArray(native);
  if (engine == kEngineTileDb) (void)tiledb_.RemoveArray(native);
  if (engine == kEngineD4m) assoc_store_.Erase(native);
}

Status BigDawg::MigrateObject(const std::string& object,
                              const std::string& target_engine) {
  // Serialized with ShardObject/UnshardObject: migration of a sharded
  // object collapses its placement, which is a repartition.
  std::lock_guard repartition(shard_runtime_.repartition_mu());
  BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
  const ObjectLocation& loc = snap.location;
  if (loc.engine == target_engine) return Status::OK();
  BIGDAWG_ASSIGN_OR_RETURN(relational::Table table, FetchAsTable(object));
  // A replica already on the target becomes redundant after migration;
  // the catalog drops its entry and we drop its bytes.
  Result<ReplicaLocation> existing = catalog_.ReplicaOn(object, target_engine);
  BIGDAWG_RETURN_NOT_OK(StoreTableOnEngine(table, target_engine, object));
  if (snap.placement.sharded()) {
    BIGDAWG_RETURN_NOT_OK(catalog_.RemovePlacement(object));
    DropFragments(loc.engine, loc.native_name, snap.placement);
  } else {
    DropPhysical(loc.engine, loc.native_name);
  }
  if (existing.ok() && existing->native_name != object) {
    DropPhysical(target_engine, existing->native_name);
  }
  return catalog_.UpdateLocation(object, target_engine, object);
}

Status BigDawg::CopyObjectTo(const std::string& object,
                             const std::string& engine,
                             const std::string& copy_name) {
  if (catalog_.Contains(copy_name)) {
    return Status::AlreadyExists("object " + copy_name +
                                 " already exists in the catalog");
  }
  BIGDAWG_ASSIGN_OR_RETURN(relational::Table table, FetchAsTable(object));
  BIGDAWG_RETURN_NOT_OK(StoreTableOnEngine(table, engine, copy_name));
  return RegisterObject(copy_name, engine, copy_name);
}

Status BigDawg::DropObject(const std::string& object) {
  BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
  if (snap.placement.sharded()) {
    return Status::FailedPrecondition(
        "object " + object + " is sharded; UnshardObject it first");
  }
  for (const ReplicaLocation& replica : catalog_.Replicas(object)) {
    DropPhysical(replica.engine, replica.native_name);
  }
  DropPhysical(snap.location.engine, snap.location.native_name);
  return catalog_.Remove(object);
}

Status BigDawg::ReplicateObject(const std::string& object,
                                const std::string& target_engine) {
  BIGDAWG_ASSIGN_OR_RETURN(ObjectLocation loc, catalog_.Lookup(object));
  if (loc.engine == target_engine) {
    return Status::InvalidArgument("object already lives on " + target_engine);
  }
  const std::string native = object + "__replica_" + target_engine;
  BIGDAWG_ASSIGN_OR_RETURN(relational::Table table, FetchAsTable(object));
  BIGDAWG_RETURN_NOT_OK(StoreTableOnEngine(table, target_engine, native));
  BIGDAWG_RETURN_NOT_OK(catalog_.AddReplica(object, target_engine, native));
  return catalog_.MarkReplicaFresh(object, target_engine);
}

Status BigDawg::DropReplica(const std::string& object, const std::string& engine) {
  BIGDAWG_ASSIGN_OR_RETURN(ReplicaLocation replica, catalog_.ReplicaOn(object, engine));
  DropPhysical(engine, replica.native_name);
  return catalog_.RemoveReplica(object, engine);
}

Status BigDawg::MarkObjectWritten(const std::string& object) {
  return catalog_.MarkPrimaryWritten(object);
}

Result<int64_t> BigDawg::RefreshReplicas(const std::string& object) {
  BIGDAWG_ASSIGN_OR_RETURN(ObjectLocation loc, catalog_.Lookup(object));
  (void)loc;
  int64_t refreshed = 0;
  for (const ReplicaLocation& replica : catalog_.Replicas(object)) {
    if (catalog_.ReplicaIsFresh(object, replica.engine)) continue;
    // Re-materialize from the primary (not from another replica).
    BIGDAWG_ASSIGN_OR_RETURN(ObjectLocation primary, catalog_.Lookup(object));
    BIGDAWG_ASSIGN_OR_RETURN(relational::Table table,
                             FetchTableFrom(primary.engine, primary.native_name));
    BIGDAWG_RETURN_NOT_OK(
        StoreTableOnEngine(table, replica.engine, replica.native_name));
    BIGDAWG_RETURN_NOT_OK(catalog_.MarkReplicaFresh(object, replica.engine));
    ++refreshed;
  }
  return refreshed;
}

// ---------------------------------------------------------------------------
// Sharded objects: scatter-gather reads
// ---------------------------------------------------------------------------

template <typename T>
Result<T> BigDawg::FetchFragment(const std::string& object,
                                 const ObjectSnapshot& snap, int shard) {
  using Traits = ModelTraits<T>;
  const std::string instance = ShardInstanceName(snap.location.engine, shard);
  if (EngineConsideredDown(instance)) {
    return Status::Unavailable("shard instance " + instance + " is down");
  }
  BIGDAWG_RETURN_NOT_OK(CheckEngine(instance));
  const std::string frag =
      ShardFragmentName(snap.location.native_name, snap.placement.epoch, shard);
  auto read = [&] {
    return Traits::Read(Traits::Instance(shard_runtime_, shard), frag);
  };
  if (!cast_cache_.enabled() || IsCastTemp(object)) return read();
  // Fragment reads key the cache on THAT shard's write version (params
  // carry the shard/epoch so two shards of one object never collide):
  // writing or migrating shard 3 invalidates only shard 3's entry and
  // the other shards stay warm.
  CastCacheKey key{object, snap.instance_id,
                   snap.placement.shard_versions[static_cast<size_t>(shard)],
                   Traits::kTarget,
                   "s" + std::to_string(shard) + "@e" +
                       std::to_string(snap.placement.epoch)};
  CastCacheOutcome outcome = CastCacheOutcome::kMiss;
  return CachedRead<T>(
      cast_cache_, key, read,
      [&] { return catalog_.ShardStateIsCurrent(object, snap, shard); },
      // Fragment fetches run on pool threads where no ExecContext is
      // installed; single-flight waiting still coalesces by key.
      nullptr, &outcome, nullptr);
}

template <typename T>
Result<T> BigDawg::GatherSharded(const std::string& object,
                                 const ObjectSnapshot& snap) {
  // The trace lives on the gather thread only: obs::Trace is not
  // thread-safe, so pool tasks never touch it.
  obs::Trace* trace = ActiveCtx() != nullptr ? ActiveCtx()->trace : nullptr;
  obs::SpanGuard span(trace, ModelTraits<T>::kScatterSpan);
  if (trace != nullptr) {
    span.Tag("object", object);
    span.Tag("shards", std::to_string(snap.placement.shard_count));
    span.Tag("epoch", std::to_string(snap.placement.epoch));
  }
  int failed_shard = -1;
  Result<std::vector<T>> frags = shard_runtime_.ScatterGather<T>(
      snap.placement.shard_count,
      // By value: a failed gather returns before abandoned tasks
      // (and hedges) drain, so the lambda must own its state.
      [this, object, snap](int shard) {
        return FetchFragment<T>(object, snap, shard);
      },
      &failed_shard);
  if (frags.ok()) {
    if (!catalog_.PlacementIsCurrent(object, snap)) {
      // A repartition raced the scatter; surface NotFound so the fetch
      // wrapper re-snapshots and reads the new layout instead of serving
      // a torn mix of epochs.
      return Status::NotFound("placement of " + object +
                              " changed during gather");
    }
    return ModelTraits<T>::Merge(std::move(*frags));
  }
  if (trace != nullptr) span.Tag("error", frags.status().message());
  if (frags.status().code() != StatusCode::kUnavailable) return frags.status();
  // Partial results are never served. A replicated object can still
  // answer whole from a fresh replica; otherwise the failure is typed.
  Result<relational::Table> failover = FailoverFetch(object, snap.location);
  if (failover.ok()) return Convert<T>(std::move(*failover));
  if (failed_shard >= 0 && ActiveCtx() != nullptr) {
    ActiveCtx()->unavailable_engine =
        ShardInstanceName(snap.location.engine, failed_shard);
  }
  return frags.status();
}

// ---------------------------------------------------------------------------
// Sharded objects: repartitioning
// ---------------------------------------------------------------------------

int BigDawg::DefaultShardCount() {
  const char* env = std::getenv("BIGDAWG_SHARDS");
  if (env != nullptr) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 64) {
      return static_cast<int>(v);
    }
  }
  return 4;
}

template <typename T>
Status BigDawg::StoreFragment(int shard, const std::string& native,
                              const T& fragment) {
  using Traits = ModelTraits<T>;
  // Writes never fail over: a down shard instance fails the store.
  BIGDAWG_RETURN_NOT_OK(shard_runtime_.CheckInstance(Traits::kHome, shard));
  return Traits::Write(Traits::Instance(shard_runtime_, shard), native, fragment);
}

void BigDawg::DropFragments(const std::string& engine, const std::string& native,
                            const ShardPlacement& placement) {
  (void)VisitHomeModel(
      engine,
      [&](auto traits) {
        using Traits = decltype(traits);
        for (int i = 0; i < placement.shard_count; ++i) {
          Traits::Erase(Traits::Instance(shard_runtime_, i),
                        ShardFragmentName(native, placement.epoch, i));
        }
        return Status::OK();
      },
      Status::OK());
}

Status BigDawg::ShardObject(const std::string& object) {
  return ShardObject(object, DefaultShardCount());
}

Status BigDawg::ShardObject(const std::string& object, int shard_count,
                            const std::string& key) {
  if (shard_count < 1 || shard_count > 64) {
    return Status::InvalidArgument("shard_count must be in [1, 64]");
  }
  // One repartition at a time, system-wide: the epoch sequence per object
  // stays strictly increasing and old-layout cleanup cannot interleave.
  std::lock_guard repartition(shard_runtime_.repartition_mu());
  BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
  const std::string& engine = snap.location.engine;

  ShardPlacement placement;
  placement.shard_count = shard_count;
  placement.epoch = snap.placement.epoch + 1;

  BIGDAWG_RETURN_NOT_OK(VisitHomeModel(
      engine,
      [&](auto traits) -> Status {
        using Traits = decltype(traits);
        using T = typename Traits::Model;
        // The whole object in its home model, bypassing islands.
        Result<T> whole = [&]() -> Result<T> {
          if (snap.placement.sharded()) return GatherSharded<T>(object, snap);
          BIGDAWG_RETURN_NOT_OK(CheckEngine(engine));
          return Traits::Read(Traits::Home(*this), snap.location.native_name);
        }();
        BIGDAWG_RETURN_NOT_OK(whole.status());
        BIGDAWG_ASSIGN_OR_RETURN(std::vector<T> frags,
                                 Traits::Partition(*whole, key, &placement));
        for (int i = 0; i < shard_count; ++i) {
          BIGDAWG_RETURN_NOT_OK(StoreFragment(
              i, ShardFragmentName(snap.location.native_name, placement.epoch, i),
              frags[static_cast<size_t>(i)]));
        }
        return Status::OK();
      },
      Status::InvalidArgument(
          "only postgres/scidb/d4m-homed objects can be sharded (object " +
          object + " lives on " + engine + ")")));

  // New-epoch fragments are fully written; the placement swap makes them
  // visible atomically, and only then is the old layout retired.
  BIGDAWG_RETURN_NOT_OK(catalog_.SetPlacement(object, placement));
  shard_runtime_.stats().repartitions.fetch_add(1, std::memory_order_relaxed);
  if (snap.placement.sharded()) {
    DropFragments(engine, snap.location.native_name, snap.placement);
  } else {
    DropPhysical(engine, snap.location.native_name);
  }
  return Status::OK();
}

Status BigDawg::UnshardObject(const std::string& object) {
  std::lock_guard repartition(shard_runtime_.repartition_mu());
  BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
  if (!snap.placement.sharded()) return Status::OK();
  const std::string& engine = snap.location.engine;
  BIGDAWG_RETURN_NOT_OK(CheckEngine(engine));
  BIGDAWG_RETURN_NOT_OK(VisitHomeModel(
      engine,
      [&](auto traits) -> Status {
        using Traits = decltype(traits);
        BIGDAWG_ASSIGN_OR_RETURN(
            typename Traits::Model whole,
            GatherSharded<typename Traits::Model>(object, snap));
        return Traits::Write(Traits::Home(*this), snap.location.native_name,
                             std::move(whole));
      },
      Status::Internal("sharded object on unshardable engine: " + engine)));
  BIGDAWG_RETURN_NOT_OK(catalog_.RemovePlacement(object));
  shard_runtime_.stats().repartitions.fetch_add(1, std::memory_order_relaxed);
  DropFragments(engine, snap.location.native_name, snap.placement);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Stream age-out
// ---------------------------------------------------------------------------

Status BigDawg::EnableStreamAgeOut() { return EnableStreamAgeOut({}); }

Status BigDawg::EnableStreamAgeOut(const StreamAgeOutConfig& config) {
  auto pipeline = std::make_unique<StreamAgeOut>(this, config);
  BIGDAWG_RETURN_NOT_OK(pipeline->Attach());
  stream_ageout_ = std::move(pipeline);
  return Status::OK();
}

Status BigDawg::StoreStreamHistory(const std::string& object,
                                   const relational::Table& table) {
  Result<ShardPlacement> placement = catalog_.Placement(object);
  if (placement.ok() && placement->sharded()) {
    // Sharded history: partition the flushed window by the placement map
    // so every fragment lands on its owning shard instance (new hist_seq
    // rows route to the last, unbounded-above range shard).
    BIGDAWG_ASSIGN_OR_RETURN(ObjectSnapshot snap, catalog_.Snapshot(object));
    if (snap.location.engine != kEngineSciDb) {
      return Status::Internal("stream history must live on the array engine");
    }
    BIGDAWG_ASSIGN_OR_RETURN(array::Array a, TableToArray(table));
    BIGDAWG_ASSIGN_OR_RETURN(std::vector<array::Array> frags,
                             PartitionArray(a, *placement));
    // Probe every shard instance up front so a down shard fails the
    // flush before any fragment is replaced (the age-out pipeline keeps
    // the rows pending and retries).
    for (int i = 0; i < placement->shard_count; ++i) {
      if (shard_runtime_.InstanceConsideredDown(kEngineSciDb, i)) {
        return Status::Unavailable(
            "shard instance " + ShardInstanceName(kEngineSciDb, i) +
            " is down; stream history flush deferred");
      }
    }
    for (int i = 0; i < placement->shard_count; ++i) {
      BIGDAWG_RETURN_NOT_OK(StoreFragment(
          i, ShardFragmentName(snap.location.native_name, placement->epoch, i),
          frags[static_cast<size_t>(i)]));
    }
    return catalog_.MarkPrimaryWritten(object);
  }
  // Writes never fail over — a down array engine fails the store (the
  // age-out pipeline keeps the rows pending and retries).
  BIGDAWG_RETURN_NOT_OK(StoreTableOnEngine(table, kEngineSciDb, object));
  if (catalog_.Lookup(object).ok()) {
    // Existing history object: bump its version so the cast cache drops
    // every pre-flush entry.
    return catalog_.MarkPrimaryWritten(object);
  }
  return catalog_.Register({object, kEngineSciDb, object});
}

Result<int64_t> BigDawg::ApplyMigrations() {
  std::vector<MigrationSuggestion> suggestions = monitor_.SuggestMigrations(catalog_);
  int64_t migrated = 0;
  for (const MigrationSuggestion& s : suggestions) {
    BIGDAWG_RETURN_NOT_OK(MigrateObject(s.object, s.to_engine));
    ++migrated;
  }
  if (migrated > 0) monitor_.ResetAccessHistory();
  return migrated;
}

}  // namespace bigdawg::core
