#include "core/sharding.h"

#include <algorithm>

#include "common/macros.h"

namespace bigdawg::core {

// ---------------------------------------------------------------------------
// Partitioning functions
// ---------------------------------------------------------------------------

uint64_t ShardHash(const std::string& key) {
  // FNV-1a, 64-bit.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ShardKeyString(const Value& v) {
  if (v.is_null()) return "\x01null";
  // Prefix with the type tag so Value(1) and Value("1") cannot collide.
  return std::to_string(static_cast<int>(v.type())) + ":" + v.ToString();
}

int HashShardOf(const Value& key, int shard_count) {
  return static_cast<int>(ShardHash(ShardKeyString(key)) %
                          static_cast<uint64_t>(shard_count));
}

int RangeShardOf(int64_t coord, const std::vector<int64_t>& splits) {
  // splits are ascending exclusive upper bounds; the shard after the last
  // split is unbounded above (so growing objects keep routing correctly).
  auto it = std::upper_bound(splits.begin(), splits.end(), coord);
  return static_cast<int>(it - splits.begin());
}

std::string ShardFragmentName(const std::string& native, int64_t epoch,
                              int shard) {
  return native + "__p" + std::to_string(epoch) + "_s" + std::to_string(shard);
}

Result<std::vector<relational::Table>> PartitionTable(
    const relational::Table& table, const ShardPlacement& placement) {
  if (placement.kind != PartitionKind::kHash) {
    return Status::InvalidArgument("tables partition by hash");
  }
  BIGDAWG_ASSIGN_OR_RETURN(size_t key_idx,
                           table.schema().Resolve(placement.key));
  std::vector<relational::Table> fragments;
  fragments.reserve(static_cast<size_t>(placement.shard_count));
  for (int i = 0; i < placement.shard_count; ++i) {
    fragments.emplace_back(table.schema());
  }
  for (const Row& row : table.rows()) {
    int shard = HashShardOf(row[key_idx], placement.shard_count);
    fragments[static_cast<size_t>(shard)].AppendUnchecked(row);
  }
  return fragments;
}

Result<std::vector<array::Array>> PartitionArray(
    const array::Array& array, const ShardPlacement& placement) {
  if (placement.kind != PartitionKind::kRange) {
    return Status::InvalidArgument("arrays partition by range");
  }
  size_t dim_idx = array.num_dims();
  for (size_t d = 0; d < array.num_dims(); ++d) {
    if (array.dims()[d].name == placement.key) {
      dim_idx = d;
      break;
    }
  }
  if (dim_idx == array.num_dims()) {
    return Status::InvalidArgument("no dimension named " + placement.key);
  }
  // Fragments keep the FULL original dimension bounds: cells are disjoint
  // by the range assignment, empty fragments stay representable, and the
  // stitch back is exact (same dims, union of cells).
  std::vector<array::Array> fragments;
  fragments.reserve(static_cast<size_t>(placement.shard_count));
  for (int i = 0; i < placement.shard_count; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(array::Array frag,
                             array::Array::Create(array.dims(), array.attrs()));
    fragments.push_back(std::move(frag));
  }
  Status append = Status::OK();
  array.Scan([&](const array::Coordinates& coords,
                 const std::vector<double>& values) {
    int shard = RangeShardOf(coords[dim_idx], placement.range_splits);
    if (shard >= placement.shard_count) shard = placement.shard_count - 1;
    Status st = fragments[static_cast<size_t>(shard)].Set(coords, values);
    if (!st.ok()) {
      append = st;
      return false;
    }
    return true;
  });
  BIGDAWG_RETURN_NOT_OK(append);
  return fragments;
}

Result<std::vector<d4m::AssocArray>> PartitionAssoc(
    const d4m::AssocArray& assoc, const ShardPlacement& placement) {
  if (placement.kind != PartitionKind::kHash) {
    return Status::InvalidArgument("assoc arrays partition by hash");
  }
  std::vector<d4m::AssocArray> fragments(
      static_cast<size_t>(placement.shard_count));
  assoc.ForEach([&](const std::string& row, const std::string& col,
                    const Value& value) {
    int shard = HashShardOf(Value(row), placement.shard_count);
    fragments[static_cast<size_t>(shard)].Set(row, col, value);
  });
  return fragments;
}

Result<relational::Table> MergeTableFragments(
    std::vector<relational::Table> fragments) {
  if (fragments.empty()) return Status::InvalidArgument("no fragments");
  // Degenerate gather (one shard answered, or per-shard cache hits
  // collapsed to one fragment): hand the block back untouched.
  if (fragments.size() == 1) return std::move(fragments[0]);
  relational::Table out(fragments[0].schema());
  for (relational::Table& frag : fragments) {
    if (frag.UniquelyOwned()) {
      // Exclusive fragment (fresh fetch): move its rows out.
      for (Row& row : frag.mutable_rows()) {
        out.AppendUnchecked(std::move(row));
      }
    } else {
      // Shared fragment (aliases a cache entry): copy rows without
      // thawing — thawing here would deep-copy the whole block only to
      // move it once.
      for (const Row& row : frag.rows()) {
        out.AppendUnchecked(row);
      }
    }
  }
  return out;
}

Result<array::Array> MergeArrayFragments(std::vector<array::Array> fragments) {
  if (fragments.empty()) return Status::InvalidArgument("no fragments");
  if (fragments.size() == 1) return std::move(fragments[0]);
  BIGDAWG_ASSIGN_OR_RETURN(
      array::Array out,
      array::Array::Create(fragments[0].dims(), fragments[0].attrs()));
  Status set = Status::OK();
  for (const array::Array& frag : fragments) {
    frag.Scan([&](const array::Coordinates& coords,
                  const std::vector<double>& values) {
      Status st = out.Set(coords, values);
      if (!st.ok()) {
        set = st;
        return false;
      }
      return true;
    });
    BIGDAWG_RETURN_NOT_OK(set);
  }
  return out;
}

Result<d4m::AssocArray> MergeAssocFragments(
    std::vector<d4m::AssocArray> fragments) {
  if (fragments.empty()) return Status::InvalidArgument("no fragments");
  if (fragments.size() == 1) return std::move(fragments[0]);
  d4m::AssocArray out;
  for (const d4m::AssocArray& frag : fragments) {
    frag.ForEach([&](const std::string& row, const std::string& col,
                     const Value& value) { out.Set(row, col, value); });
  }
  return out;
}

// ---------------------------------------------------------------------------
// AssocShard
// ---------------------------------------------------------------------------

Result<d4m::AssocArray> AssocShard::Get(const std::string& native) const {
  std::shared_lock lock(mu_);
  auto it = objects_.find(native);
  if (it == objects_.end()) {
    return Status::NotFound("no assoc object named " + native);
  }
  return it->second;
}

void AssocShard::Put(const std::string& native, d4m::AssocArray assoc) {
  std::unique_lock lock(mu_);
  objects_[native] = std::move(assoc);
}

void AssocShard::Erase(const std::string& native) {
  std::unique_lock lock(mu_);
  objects_.erase(native);
}

// ---------------------------------------------------------------------------
// ShardRuntime
// ---------------------------------------------------------------------------

ShardRuntime::ShardRuntime(size_t pool_threads)
    : pool_threads_(pool_threads == 0 ? 1 : pool_threads) {}

ShardRuntime::~ShardRuntime() = default;

void ShardRuntime::DrainPool() {
  std::unique_ptr<ThreadPool> doomed;
  {
    std::lock_guard lock(pool_mu_);
    doomed = std::move(pool_);
  }
  // ~ThreadPool drains the queue and joins the workers, so once `doomed`
  // dies here no scatter task — abandoned or hedged — is still running.
}

ThreadPool* ShardRuntime::pool() {
  std::lock_guard lock(pool_mu_);
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(pool_threads_);
  return pool_.get();
}

relational::Database* ShardRuntime::Relational(int shard) {
  std::lock_guard lock(instances_mu_);
  while (relational_.size() <= static_cast<size_t>(shard)) {
    relational_.push_back(std::make_unique<relational::Database>());
  }
  return relational_[static_cast<size_t>(shard)].get();
}

array::ArrayEngine* ShardRuntime::ArrayAt(int shard) {
  std::lock_guard lock(instances_mu_);
  while (arrays_.size() <= static_cast<size_t>(shard)) {
    arrays_.push_back(std::make_unique<array::ArrayEngine>());
  }
  return arrays_[static_cast<size_t>(shard)].get();
}

AssocShard* ShardRuntime::AssocAt(int shard) {
  std::lock_guard lock(instances_mu_);
  while (assocs_.size() <= static_cast<size_t>(shard)) {
    assocs_.push_back(std::make_unique<AssocShard>());
  }
  return assocs_[static_cast<size_t>(shard)].get();
}

void ShardRuntime::SetInstanceCheck(
    std::function<Status(const std::string&)> check) {
  check_instance_ = std::move(check);
}

Status ShardRuntime::CheckInstance(const std::string& engine, int shard) {
  if (!check_instance_) return Status::OK();
  return check_instance_(ShardInstanceName(engine, shard));
}

void ShardRuntime::SetInstanceDownCheck(
    std::function<bool(const std::string&)> down) {
  instance_down_ = std::move(down);
}

bool ShardRuntime::InstanceConsideredDown(const std::string& engine, int shard) {
  if (!instance_down_) return false;
  return instance_down_(ShardInstanceName(engine, shard));
}

void ShardRuntime::SetPolicyProvider(
    std::function<ShardCallPolicy()> provider) {
  policy_provider_ = std::move(provider);
}

ShardCallPolicy ShardRuntime::CurrentPolicy() {
  ShardCallPolicy policy;
  if (policy_provider_) policy = policy_provider_();
  if (policy.clock == nullptr) policy.clock = obs::Clock::System();
  return policy;
}

void ShardRuntime::ExportMetrics(obs::MetricsRegistry* registry) const {
  if (registry == nullptr) return;
  registry->GetGauge("bigdawg_shard_scatters_total")
      ->Set(static_cast<double>(stats_.scatters.load(std::memory_order_relaxed)));
  registry->GetGauge("bigdawg_shard_calls_total")
      ->Set(static_cast<double>(
          stats_.shard_calls.load(std::memory_order_relaxed)));
  registry->GetGauge("bigdawg_shard_failures_total")
      ->Set(static_cast<double>(
          stats_.shard_failures.load(std::memory_order_relaxed)));
  registry->GetGauge("bigdawg_shard_hedges_total")
      ->Set(static_cast<double>(stats_.hedges.load(std::memory_order_relaxed)));
  registry->GetGauge("bigdawg_shard_retries_total")
      ->Set(static_cast<double>(stats_.retries.load(std::memory_order_relaxed)));
  registry->GetGauge("bigdawg_shard_repartitions_total")
      ->Set(static_cast<double>(
          stats_.repartitions.load(std::memory_order_relaxed)));
  registry->GetGauge("bigdawg_shard_pruned_scatters_total")
      ->Set(static_cast<double>(stats_.pruned.load(std::memory_order_relaxed)));
}

}  // namespace bigdawg::core
