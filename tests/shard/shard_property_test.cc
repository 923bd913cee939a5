// Partition-correctness property tests: for randomly generated tables,
// arrays, and associative arrays, every island query must be
// byte-identical when the object is sharded — at shard counts 1, 2, 7,
// and 16 — to the unsharded oracle captured before partitioning. Covers
// scalar-aggregate pushdown (including key-equality pruning), the
// fallback gather path, and cross-island CASTs of sharded objects.
//
// Data is integer-valued on purpose: partial sums of integers stored in
// doubles are exact, so "byte-identical" holds even for recombined
// SUM/AVG/STDEV and the comparison needs no epsilon.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/bigdawg.h"

namespace bigdawg::core {
namespace {

constexpr int kShardCounts[] = {1, 2, 7, 16};

/// Runs every query and returns the rendered results (the oracle).
std::vector<std::string> Capture(BigDawg* dawg,
                                 const std::vector<std::string>& queries) {
  std::vector<std::string> out;
  for (const std::string& q : queries) {
    auto r = dawg->Execute(q);
    BIGDAWG_CHECK_OK(r.status());
    out.push_back(r->ToString(100000));
  }
  return out;
}

/// Re-runs every query and asserts byte-identical output.
void ExpectMatchesOracle(BigDawg* dawg, const std::vector<std::string>& queries,
                         const std::vector<std::string>& oracle,
                         const std::string& layout) {
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = dawg->Execute(queries[i]);
    ASSERT_TRUE(r.ok()) << layout << " broke: " << queries[i] << "\n"
                        << r.status().ToString();
    EXPECT_EQ(r->ToString(100000), oracle[i])
        << layout << " changed the answer of: " << queries[i];
  }
}

class ShardPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(20260808);

    // Relation: unique id (total order for SELECT *), skewed key k,
    // integer-valued double attribute v (so it CASTs to an array).
    BIGDAWG_CHECK_OK(dawg_.postgres().CreateTable(
        "events", Schema({Field("id", DataType::kInt64),
                          Field("k", DataType::kInt64),
                          Field("v", DataType::kDouble)})));
    std::vector<Row> rows;
    for (int64_t i = 0; i < 60; ++i) {
      rows.push_back({Value(i), Value(rng.NextInt(0, 9)),
                      Value(static_cast<double>(rng.NextInt(-40, 120)))});
    }
    BIGDAWG_CHECK_OK(dawg_.postgres().InsertMany("events", rows));
    BIGDAWG_CHECK_OK(dawg_.RegisterObject("events", kEnginePostgres, "events"));

    // Array: 1-D, sparse (so high shard counts get empty fragments).
    BIGDAWG_CHECK_OK(dawg_.scidb().CreateArray(
        "wave", {array::Dimension("x", 0, 48, 8)}, {"a"}));
    for (int64_t x = 0; x < 48; ++x) {
      if (rng.NextBool(0.2)) continue;  // leave holes
      BIGDAWG_CHECK_OK(dawg_.scidb().SetCell(
          "wave", {x}, {static_cast<double>(rng.NextInt(0, 60))}));
    }
    BIGDAWG_CHECK_OK(dawg_.RegisterObject("wave", kEngineSciDb, "wave"));

    // Associative array: row-keyed graph.
    d4m::AssocArray g;
    for (int r = 0; r < 10; ++r) {
      for (int c = 0; c < 5; ++c) {
        if (rng.NextBool(0.35)) continue;
        g.Set("r" + std::to_string(r), "c" + std::to_string(c),
              Value(static_cast<double>(rng.NextInt(1, 30))));
      }
    }
    dawg_.assoc_store().Put("graph", std::move(g));
    BIGDAWG_CHECK_OK(dawg_.RegisterObject("graph", kEngineD4m, "graph"));
  }

  BigDawg dawg_;
};

TEST_F(ShardPropertyTest, RelationalQueriesMatchOracleAtEveryShardCount) {
  const std::vector<std::string> queries = {
      // Full scan through the gather path (ORDER BY makes it a total
      // order — fragment concatenation does not preserve row order).
      "RELATIONAL(SELECT * FROM events ORDER BY id)",
      // Scalar aggregates: the distributive-pushdown path.
      "RELATIONAL(SELECT COUNT(*) AS c, SUM(v) AS s, AVG(v) AS a, "
      "MIN(v) AS mn, MAX(v) AS mx FROM events)",
      // Unaliased aggregates exercise the output-naming recombination.
      "RELATIONAL(SELECT COUNT(*), SUM(v) FROM events)",
      // Key-equality point aggregate: routed to the single owning shard.
      "RELATIONAL(SELECT COUNT(*) AS c, SUM(v) AS s FROM events WHERE k = 3)",
      // Non-key predicate: scatters to every shard.
      "RELATIONAL(SELECT SUM(v) AS s FROM events WHERE v > 50.0)",
      // GROUP BY is not distributive here: exercises the gather fallback.
      "RELATIONAL(SELECT k, COUNT(*) AS c FROM events GROUP BY k ORDER BY k)",
      // Cross-island CASTs of the sharded relation.
      "RELATIONAL(SELECT COUNT(*) AS n FROM CAST(events, array))",
      "D4M(TRIPLES events)",
      "D4M(ROWSUM events)",
  };
  const std::vector<std::string> oracle = Capture(&dawg_, queries);

  for (int count : kShardCounts) {
    BIGDAWG_CHECK_OK(dawg_.ShardObject("events", count, "k"));
    ExpectMatchesOracle(&dawg_, queries, oracle,
                        "events sharded x" + std::to_string(count));
    if (count > 1) {
      // The point aggregate must actually have pruned its scatter.
      const int64_t pruned_before = dawg_.shards().stats().pruned.load();
      auto r = dawg_.Execute(
          "RELATIONAL(SELECT COUNT(*) AS c FROM events WHERE k = 3)");
      BIGDAWG_CHECK_OK(r.status());
      EXPECT_GT(dawg_.shards().stats().pruned.load(), pruned_before)
          << "point query did not take the pruned path at x" << count;
    }
  }
  BIGDAWG_CHECK_OK(dawg_.UnshardObject("events"));
  ExpectMatchesOracle(&dawg_, queries, oracle, "events unsharded again");
}

TEST_F(ShardPropertyTest, ArrayQueriesMatchOracleAtEveryShardCount) {
  const std::vector<std::string> queries = {
      // Global aggregates: every function the pushdown recombines from
      // {count, sum, sumsq, min, max} partials.
      "ARRAY(aggregate(wave, count, a))",
      "ARRAY(aggregate(wave, sum, a))",
      "ARRAY(aggregate(wave, avg, a))",
      "ARRAY(aggregate(wave, min, a))",
      "ARRAY(aggregate(wave, max, a))",
      "ARRAY(aggregate(wave, stdev, a))",
      // Non-aggregate operators take the gather path.
      "ARRAY(filter(wave, a >= 10))",
      // The sharded array shimmed into the relational island.
      "RELATIONAL(SELECT COUNT(*) AS n FROM wave WHERE a > 20.0)",
      "RELATIONAL(SELECT * FROM wave ORDER BY x)",
  };
  const std::vector<std::string> oracle = Capture(&dawg_, queries);

  for (int count : kShardCounts) {
    BIGDAWG_CHECK_OK(dawg_.ShardObject("wave", count, "x"));
    auto placement = *dawg_.catalog().Placement("wave");
    EXPECT_EQ(placement.kind, PartitionKind::kRange);
    EXPECT_EQ(placement.shard_count, count);
    ExpectMatchesOracle(&dawg_, queries, oracle,
                        "wave sharded x" + std::to_string(count));
  }
  BIGDAWG_CHECK_OK(dawg_.UnshardObject("wave"));
  ExpectMatchesOracle(&dawg_, queries, oracle, "wave unsharded again");
}

TEST_F(ShardPropertyTest, AssocQueriesMatchOracleAtEveryShardCount) {
  const std::vector<std::string> queries = {
      "D4M(TRIPLES graph)",
      "D4M(ROWSUM graph)",  // per-shard row sums merge exactly
      "D4M(TRANSPOSE graph)",
      "D4M(SUBROW graph r1)",
      // The sharded assoc shimmed into the relational island.
      "RELATIONAL(SELECT COUNT(*) AS n FROM graph)",
  };
  const std::vector<std::string> oracle = Capture(&dawg_, queries);

  for (int count : kShardCounts) {
    BIGDAWG_CHECK_OK(dawg_.ShardObject("graph", count));
    ExpectMatchesOracle(&dawg_, queries, oracle,
                        "graph sharded x" + std::to_string(count));
  }
  BIGDAWG_CHECK_OK(dawg_.UnshardObject("graph"));
  ExpectMatchesOracle(&dawg_, queries, oracle, "graph unsharded again");
}

TEST_F(ShardPropertyTest, CrossIslandJoinOverTwoShardedObjects) {
  const std::string query =
      "RELATIONAL(SELECT COUNT(*) AS n FROM events e "
      "JOIN wave w ON e.k = w.x)";
  auto oracle = dawg_.Execute(query);
  BIGDAWG_CHECK_OK(oracle.status());

  BIGDAWG_CHECK_OK(dawg_.ShardObject("events", 7, "k"));
  BIGDAWG_CHECK_OK(dawg_.ShardObject("wave", 7, "x"));
  auto sharded = dawg_.Execute(query);
  BIGDAWG_CHECK_OK(sharded.status());
  EXPECT_EQ(sharded->ToString(1000), oracle->ToString(1000));
}

}  // namespace
}  // namespace bigdawg::core
