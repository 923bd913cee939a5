#include "array/array.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/wire_format.h"

namespace bigdawg::array {
namespace {

Array Make2D() {
  Array a = *Array::Create(
      {Dimension("row", 0, 4, 2), Dimension("col", 0, 6, 3)}, {"v", "w"});
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 6; ++c) {
      BIGDAWG_CHECK_OK(a.Set({r, c}, {static_cast<double>(r * 6 + c),
                                      static_cast<double>(r)}));
    }
  }
  return a;
}

TEST(ArrayTest, CreateValidation) {
  EXPECT_TRUE(Array::Create({}, {"v"}).status().IsInvalidArgument());
  EXPECT_TRUE(Array::Create({Dimension("i", 0, 10, 2)}, {}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Array::Create({Dimension("i", 0, 0, 2)}, {"v"}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Array::Create({Dimension("i", 0, 10, 0)}, {"v"}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Array::Create({Dimension("i", 0, 4, 2)}, {"v", "v"}).status()
                  .IsInvalidArgument());
}

TEST(ArrayTest, CreateRefusesOverflowingExtents) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_TRUE(Array::Create({Dimension("i", kMax - 1, 4, 2)}, {"v"}).status()
                  .IsInvalidArgument());
  // 2^32 * 2^32 wraps the chunk volume; Set would index a 0-cell chunk.
  EXPECT_TRUE(Array::Create({Dimension("i", 0, 4, int64_t{1} << 32),
                             Dimension("j", 0, 4, int64_t{1} << 32)},
                            {"v"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Array::Create({Dimension("i", 0, 4, int64_t{1} << 31),
                             Dimension("j", 0, 4, int64_t{1} << 31)},
                            {"v"})
                  .ok());
}

TEST(ArrayTest, CreateRejectsDuplicateAttributes) {
  // About 20k distinct names of one width; a decoded frame may carry this
  // many, so the check must not compare them pairwise.
  const std::vector<Dimension> dims = {Dimension("i", 0, 4, 2)};
  std::vector<std::string> names;
  for (int i = 0; i < 20000; ++i) names.push_back("a" + std::to_string(100000 + i));
  ASSERT_TRUE(Array::Create(dims, names).ok());
  const size_t n = names.size();
  for (auto [dup, of] : {std::pair<size_t, size_t>{1, 0}, {n - 1, n - 2}, {n - 1, 0}}) {
    std::vector<std::string> attrs = names;
    attrs[dup] = attrs[of];
    EXPECT_TRUE(Array::Create(dims, attrs).status().IsInvalidArgument())
        << "duplicate at " << of << " and " << dup;
  }

  // The same names in an array wire frame, the last renamed to the first.
  std::string wire = core::EncodeArray(*Array::Create(dims, names));
  const size_t last = wire.rfind(names.back());
  ASSERT_NE(last, std::string::npos);
  wire.replace(last, names.back().size(), names.front());
  EXPECT_TRUE(core::DecodeArray(wire).status().IsInvalidArgument());
}

TEST(ArrayTest, SetGetRoundTrip) {
  Array a = *Array::Create({Dimension("i", 0, 10, 4)}, {"v"});
  BIGDAWG_CHECK_OK(a.Set({3}, {2.5}));
  EXPECT_EQ((*a.Get({3}))[0], 2.5);
  EXPECT_TRUE(a.Get({4}).status().IsNotFound());  // empty cell
  EXPECT_TRUE(a.Get({10}).status().IsOutOfRange());
  EXPECT_TRUE(a.Set({-1}, {0.0}).IsOutOfRange());
  EXPECT_TRUE(a.Set({0}, {1.0, 2.0}).IsInvalidArgument());  // arity
  EXPECT_EQ(a.NonEmptyCount(), 1);
}

TEST(ArrayTest, NonZeroStartCoordinates) {
  Array a = *Array::Create({Dimension("t", 100, 10, 4)}, {"v"});
  BIGDAWG_CHECK_OK(a.Set({105}, {7.0}));
  EXPECT_EQ((*a.Get({105}))[0], 7.0);
  EXPECT_TRUE(a.Set({99}, {0.0}).IsOutOfRange());
  EXPECT_TRUE(a.Set({110}, {0.0}).IsOutOfRange());
}

TEST(ArrayTest, OverwriteDoesNotDoubleCount) {
  Array a = *Array::Create({Dimension("i", 0, 4, 2)}, {"v"});
  BIGDAWG_CHECK_OK(a.Set({1}, {1.0}));
  BIGDAWG_CHECK_OK(a.Set({1}, {2.0}));
  EXPECT_EQ(a.NonEmptyCount(), 1);
  EXPECT_EQ((*a.Get({1}))[0], 2.0);
}

TEST(ArrayTest, ScanVisitsInOrder) {
  Array a = Make2D();
  std::vector<Coordinates> visited;
  a.Scan([&](const Coordinates& c, const std::vector<double>&) {
    visited.push_back(c);
    return true;
  });
  EXPECT_EQ(visited.size(), 24u);
  // Deterministic chunk order, in-chunk row-major: first cell is (0,0).
  EXPECT_EQ(visited.front(), (Coordinates{0, 0}));
}

TEST(ArrayTest, ScanEarlyStop) {
  Array a = Make2D();
  int count = 0;
  a.Scan([&](const Coordinates&, const std::vector<double>&) {
    return ++count < 5;
  });
  EXPECT_EQ(count, 5);
}

TEST(ArrayTest, SubarrayPreservesCoordinates) {
  Array a = Make2D();
  Array sub = *a.Subarray({1, 2}, {2, 4});
  EXPECT_EQ(sub.dims()[0].start, 1);
  EXPECT_EQ(sub.dims()[0].length, 2);
  EXPECT_EQ(sub.dims()[1].length, 3);
  EXPECT_EQ(sub.NonEmptyCount(), 6);
  EXPECT_EQ((*sub.Get({2, 3}))[0], 2 * 6 + 3);
  EXPECT_TRUE(sub.Get({0, 2}).status().IsOutOfRange());
}

TEST(ArrayTest, SubarrayValidation) {
  Array a = Make2D();
  EXPECT_TRUE(a.Subarray({0}, {1, 1}).status().IsInvalidArgument());
  EXPECT_TRUE(a.Subarray({2, 2}, {1, 1}).status().IsInvalidArgument());
}

TEST(ArrayTest, FilterKeepsMatching) {
  Array a = Make2D();
  Array filtered = *a.Filter([](const std::vector<double>& v) { return v[0] >= 20; });
  EXPECT_EQ(filtered.NonEmptyCount(), 4);  // values 20..23
  EXPECT_EQ(filtered.dims()[0].length, a.dims()[0].length);
}

TEST(ArrayTest, AggregateFunctions) {
  Array a = Make2D();  // v = 0..23
  EXPECT_EQ(*a.Aggregate(AggFunc::kCount, 0), 24.0);
  EXPECT_EQ(*a.Aggregate(AggFunc::kSum, 0), 276.0);
  EXPECT_EQ(*a.Aggregate(AggFunc::kAvg, 0), 11.5);
  EXPECT_EQ(*a.Aggregate(AggFunc::kMin, 0), 0.0);
  EXPECT_EQ(*a.Aggregate(AggFunc::kMax, 0), 23.0);
  EXPECT_NEAR(*a.Aggregate(AggFunc::kStdev, 0), 6.922, 1e-3);
}

TEST(ArrayTest, AggregateEmptyArray) {
  Array a = *Array::Create({Dimension("i", 0, 4, 2)}, {"v"});
  EXPECT_EQ(*a.Aggregate(AggFunc::kCount, 0), 0.0);
  EXPECT_TRUE(a.Aggregate(AggFunc::kAvg, 0).status().IsFailedPrecondition());
}

TEST(ArrayTest, AggregateByDimension) {
  Array a = Make2D();
  auto by_row = *a.AggregateBy(AggFunc::kSum, 0, 0);
  ASSERT_EQ(by_row.size(), 4u);
  EXPECT_EQ(by_row[0], (std::pair<int64_t, double>{0, 15.0}));   // 0+..+5
  EXPECT_EQ(by_row[3], (std::pair<int64_t, double>{3, 123.0}));  // 18+..+23
}

TEST(ArrayTest, WindowAggregateSmooths) {
  Array a = *Array::FromVector({1, 2, 3, 4, 5});
  Array smoothed = *a.WindowAggregate(AggFunc::kAvg, 0, 1);
  auto v = *smoothed.ToVector(0);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[0], 1.5);  // (1+2)/2 at the edge
  EXPECT_DOUBLE_EQ(v[2], 3.0);  // (2+3+4)/3
  EXPECT_DOUBLE_EQ(v[4], 4.5);
}

TEST(ArrayTest, WindowRequiresOneD) {
  Array a = Make2D();
  EXPECT_TRUE(a.WindowAggregate(AggFunc::kAvg, 0, 1).status().IsFailedPrecondition());
}

TEST(ArrayTest, MatrixRoundTripAndOps) {
  Array m = *Array::FromMatrix({{1, 2}, {3, 4}});
  auto back = *m.ToMatrix(0);
  EXPECT_EQ(back[1][0], 3.0);

  Array t = *m.Transpose();
  auto tm = *t.ToMatrix(0);
  EXPECT_EQ(tm[0][1], 3.0);

  Array identity = *Array::FromMatrix({{1, 0}, {0, 1}});
  Array product = *m.Matmul(identity);
  auto pm = *product.ToMatrix(0);
  EXPECT_EQ(pm[0][0], 1.0);
  EXPECT_EQ(pm[1][1], 4.0);

  Array square = *m.Matmul(m);
  auto sm = *square.ToMatrix(0);
  EXPECT_EQ(sm[0][0], 7.0);   // 1*1+2*3
  EXPECT_EQ(sm[0][1], 10.0);
  EXPECT_EQ(sm[1][0], 15.0);
  EXPECT_EQ(sm[1][1], 22.0);
}

TEST(ArrayTest, MatmulDimensionMismatch) {
  Array a = *Array::FromMatrix({{1, 2, 3}});
  Array b = *Array::FromMatrix({{1, 2}});
  EXPECT_TRUE(a.Matmul(b).status().IsInvalidArgument());
}

class ArrayChunkSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(ArrayChunkSweep, AggregatesIndependentOfChunking) {
  const int64_t chunk = GetParam();
  Array a = *Array::Create({Dimension("i", 0, 100, chunk)}, {"v"});
  double expected_sum = 0;
  for (int64_t i = 0; i < 100; ++i) {
    BIGDAWG_CHECK_OK(a.Set({i}, {static_cast<double>(i) * 0.5}));
    expected_sum += static_cast<double>(i) * 0.5;
  }
  EXPECT_DOUBLE_EQ(*a.Aggregate(AggFunc::kSum, 0), expected_sum);
  EXPECT_EQ(a.NonEmptyCount(), 100);
  Array sub = *a.Subarray({10}, {19});
  EXPECT_EQ(sub.NonEmptyCount(), 10);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ArrayChunkSweep,
                         ::testing::Values(1, 3, 7, 10, 64, 100, 1000));

}  // namespace
}  // namespace bigdawg::array
