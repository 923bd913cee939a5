#ifndef BIGDAWG_D4M_ASSOC_ARRAY_H_
#define BIGDAWG_D4M_ASSOC_ARRAY_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cow.h"
#include "common/result.h"
#include "common/value.h"

namespace bigdawg::d4m {

/// \brief One (row key, column key, value) entry of an associative array.
struct Triple {
  std::string row;
  std::string col;
  Value value;
};

/// \brief A D4M associative array: a sparse mapping (string row key,
/// string column key) -> Value.
///
/// This single data model unifies spreadsheets (row/col labels), sparse
/// matrices (numeric values), and graphs (adjacency with edge weights) —
/// the abstraction the paper's D4M island builds on. Algebraic operations
/// follow D4M semantics: element-wise add unions supports, element-wise
/// multiply intersects them, and matrix multiply contracts over matching
/// column/row keys.
///
/// An AssocArray is a cheap handle over an immutable, refcounted cell
/// block: copies, shard reads, and cast-cache hits are pointer swaps,
/// and the first mutation of a shared handle clones the block
/// (copy-on-write).
class AssocArray {
 public:
  AssocArray() = default;

  static AssocArray FromTriples(const std::vector<Triple>& triples);
  std::vector<Triple> ToTriples() const;

  /// Sets (or overwrites) one cell; null values erase.
  void Set(const std::string& row, const std::string& col, Value value);
  /// NotFound for absent cells.
  Result<Value> Get(const std::string& row, const std::string& col) const;
  bool Contains(const std::string& row, const std::string& col) const;

  size_t NumNonEmpty() const { return rep_->size; }

  /// O(1) after the first call: resident size carried on the block (key
  /// lengths plus 8 bytes per numeric value, string lengths for
  /// strings). The cast cache's byte accounting.
  int64_t ByteSize() const;

  /// True when both handles alias the same block (a zero-copy share).
  bool SharesStorageWith(const AssocArray& other) const {
    return rep_.SharesWith(other.rep_);
  }
  /// True when no other handle references this block.
  bool UniquelyOwned() const { return rep_.Unique(); }
  /// Ensures exclusive ownership of the block, cloning a shared one.
  AssocArray& Thaw();
  std::vector<std::string> RowKeys() const;
  std::vector<std::string> ColKeys() const;

  /// Visits cells in (row, col) key order.
  void ForEach(const std::function<void(const std::string&, const std::string&,
                                        const Value&)>& fn) const;

  /// Element-wise sum: union of supports; numeric values add, equal
  /// strings collapse, conflicting non-numerics keep the left value.
  AssocArray Add(const AssocArray& other) const;

  /// Element-wise product: intersection of supports; numeric values
  /// multiply, others keep the left value (D4M's And-like semantics).
  AssocArray Multiply(const AssocArray& other) const;

  /// Keeps cells whose value satisfies the predicate.
  AssocArray FilterValues(const std::function<bool(const Value&)>& pred) const;

  /// Keeps cells whose row key is in [lo, hi] (inclusive, lexicographic).
  AssocArray SubRowRange(const std::string& lo, const std::string& hi) const;
  /// Keeps cells whose row key starts with `prefix`.
  AssocArray SubRowPrefix(const std::string& prefix) const;
  /// Keeps cells whose column key is in the given set.
  AssocArray SubCols(const std::vector<std::string>& cols) const;

  AssocArray Transpose() const;

  /// Associative matrix multiply over numeric values:
  /// C(r, c) = sum over k of A(r, k) * B(k, c). Non-numeric cells are
  /// ignored (treated as structural zeros).
  AssocArray MatMul(const AssocArray& other) const;

  /// Row sums over numeric values (out-degree when the array is a graph
  /// adjacency).
  std::map<std::string, double> RowSums() const;

 private:
  /// The refcounted cell block.
  struct Rep : common::CowCount {
    // row -> col -> value, both levels ordered for deterministic scans.
    std::map<std::string, std::map<std::string, Value>> cells;
    size_t size = 0;
    /// Memoized byte size; -1 = not yet computed (benign-race memo).
    mutable std::atomic<int64_t> bytes{-1};

    Rep() = default;
    Rep(const Rep& o) : CowCount(), cells(o.cells), size(o.size) {}
  };

  /// Thaws and drops memoized metadata ahead of in-place mutation.
  Rep* ThawRep();

  common::CowPtr<Rep> rep_;
};

}  // namespace bigdawg::d4m

#endif  // BIGDAWG_D4M_ASSOC_ARRAY_H_
