#ifndef BIGDAWG_CORE_CAST_H_
#define BIGDAWG_CORE_CAST_H_

#include <string>
#include <vector>

#include "array/array.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "d4m/assoc_array.h"
#include "relational/table.h"
#include "tiledb/tiledb.h"

namespace bigdawg::core {

/// \brief Data models objects can be CAST between.
enum class DataModel : int { kRelation, kArray, kAssociative, kTileMatrix };

Result<DataModel> DataModelFromString(const std::string& name);
const char* DataModelToString(DataModel model);

/// \brief The data model an engine natively stores (the text and stream
/// engines surface their data relationally through the shims). Used to
/// label the `from` side of CAST trace spans.
const char* DataModelNameForEngine(const std::string& engine);

/// \brief Rough wire size of a relation: 8 bytes per scalar cell, string
/// lengths for strings, 1 byte per NULL. This is the `bytes` tag on CAST
/// trace spans — an estimate of how much data the cast moved between
/// engines, not an exact allocation count. Delegates to the block-carried
/// Table::ByteSize() memo, so it is O(1) after the block's first
/// measurement instead of an O(cells) rescan.
int64_t EstimateTableBytes(const relational::Table& table);

/// \brief Rough resident size of an array: allocated chunk storage
/// (chunks x chunk volume x attributes x 8 bytes) plus the filled bitmap.
/// Used by the cast cache for its byte accounting. O(1): chunk-count
/// metadata, no cell scan.
int64_t EstimateArrayBytes(const array::Array& array);

/// \brief Rough resident size of an associative array: key lengths plus
/// 8 bytes per numeric value, string lengths for strings. Used by the
/// cast cache for its byte accounting. Delegates to the block-carried
/// AssocArray::ByteSize() memo — O(1) after the first measurement.
int64_t EstimateAssocBytes(const d4m::AssocArray& assoc);

// ---------------------------------------------------------------------------
// Direct (in-memory, binary) casts — the efficient path the paper calls
// for ("an access method that knows how to read binary data in parallel
// directly from another engine").
// ---------------------------------------------------------------------------

/// \brief Relation -> array. Integer columns become dimensions (in schema
/// order), numeric columns become attributes. Requires >= 1 int64 column
/// and >= 1 double column; rows with NULL dimension cells are rejected.
/// Dimension ranges are derived from the data; `chunk_length` applies to
/// every dimension.
Result<array::Array> TableToArray(const relational::Table& table,
                                  int64_t chunk_length = 256);

/// \brief Array -> relation: one row per non-empty cell, dimensions first
/// (int64), then attributes (double).
Result<relational::Table> ArrayToTable(const array::Array& array);

/// \brief Relation -> associative array. The first column supplies row
/// keys; every other column contributes a (row, column-name, value) cell.
Result<d4m::AssocArray> TableToAssoc(const relational::Table& table);

/// \brief Associative array -> relation of (row, col, value) triples; the
/// value column is double when all values are numeric, string otherwise.
Result<relational::Table> AssocToTable(const d4m::AssocArray& assoc);

/// \brief 2-D array (attribute 0) -> TileDB matrix.
Result<tiledb::TileDbArray> ArrayToTileMatrix(const array::Array& array,
                                              int64_t tile_rows = 64,
                                              int64_t tile_cols = 64);

/// \brief TileDB matrix -> 2-D array with attribute "val".
Result<array::Array> TileMatrixToArray(const tiledb::TileDbArray& matrix,
                                       int64_t chunk_length = 64);

/// \brief Associative array -> 2-D array: row/col keys are ordinally
/// encoded (sorted order); only numeric cells transfer.
Result<array::Array> AssocToArray(const d4m::AssocArray& assoc);

// ---------------------------------------------------------------------------
// Serialized casts. The binary pair is the wire format a cross-engine
// shim would stream; the CSV pair is the file-based import/export
// baseline the paper says direct casts must beat (experiment C4).
// ---------------------------------------------------------------------------

/// \brief Serializes a relation to the compact binary wire format.
std::string TableToBinary(const relational::Table& table);
/// \brief Parses the binary wire format back into a relation. Input past
/// its end, or a field, row or value count that the remaining bytes cannot
/// hold, fails with OutOfRange before anything is allocated for it; a bad
/// type tag fails with ParseError.
Result<relational::Table> TableFromBinary(const std::string& data);

/// \brief Chunked variant of the binary wire format that serializes and
/// parses row ranges concurrently on `pool` — the paper's "read binary
/// data in parallel directly from another engine". The chunked format is
/// distinct from (not interchangeable with) the TableToBinary format.
/// Decoding bounds every count as TableFromBinary does (OutOfRange, with
/// no allocation sized by it), chunk-length entries included, and refuses
/// chunk lengths that do not add up to the input with ParseError.
std::string TableToBinaryParallel(const relational::Table& table,
                                  ThreadPool* pool, size_t num_chunks = 0);
Result<relational::Table> TableFromBinaryParallel(const std::string& data,
                                                  ThreadPool* pool);

/// \brief Round-trips a relation through a CSV file on disk (export +
/// re-import), returning the re-imported table. Used as the slow-path
/// baseline; `path` is created/overwritten.
Result<relational::Table> TableViaCsvFile(const relational::Table& table,
                                          const std::string& path);

}  // namespace bigdawg::core

#endif  // BIGDAWG_CORE_CAST_H_
