#include "core/wire_format.h"

#include <algorithm>
#include <cstring>

#include "common/columnar.h"
#include "common/macros.h"
#include "common/varint.h"

namespace bigdawg::core {

namespace {

constexpr char kMagic[4] = {'B', 'D', 'W', '1'};
constexpr uint8_t kKindTable = 1;
constexpr uint8_t kKindArray = 2;
constexpr uint8_t kKindAssoc = 3;

/// Per-column encoding byte: a uniform DataType code, or per-cell tags.
constexpr uint8_t kEncodingMixed = 0xff;

void PutLengthPrefixed(std::string* out, const std::string& s) {
  common::PutVarint64(out, s.size());
  out->append(s);
}

Result<std::string> GetLengthPrefixed(common::VarintReader* reader) {
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t len, reader->GetVarint64());
  BIGDAWG_ASSIGN_OR_RETURN(const char* bytes, reader->GetBytes(len));
  return std::string(bytes, len);
}

/// Doubles travel as their exact 8-byte little-endian bit pattern so the
/// round trip is lossless (including -0.0 and NaN payloads).
void PutFixed64(std::string* out, uint64_t bits) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(bits >> (8 * i));
  out->append(buf, 8);
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutFixed64(out, bits);
}

Result<double> GetDouble(common::VarintReader* reader) {
  BIGDAWG_ASSIGN_OR_RETURN(const char* bytes, reader->GetBytes(8));
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i])) << (8 * i);
  }
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

/// Payload of one non-null cell, sans type tag.
void PutValuePayload(std::string* out, const Value& v) {
  switch (v.type()) {
    case DataType::kBool:
      out->push_back(v.bool_unchecked() ? 1 : 0);
      break;
    case DataType::kInt64:
      common::PutVarintSigned(out, v.int64_unchecked());
      break;
    case DataType::kDouble:
      PutDouble(out, v.double_unchecked());
      break;
    case DataType::kString:
      PutLengthPrefixed(out, v.string_unchecked());
      break;
    case DataType::kNull:
      break;  // unreachable: nulls live in the bitmap, not the payload
  }
}

Result<Value> GetValuePayload(common::VarintReader* reader, DataType type) {
  switch (type) {
    case DataType::kBool: {
      BIGDAWG_ASSIGN_OR_RETURN(uint8_t b, reader->GetByte());
      return Value(b != 0);
    }
    case DataType::kInt64: {
      BIGDAWG_ASSIGN_OR_RETURN(int64_t v, reader->GetVarintSigned());
      return Value(v);
    }
    case DataType::kDouble: {
      BIGDAWG_ASSIGN_OR_RETURN(double v, GetDouble(reader));
      return Value(v);
    }
    case DataType::kString: {
      BIGDAWG_ASSIGN_OR_RETURN(std::string s, GetLengthPrefixed(reader));
      return Value(std::move(s));
    }
    case DataType::kNull:
      return Value::Null();
  }
  return Status::InvalidArgument("bad value type tag");
}

Result<DataType> CheckTypeTag(uint64_t tag) {
  if (tag > static_cast<uint64_t>(DataType::kString)) {
    return Status::InvalidArgument("bad data type tag " + std::to_string(tag));
  }
  return static_cast<DataType>(tag);
}

void PutFrameHeader(std::string* out, uint8_t kind) {
  out->append(kMagic, 4);
  out->push_back(static_cast<char>(kind));
}

Status CheckFrameHeader(common::VarintReader* reader, uint8_t want_kind) {
  BIGDAWG_ASSIGN_OR_RETURN(const char* magic, reader->GetBytes(4));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::InvalidArgument("bad wire magic");
  }
  BIGDAWG_ASSIGN_OR_RETURN(uint8_t kind, reader->GetByte());
  if (kind != want_kind) {
    return Status::InvalidArgument("wire frame kind mismatch: got " +
                                   std::to_string(kind) + ", want " +
                                   std::to_string(want_kind));
  }
  return Status::OK();
}

/// Refuses a count of elements that take at least `min_bytes` each when the
/// bytes left in the frame cannot hold them, before anything is sized by it.
Status CheckCount(const common::VarintReader& reader, uint64_t count,
                  uint64_t min_bytes, const char* what) {
  if (count > reader.remaining() / min_bytes) {
    return Status::InvalidArgument(
        std::string(what) + " count " + std::to_string(count) +
        " exceeds what the remaining " + std::to_string(reader.remaining()) +
        " bytes can hold");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

std::string EncodeTable(const relational::Table& table) {
  std::string out;
  PutFrameHeader(&out, kKindTable);

  const Schema& schema = table.schema();
  common::PutVarint64(&out, schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& f = schema.field(i);
    PutLengthPrefixed(&out, f.name);
    out.push_back(static_cast<char>(f.type));
  }

  const size_t n = table.num_rows();
  common::PutVarint64(&out, n);

  for (size_t c = 0; c < schema.num_fields(); ++c) {
    common::ColumnView col = table.ColumnAt(c);

    // Uniform when every non-null cell shares one runtime type; cells may
    // diverge from the declared type via AppendUnchecked, hence the scan.
    DataType uniform = DataType::kNull;
    bool mixed = false;
    for (size_t r = 0; r < n; ++r) {
      if (col.IsNull(r)) continue;
      if (uniform == DataType::kNull) {
        uniform = col[r].type();
      } else if (col[r].type() != uniform) {
        mixed = true;
        break;
      }
    }
    out.push_back(mixed ? static_cast<char>(kEncodingMixed)
                        : static_cast<char>(uniform));

    // Null bitmap: raw little-endian 64-row words.
    const size_t words = (n + 63) / 64;
    for (size_t w = 0; w < words; ++w) {
      uint64_t word = 0;
      for (size_t b = 0; b < 64 && w * 64 + b < n; ++b) {
        if (col.IsNull(w * 64 + b)) word |= uint64_t{1} << b;
      }
      PutFixed64(&out, word);
    }

    for (size_t r = 0; r < n; ++r) {
      if (col.IsNull(r)) continue;
      if (mixed) out.push_back(static_cast<char>(col[r].type()));
      PutValuePayload(&out, col[r]);
    }
  }
  return out;
}

Result<relational::Table> DecodeTable(const std::string& wire) {
  common::VarintReader reader(wire);
  BIGDAWG_RETURN_NOT_OK(CheckFrameHeader(&reader, kKindTable));

  BIGDAWG_ASSIGN_OR_RETURN(uint64_t num_fields, reader.GetVarint64());
  // A field is at least a name-length varint and a type byte.
  BIGDAWG_RETURN_NOT_OK(CheckCount(reader, num_fields, 2, "field"));
  std::vector<Field> fields;
  fields.reserve(num_fields);
  for (uint64_t i = 0; i < num_fields; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(std::string name, GetLengthPrefixed(&reader));
    BIGDAWG_ASSIGN_OR_RETURN(uint8_t tag, reader.GetByte());
    BIGDAWG_ASSIGN_OR_RETURN(DataType type, CheckTypeTag(tag));
    fields.emplace_back(std::move(name), type);
  }

  BIGDAWG_ASSIGN_OR_RETURN(uint64_t n, reader.GetVarint64());
  if (num_fields > 0) {
    // Each column stores ceil(n/64) 8-byte null-bitmap words.
    BIGDAWG_RETURN_NOT_OK(CheckCount(reader, n / 64 + (n % 64 != 0),
                                     8 * num_fields, "bitmap word"));
  } else if (n > wire.size()) {
    // Zero-field rows carry no bytes. At most one row per frame byte keeps
    // the decoded table within a small multiple of its input.
    return Status::InvalidArgument("zero-field row count " +
                                   std::to_string(n) + " exceeds the " +
                                   std::to_string(wire.size()) +
                                   "-byte frame");
  }
  // Column-major decode into row-major storage.
  std::vector<Row> rows(n);
  for (auto& row : rows) row.resize(num_fields);

  for (uint64_t c = 0; c < num_fields; ++c) {
    BIGDAWG_ASSIGN_OR_RETURN(uint8_t enc, reader.GetByte());
    const bool mixed = enc == kEncodingMixed;
    DataType uniform = DataType::kNull;
    if (!mixed) {
      BIGDAWG_ASSIGN_OR_RETURN(uniform, CheckTypeTag(enc));
    }

    const size_t words = (n + 63) / 64;
    std::vector<uint64_t> bitmap(words, 0);
    for (size_t w = 0; w < words; ++w) {
      BIGDAWG_ASSIGN_OR_RETURN(const char* bytes, reader.GetBytes(8));
      uint64_t word = 0;
      for (int i = 0; i < 8; ++i) {
        word |= static_cast<uint64_t>(static_cast<uint8_t>(bytes[i]))
                << (8 * i);
      }
      bitmap[w] = word;
    }

    for (uint64_t r = 0; r < n; ++r) {
      if ((bitmap[r >> 6] >> (r & 63)) & 1u) continue;  // stays null
      DataType type = uniform;
      if (mixed) {
        BIGDAWG_ASSIGN_OR_RETURN(uint8_t tag, reader.GetByte());
        BIGDAWG_ASSIGN_OR_RETURN(type, CheckTypeTag(tag));
      }
      BIGDAWG_ASSIGN_OR_RETURN(Value v, GetValuePayload(&reader, type));
      rows[r][c] = std::move(v);
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after table frame");
  }

  relational::Table out{Schema(std::move(fields))};
  for (Row& row : rows) out.AppendUnchecked(std::move(row));
  return out;
}

// ---------------------------------------------------------------------------
// Array
// ---------------------------------------------------------------------------

std::string EncodeArray(const array::Array& array) {
  std::string out;
  PutFrameHeader(&out, kKindArray);

  common::PutVarint64(&out, array.num_dims());
  for (const array::Dimension& d : array.dims()) {
    PutLengthPrefixed(&out, d.name);
    common::PutVarintSigned(&out, d.start);
    common::PutVarint64(&out, static_cast<uint64_t>(d.length));
    common::PutVarint64(&out, static_cast<uint64_t>(d.chunk_length));
  }
  common::PutVarint64(&out, array.num_attrs());
  for (const std::string& a : array.attrs()) PutLengthPrefixed(&out, a);

  // Canonical cell order: chunk iteration order is an unordered_map
  // artifact, so collect and sort by coordinates before emitting.
  struct Cell {
    array::Coordinates coords;
    std::vector<double> values;
  };
  std::vector<Cell> cells;
  array.Scan([&cells](const array::Coordinates& coords,
                      const std::vector<double>& values) {
    cells.push_back(Cell{coords, values});
    return true;
  });
  std::sort(cells.begin(), cells.end(),
            [](const Cell& a, const Cell& b) { return a.coords < b.coords; });

  common::PutVarint64(&out, cells.size());
  for (const Cell& cell : cells) {
    for (int64_t c : cell.coords) common::PutVarintSigned(&out, c);
    for (double v : cell.values) PutDouble(&out, v);
  }
  return out;
}

Result<array::Array> DecodeArray(const std::string& wire) {
  common::VarintReader reader(wire);
  BIGDAWG_RETURN_NOT_OK(CheckFrameHeader(&reader, kKindArray));

  BIGDAWG_ASSIGN_OR_RETURN(uint64_t num_dims, reader.GetVarint64());
  // A dimension is at least four varints: name length, start, length and
  // chunk length.
  BIGDAWG_RETURN_NOT_OK(CheckCount(reader, num_dims, 4, "dimension"));
  std::vector<array::Dimension> dims;
  dims.reserve(num_dims);
  for (uint64_t i = 0; i < num_dims; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(std::string name, GetLengthPrefixed(&reader));
    BIGDAWG_ASSIGN_OR_RETURN(int64_t start, reader.GetVarintSigned());
    BIGDAWG_ASSIGN_OR_RETURN(uint64_t length, reader.GetVarint64());
    BIGDAWG_ASSIGN_OR_RETURN(uint64_t chunk_length, reader.GetVarint64());
    dims.emplace_back(std::move(name), start, static_cast<int64_t>(length),
                      static_cast<int64_t>(chunk_length));
  }
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t num_attrs, reader.GetVarint64());
  // An attribute is at least its name-length varint.
  BIGDAWG_RETURN_NOT_OK(CheckCount(reader, num_attrs, 1, "attribute"));
  std::vector<std::string> attrs;
  attrs.reserve(num_attrs);
  for (uint64_t i = 0; i < num_attrs; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(std::string a, GetLengthPrefixed(&reader));
    attrs.push_back(std::move(a));
  }

  BIGDAWG_ASSIGN_OR_RETURN(array::Array out,
                           array::Array::Create(std::move(dims),
                                                std::move(attrs)));
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t cells, reader.GetVarint64());
  array::Coordinates coords(num_dims);
  std::vector<double> values(num_attrs);
  for (uint64_t i = 0; i < cells; ++i) {
    for (uint64_t d = 0; d < num_dims; ++d) {
      BIGDAWG_ASSIGN_OR_RETURN(coords[d], reader.GetVarintSigned());
    }
    for (uint64_t a = 0; a < num_attrs; ++a) {
      BIGDAWG_ASSIGN_OR_RETURN(values[a], GetDouble(&reader));
    }
    BIGDAWG_RETURN_NOT_OK(out.Set(coords, values));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after array frame");
  }
  return out;
}

// ---------------------------------------------------------------------------
// AssocArray
// ---------------------------------------------------------------------------

std::string EncodeAssoc(const d4m::AssocArray& assoc) {
  std::string out;
  PutFrameHeader(&out, kKindAssoc);
  common::PutVarint64(&out, assoc.NumNonEmpty());
  // ForEach visits in (row, col) key order: already canonical.
  assoc.ForEach([&out](const std::string& row, const std::string& col,
                       const Value& value) {
    PutLengthPrefixed(&out, row);
    PutLengthPrefixed(&out, col);
    out.push_back(static_cast<char>(value.type()));
    PutValuePayload(&out, value);
  });
  return out;
}

Result<d4m::AssocArray> DecodeAssoc(const std::string& wire) {
  common::VarintReader reader(wire);
  BIGDAWG_RETURN_NOT_OK(CheckFrameHeader(&reader, kKindAssoc));
  BIGDAWG_ASSIGN_OR_RETURN(uint64_t cells, reader.GetVarint64());
  d4m::AssocArray out;
  for (uint64_t i = 0; i < cells; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(std::string row, GetLengthPrefixed(&reader));
    BIGDAWG_ASSIGN_OR_RETURN(std::string col, GetLengthPrefixed(&reader));
    BIGDAWG_ASSIGN_OR_RETURN(uint8_t tag, reader.GetByte());
    BIGDAWG_ASSIGN_OR_RETURN(DataType type, CheckTypeTag(tag));
    BIGDAWG_ASSIGN_OR_RETURN(Value v, GetValuePayload(&reader, type));
    if (v.is_null()) {
      return Status::InvalidArgument("assoc wire cell with null value");
    }
    out.Set(std::move(row), std::move(col), std::move(v));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after assoc frame");
  }
  return out;
}

}  // namespace bigdawg::core
