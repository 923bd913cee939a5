#include "common/binary_io.h"

#include "common/macros.h"

namespace bigdawg {

void BinaryWriter::PutValue(const Value& v) {
  PutUint8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kBool:
      PutUint8(v.bool_unchecked() ? 1 : 0);
      break;
    case DataType::kInt64:
      PutInt64(v.int64_unchecked());
      break;
    case DataType::kDouble:
      PutDouble(v.double_unchecked());
      break;
    case DataType::kString:
      PutString(v.string_unchecked());
      break;
  }
}

void BinaryWriter::PutRow(const Row& row) {
  PutUint32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) PutValue(v);
}

void BinaryWriter::PutSchema(const Schema& schema) {
  PutUint32(static_cast<uint32_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    PutString(f.name);
    PutUint8(static_cast<uint8_t>(f.type));
  }
}

Status BinaryReader::GetRaw(void* out, size_t n) {
  if (pos_ + n > data_.size()) {
    return Status::OutOfRange("binary read past end (pos=" + std::to_string(pos_) +
                              ", need=" + std::to_string(n) +
                              ", size=" + std::to_string(data_.size()) + ")");
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Result<uint8_t> BinaryReader::GetUint8() {
  uint8_t v = 0;
  BIGDAWG_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
  return v;
}

Result<uint32_t> BinaryReader::GetUint32() {
  uint32_t v = 0;
  BIGDAWG_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
  return v;
}

Result<int64_t> BinaryReader::GetInt64() {
  int64_t v = 0;
  BIGDAWG_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
  return v;
}

Result<double> BinaryReader::GetDouble() {
  double v = 0;
  BIGDAWG_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
  return v;
}

Result<std::string> BinaryReader::GetString() {
  BIGDAWG_ASSIGN_OR_RETURN(uint32_t len, GetUint32());
  if (pos_ + len > data_.size()) {
    return Status::OutOfRange("string read past end");
  }
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

Result<uint32_t> BinaryReader::GetCount(size_t min_element_bytes) {
  BIGDAWG_ASSIGN_OR_RETURN(uint32_t n, GetUint32());
  if (n > remaining() / min_element_bytes) {
    return Status::OutOfRange("count " + std::to_string(n) + " needs at least " +
                              std::to_string(min_element_bytes) +
                              " bytes each, but only " +
                              std::to_string(remaining()) + " remain");
  }
  return n;
}

Result<Value> BinaryReader::GetValue() {
  BIGDAWG_ASSIGN_OR_RETURN(uint8_t tag, GetUint8());
  switch (static_cast<DataType>(tag)) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool: {
      BIGDAWG_ASSIGN_OR_RETURN(uint8_t b, GetUint8());
      return Result<Value>(std::in_place, b != 0);
    }
    case DataType::kInt64: {
      BIGDAWG_ASSIGN_OR_RETURN(int64_t v, GetInt64());
      return Result<Value>(std::in_place, v);
    }
    case DataType::kDouble: {
      BIGDAWG_ASSIGN_OR_RETURN(double v, GetDouble());
      return Result<Value>(std::in_place, v);
    }
    case DataType::kString: {
      BIGDAWG_ASSIGN_OR_RETURN(std::string s, GetString());
      return Result<Value>(std::in_place, std::move(s));
    }
  }
  return Status::ParseError("bad value tag: " + std::to_string(tag));
}

Result<Row> BinaryReader::GetRow() {
  // A value is at least its type tag.
  BIGDAWG_ASSIGN_OR_RETURN(uint32_t n, GetCount(1));
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(Value v, GetValue());
    row.push_back(std::move(v));
  }
  return row;
}

Result<Schema> BinaryReader::GetSchema() {
  // A field is at least a 4-byte name length and a type tag.
  BIGDAWG_ASSIGN_OR_RETURN(uint32_t n, GetCount(5));
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    BIGDAWG_ASSIGN_OR_RETURN(std::string name, GetString());
    BIGDAWG_ASSIGN_OR_RETURN(uint8_t tag, GetUint8());
    if (tag > static_cast<uint8_t>(DataType::kString)) {
      return Status::ParseError("bad type tag in schema: " + std::to_string(tag));
    }
    fields.emplace_back(std::move(name), static_cast<DataType>(tag));
  }
  return Schema(std::move(fields));
}

}  // namespace bigdawg
