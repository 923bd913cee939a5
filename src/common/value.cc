#include "common/value.h"

#include <cmath>
#include <cstdlib>
#include <functional>
#include <ostream>
#include <sstream>

namespace bigdawg {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kBool:
      return "bool";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

Result<DataType> DataTypeFromString(const std::string& name) {
  if (name == "null") return DataType::kNull;
  if (name == "bool") return DataType::kBool;
  if (name == "int64" || name == "int" || name == "bigint") return DataType::kInt64;
  if (name == "double" || name == "float8" || name == "real") return DataType::kDouble;
  if (name == "string" || name == "text" || name == "varchar") return DataType::kString;
  return Status::InvalidArgument("unknown data type name: " + name);
}

bool IsNumeric(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDouble;
}

DataType Value::type() const {
  switch (data_.index()) {
    case 0:
      return DataType::kNull;
    case 1:
      return DataType::kBool;
    case 2:
      return DataType::kInt64;
    case 3:
      return DataType::kDouble;
    case 4:
      return DataType::kString;
  }
  return DataType::kNull;
}

Result<bool> Value::AsBool() const {
  if (auto* v = std::get_if<bool>(&data_)) return *v;
  return Status::TypeError("value is not bool: " + ToString());
}

Result<int64_t> Value::AsInt64() const {
  if (auto* v = std::get_if<int64_t>(&data_)) return *v;
  return Status::TypeError("value is not int64: " + ToString());
}

Result<double> Value::AsDouble() const {
  if (auto* v = std::get_if<double>(&data_)) return *v;
  return Status::TypeError("value is not double: " + ToString());
}

Result<std::string> Value::AsString() const {
  if (auto* v = std::get_if<std::string>(&data_)) return *v;
  return Status::TypeError("value is not string: " + ToString());
}

Result<double> Value::ToNumeric() const {
  if (auto* i = std::get_if<int64_t>(&data_)) return static_cast<double>(*i);
  if (auto* d = std::get_if<double>(&data_)) return *d;
  return Status::TypeError("value is not numeric: " + ToString());
}

std::string Value::ToString() const {
  switch (data_.index()) {
    case 0:
      return "null";
    case 1:
      return std::get<bool>(data_) ? "true" : "false";
    case 2:
      return std::to_string(std::get<int64_t>(data_));
    case 3: {
      std::ostringstream oss;
      oss << std::get<double>(data_);
      return oss.str();
    }
    case 4:
      return std::get<std::string>(data_);
  }
  return "null";
}

Result<Value> Value::CastTo(DataType target) const {
  if (is_null()) return Value::Null();
  if (type() == target) return *this;
  switch (target) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool: {
      if (auto* i = std::get_if<int64_t>(&data_)) {
        return Result<Value>(std::in_place, *i != 0);
      }
      if (auto* d = std::get_if<double>(&data_)) {
        return Result<Value>(std::in_place, *d != 0.0);
      }
      if (auto* s = std::get_if<std::string>(&data_)) {
        if (*s == "true" || *s == "1") return Result<Value>(std::in_place, true);
        if (*s == "false" || *s == "0") return Result<Value>(std::in_place, false);
        return Status::TypeError("cannot cast string to bool: " + *s);
      }
      break;
    }
    case DataType::kInt64: {
      if (auto* b = std::get_if<bool>(&data_)) {
        return Result<Value>(std::in_place, static_cast<int64_t>(*b));
      }
      if (auto* d = std::get_if<double>(&data_)) {
        return Result<Value>(std::in_place, static_cast<int64_t>(*d));
      }
      if (auto* s = std::get_if<std::string>(&data_)) {
        return Parse(*s, DataType::kInt64);
      }
      break;
    }
    case DataType::kDouble: {
      if (auto* b = std::get_if<bool>(&data_)) {
        return Result<Value>(std::in_place, *b ? 1.0 : 0.0);
      }
      if (auto* i = std::get_if<int64_t>(&data_)) {
        return Result<Value>(std::in_place, static_cast<double>(*i));
      }
      if (auto* s = std::get_if<std::string>(&data_)) {
        return Parse(*s, DataType::kDouble);
      }
      break;
    }
    case DataType::kString:
      return Result<Value>(std::in_place, ToString());
  }
  return Status::TypeError(std::string("unsupported cast from ") +
                           DataTypeToString(type()) + " to " +
                           DataTypeToString(target));
}

Result<Value> Value::Parse(const std::string& text, DataType type) {
  if (text == "null") return Value::Null();
  if (text.empty() && type != DataType::kString) return Value::Null();
  switch (type) {
    case DataType::kNull:
      return Value::Null();
    case DataType::kBool: {
      if (text == "true" || text == "1") return Result<Value>(std::in_place, true);
      if (text == "false" || text == "0") return Result<Value>(std::in_place, false);
      return Status::ParseError("cannot parse bool: " + text);
    }
    case DataType::kInt64: {
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::ParseError("cannot parse int64: " + text);
      }
      return Result<Value>(std::in_place, static_cast<int64_t>(v));
    }
    case DataType::kDouble: {
      char* end = nullptr;
      errno = 0;
      double v = std::strtod(text.c_str(), &end);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return Status::ParseError("cannot parse double: " + text);
      }
      return Result<Value>(std::in_place, v);
    }
    case DataType::kString:
      return Result<Value>(std::in_place, text);
  }
  return Status::ParseError("cannot parse value: " + text);
}

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  const bool a_null = is_null();
  const bool b_null = other.is_null();
  if (a_null || b_null) {
    if (a_null && b_null) return 0;
    return a_null ? -1 : 1;
  }
  const DataType ta = type();
  const DataType tb = other.type();
  if (IsNumeric(ta) && IsNumeric(tb)) {
    return CompareDoubles(*ToNumeric(), *other.ToNumeric());
  }
  if (ta != tb) return static_cast<int>(ta) < static_cast<int>(tb) ? -1 : 1;
  switch (ta) {
    case DataType::kBool: {
      const bool a = std::get<bool>(data_);
      const bool b = std::get<bool>(other.data_);
      return (a == b) ? 0 : (a ? 1 : -1);
    }
    case DataType::kString: {
      const int c = std::get<std::string>(data_).compare(std::get<std::string>(other.data_));
      return (c < 0) ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

size_t Value::Hash() const {
  switch (data_.index()) {
    case 0:
      return 0x9e3779b97f4a7c15ULL;
    case 1:
      return std::get<bool>(data_) ? 0x5bd1e995 : 0xdeadbeef;
    case 2: {
      // Hash integral values as doubles so 3 and 3.0 collide (they compare
      // equal under Compare()).
      return std::hash<double>()(static_cast<double>(std::get<int64_t>(data_)));
    }
    case 3:
      return std::hash<double>()(std::get<double>(data_));
    case 4:
      return std::hash<std::string>()(std::get<std::string>(data_));
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

size_t HashRow(const Row& row) {
  size_t h = 0x345678;
  for (const Value& v : row) {
    h = h * 1000003 ^ v.Hash();
  }
  return h ^ row.size();
}

}  // namespace bigdawg
