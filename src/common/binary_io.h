#ifndef BIGDAWG_COMMON_BINARY_IO_H_
#define BIGDAWG_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/value.h"

namespace bigdawg {

/// \brief Append-only binary encoder used by the direct (non-file) CAST path
/// and by the stream engine's command log.
class BinaryWriter {
 public:
  void PutUint8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutUint32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutInt64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(const std::string& s) {
    PutUint32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void PutValue(const Value& v);
  void PutRow(const Row& row);
  void PutSchema(const Schema& schema);

  const std::string& data() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// \brief Sequential decoder matching BinaryWriter; every accessor is
/// bounds-checked and returns OutOfRange past the end.
///
/// The input is untrusted (it comes from another engine), so a count read
/// from it is never used to size an allocation before it is checked: a
/// count whose elements the remaining bytes cannot hold fails with
/// OutOfRange and allocates nothing.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetUint8();
  Result<uint32_t> GetUint32();
  Result<int64_t> GetInt64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<Value> GetValue();
  Result<Row> GetRow();
  Result<Schema> GetSchema();

  /// Reads a uint32 element count and returns OutOfRange if that many
  /// elements of at least `min_element_bytes` each cannot fit in the bytes
  /// that remain, so the caller may reserve() the count it gets back.
  Result<uint32_t> GetCount(size_t min_element_bytes);

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status GetRaw(void* out, size_t n);
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace bigdawg

#endif  // BIGDAWG_COMMON_BINARY_IO_H_
