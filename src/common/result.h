#ifndef BIGDAWG_COMMON_RESULT_H_
#define BIGDAWG_COMMON_RESULT_H_

#include <cstdlib>
#include <utility>
#include <variant>

#include "common/status.h"

namespace bigdawg {

/// \brief A value-or-error holder, modeled on arrow::Result.
///
/// Exactly one of {value, error status} is held. Constructing from an OK
/// Status is a programming error and aborts.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value.
  Result(T value) : holder_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Constructs the value in place, with no temporary to move: under
  /// -fsanitize=address, GCC 12 reports a moved Value temporary's inactive
  /// std::string alternative as maybe-uninitialized.
  template <typename... Args>
  explicit Result(std::in_place_t, Args&&... args)
      : holder_(std::in_place_index<0>, std::forward<Args>(args)...) {}
  /// Implicit construction from an error status.
  Result(Status status) : holder_(std::move(status)) {  // NOLINT(runtime/explicit)
    if (this->status().ok()) {
      Status::Internal("Result constructed from OK status").Abort();
    }
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) noexcept = default;
  Result& operator=(Result&&) noexcept = default;

  bool ok() const { return std::holds_alternative<T>(holder_); }

  /// The error status; Status::OK() if a value is held.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(holder_);
  }

  /// Value accessors; abort if an error is held (check ok() first).
  const T& ValueOrDie() const& {
    EnsureOk();
    return std::get<T>(holder_);
  }
  T& ValueOrDie() & {
    EnsureOk();
    return std::get<T>(holder_);
  }
  T&& ValueOrDie() && {
    EnsureOk();
    return std::move(std::get<T>(holder_));
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  T&& operator*() && { return std::move(*this).ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Moves the value out, leaving the Result unspecified.
  T MoveValueUnsafe() { return std::move(std::get<T>(holder_)); }

  /// Returns the value or `alternative` when an error is held.
  T ValueOr(T alternative) const {
    return ok() ? std::get<T>(holder_) : std::move(alternative);
  }

 private:
  void EnsureOk() const {
    if (!ok()) std::get<Status>(holder_).Abort("Result::ValueOrDie");
  }

  std::variant<T, Status> holder_;
};

}  // namespace bigdawg

#endif  // BIGDAWG_COMMON_RESULT_H_
