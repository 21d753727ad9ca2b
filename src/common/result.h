// Minimal expected-style result type (std::expected is C++23; we target
// C++20). Used for fallible operations where exceptions would be noisy —
// packet parsing, table configuration, controller RPCs.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace nezha::common {

struct Error {
  std::string message;
};

inline Error make_error(std::string msg) { return Error{std::move(msg)}; }

template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}                // NOLINT
  Result(Error error) : value_(std::move(error)) {}            // NOLINT

  bool ok() const { return std::holds_alternative<T>(value_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    if (!ok()) throw std::runtime_error("Result::value on error: " + error().message);
    return std::get<T>(value_);
  }
  T& value() & {
    if (!ok()) throw std::runtime_error("Result::value on error: " + error().message);
    return std::get<T>(value_);
  }
  T&& take() && {
    if (!ok()) throw std::runtime_error("Result::take on error: " + error().message);
    return std::get<T>(std::move(value_));
  }

  const Error& error() const {
    return std::get<Error>(value_);
  }

  const T& value_or(const T& fallback) const {
    return ok() ? std::get<T>(value_) : fallback;
  }

 private:
  std::variant<T, Error> value_;
};

/// Result specialization for operations with no payload.
class Status {
 public:
  Status() = default;                                  // success
  Status(Error error) : error_(std::move(error)), failed_(true) {}  // NOLINT

  static Status ok_status() { return Status{}; }

  bool ok() const { return !failed_; }
  const Error& error() const { return error_; }

 private:
  Error error_{};
  bool failed_ = false;
};

}  // namespace nezha::common
