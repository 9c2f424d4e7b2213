// Error handling: a lightweight Status / Result<T> pair.
//
// The library reports recoverable conditions (lock conflicts, permission
// denials, incompatible objects, unknown references) as values rather than
// exceptions, because lock failure in particular is an *expected* outcome of
// the paper's floor-control algorithm (§3.2) that callers must branch on.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "cosoft/common/check.hpp"

namespace cosoft {

enum class ErrorCode : std::uint8_t {
    kOk = 0,
    kUnknownInstance,    ///< instance id not registered with the server
    kUnknownObject,      ///< no widget at the given pathname
    kUnknownCommand,     ///< CoSendCommand name with no registered handler
    kLockConflict,       ///< floor control: some member of CO(o) already locked
    kPermissionDenied,   ///< access-permission table forbids the operation
    kIncompatible,       ///< objects are neither directly nor s-compatible
    kAlreadyCoupled,     ///< couple link already present
    kNotCoupled,         ///< decouple of a non-existent link
    kBadMessage,         ///< malformed or truncated wire message
    kTransport,          ///< transport-level failure (peer gone, send failed)
    kHistoryEmpty,       ///< undo/redo with no stored state
    kInvalidArgument,
};
/// Largest valid ErrorCode; the wire decoder rejects bytes above it.
[[nodiscard]] constexpr ErrorCode enum_max(ErrorCode) noexcept { return ErrorCode::kInvalidArgument; }

[[nodiscard]] std::string_view to_string(ErrorCode code) noexcept;

struct Error {
    ErrorCode code = ErrorCode::kOk;
    std::string message;

    friend bool operator==(const Error&, const Error&) = default;
};

/// Result of an operation with no payload.
class Status {
  public:
    Status() = default;  // ok
    Status(ErrorCode code, std::string message) : error_{code, std::move(message)} {}

    static Status ok() { return {}; }

    [[nodiscard]] bool is_ok() const noexcept { return error_.code == ErrorCode::kOk; }
    explicit operator bool() const noexcept { return is_ok(); }

    [[nodiscard]] ErrorCode code() const noexcept { return error_.code; }
    [[nodiscard]] const std::string& message() const noexcept { return error_.message; }
    [[nodiscard]] const Error& error() const noexcept { return error_; }

    friend bool operator==(const Status&, const Status&) = default;

  private:
    Error error_;
};

/// Result of an operation yielding a T on success.
template <typename T>
class Result {
  public:
    Result(T value) : value_(std::in_place_index<0>, std::move(value)) {}  // NOLINT(google-explicit-constructor)
    Result(Error error) : value_(std::in_place_index<1>, std::move(error)) {}  // NOLINT
    Result(ErrorCode code, std::string message) : value_(std::in_place_index<1>, Error{code, std::move(message)}) {}

    [[nodiscard]] bool is_ok() const noexcept { return value_.index() == 0; }
    explicit operator bool() const noexcept { return is_ok(); }

    [[nodiscard]] T& value() & {
        CO_CHECK_MSG(is_ok(), "Result::value() on an error result");
        return std::get<0>(value_);
    }
    [[nodiscard]] const T& value() const& {
        CO_CHECK_MSG(is_ok(), "Result::value() on an error result");
        return std::get<0>(value_);
    }
    [[nodiscard]] T&& value() && {
        CO_CHECK_MSG(is_ok(), "Result::value() on an error result");
        return std::get<0>(std::move(value_));
    }

    [[nodiscard]] const Error& error() const {
        CO_CHECK_MSG(!is_ok(), "Result::error() on an ok result");
        return std::get<1>(value_);
    }
    [[nodiscard]] ErrorCode code() const noexcept {
        return is_ok() ? ErrorCode::kOk : std::get<1>(value_).code;
    }

    /// Converts to a Status, discarding the payload.
    [[nodiscard]] Status status() const {
        if (is_ok()) return Status::ok();
        return Status{std::get<1>(value_).code, std::get<1>(value_).message};
    }

  private:
    std::variant<T, Error> value_;
};

}  // namespace cosoft
