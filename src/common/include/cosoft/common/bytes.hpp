// Binary encoding primitives used by the wire protocol (src/protocol) and by
// UI-state snapshots (src/toolkit).
//
// Encoding scheme: little-endian fixed-width for floats, LEB128 varints for
// unsigned integers, zigzag+varint for signed integers, length-prefixed raw
// bytes for strings. The format is self-contained and has no alignment
// requirements, so snapshots can be persisted or shipped across the network
// unchanged.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cosoft/common/error.hpp"

namespace cosoft {

/// Append-only encoder.
class ByteWriter {
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v) { varint(v); }
    void u64(std::uint64_t v) { varint(v); }
    void i64(std::int64_t v) { varint(zigzag(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void f64(double v);
    void str(std::string_view s);
    void bytes(std::span<const std::uint8_t> data);

    [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
    [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return buf_.capacity(); }

    /// Forgets the contents but keeps the allocation — the reuse hook that
    /// lets encode_message amortize buffer growth to zero across calls.
    void clear() noexcept { buf_.clear(); }
    /// Releases the backing allocation (bounds what a reused writer pins).
    void shed() noexcept {
        buf_.clear();
        buf_.shrink_to_fit();
    }

    static std::uint64_t zigzag(std::int64_t v) noexcept {
        return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
    }

  private:
    void varint(std::uint64_t v);
    std::vector<std::uint8_t> buf_;
};

/// Sequential decoder over a borrowed buffer. All accessors return an error
/// (and leave the reader in a failed state) on truncated input instead of
/// reading out of bounds; callers check `ok()` once at the end of a message.
class ByteReader {
  public:
    explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64();
    bool boolean() { return u8() != 0; }
    double f64();
    std::string str();
    std::vector<std::uint8_t> bytes();
    /// The next length-prefixed byte field, borrowed from the buffer (empty
    /// and failed on overrun).
    std::span<const std::uint8_t> bytes_view();

    [[nodiscard]] bool ok() const noexcept { return !failed_; }
    /// Marks the stream malformed; decoders call this on semantic errors the
    /// bounds checks cannot see (out-of-range enum, nesting too deep).
    void fail() noexcept { failed_ = true; }
    /// True when the whole buffer has been consumed without error.
    [[nodiscard]] bool exhausted() const noexcept { return ok() && pos_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

    [[nodiscard]] Status status() const {
        if (ok()) return Status::ok();
        return Status{ErrorCode::kBadMessage, "truncated or malformed buffer"};
    }

    static std::int64_t unzigzag(std::uint64_t v) noexcept {
        return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
    }

  private:
    std::uint64_t varint();
    bool take(std::size_t n) noexcept;  // bounds check; sets failed_ on overrun

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

}  // namespace cosoft
