#include "cosoft/common/bytes.hpp"

#include <bit>

namespace cosoft {

void ByteWriter::varint(std::uint64_t v) {
    while (v >= 0x80) {
        buf_.push_back(static_cast<std::uint8_t>(v) | 0x80U);
        v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::f64(double v) {
    static_assert(sizeof(double) == 8);
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

void ByteWriter::str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
    varint(data.size());
    buf_.insert(buf_.end(), data.begin(), data.end());
}

bool ByteReader::take(std::size_t n) noexcept {
    if (failed_ || n > data_.size() - pos_) {
        failed_ = true;
        return false;
    }
    return true;
}

std::uint64_t ByteReader::varint() {
    std::uint64_t result = 0;
    int shift = 0;
    while (true) {
        if (!take(1)) return 0;
        const std::uint8_t byte = data_[pos_++];
        if (shift >= 64) {  // > 10 continuation bytes: malformed
            failed_ = true;
            return 0;
        }
        result |= static_cast<std::uint64_t>(byte & 0x7fU) << shift;
        if ((byte & 0x80U) == 0) return result;
        shift += 7;
    }
}

std::uint8_t ByteReader::u8() {
    if (!take(1)) return 0;
    return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
    const std::uint64_t v = varint();
    if (v > 0xffffffffULL) {
        failed_ = true;
        return 0;
    }
    return static_cast<std::uint32_t>(v);
}

std::uint64_t ByteReader::u64() { return varint(); }

std::int64_t ByteReader::i64() { return unzigzag(varint()); }

double ByteReader::f64() {
    if (!take(8)) return 0.0;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    pos_ += 8;
    return std::bit_cast<double>(bits);
}

std::string ByteReader::str() {
    const std::uint64_t n = varint();
    if (!take(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
}

std::vector<std::uint8_t> ByteReader::bytes() {
    const std::uint64_t n = varint();
    if (!take(n)) return {};
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
}

std::span<const std::uint8_t> ByteReader::bytes_view() {
    const std::uint64_t n = varint();
    if (!take(n)) return {};
    const std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
}

}  // namespace cosoft
