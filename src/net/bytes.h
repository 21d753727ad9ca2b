// Big-endian byte serialization helpers used by all header codecs.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace nezha::net {

/// Appends big-endian (network order) fields to a growing byte buffer.
/// Multi-byte writes grow the vector once (resize) and store directly —
/// no per-byte push_back on the codec hot path.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    std::uint8_t* p = grow(2);
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }
  void u32(std::uint32_t v) {
    std::uint8_t* p = grow(4);
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
  }
  void bytes(std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    std::uint8_t* p = grow(data.size());
    std::memcpy(p, data.data(), data.size());
  }
  void zeros(std::size_t n) { out_.resize(out_.size() + n); }

 private:
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }

  std::vector<std::uint8_t>& out_;
};

/// Big-endian writer over a fixed caller-provided buffer: the zero-allocation
/// counterpart of ByteWriter for fixed-size encodings (pre-actions, state
/// snapshots, vNIC ids). Overrunning the buffer is a programming error
/// (asserted); fixed-size codecs know their exact length at compile time.
class FixedWriter {
 public:
  explicit FixedWriter(std::span<std::uint8_t> out) : out_(out) {}

  void u8(std::uint8_t v) {
    assert(pos_ + 1 <= out_.size());
    out_[pos_++] = v;
  }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  std::size_t written() const { return pos_; }

 private:
  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

/// Reads big-endian fields from a byte span with bounds checking.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!require(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8) |
                      data_[pos_ + 1];
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t hi = u16();
    std::uint32_t lo = u16();
    return (hi << 16) | lo;
  }
  std::uint64_t u64() {
    std::uint64_t hi = u32();
    std::uint64_t lo = u32();
    return (hi << 32) | lo;
  }
  /// A view of the next n bytes of the underlying buffer (no copy); empty
  /// span on bounds failure. The view aliases the reader's input buffer.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!require(n)) return {};
    std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  void skip(std::size_t n) {
    if (require(n)) pos_ += n;
  }

 private:
  bool require(std::size_t n) {
    if (pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return ok_;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace nezha::net
