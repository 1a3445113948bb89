// Bounds-checked little-endian wire encoding primitives.

#ifndef SRC_PROTOCOL_WIRE_H_
#define SRC_PROTOCOL_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace slim {

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bytes(std::span<const uint8_t> data);

  size_t size() const { return buf_.size(); }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  const std::vector<uint8_t>& data() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

// Reader over a fixed buffer. Reads past the end set ok() to false and return zeros; callers
// check ok() once at the end of parsing rather than after every field.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  std::vector<uint8_t> Bytes(size_t n);
  // Consumes n bytes and returns them in place, without a copy (empty when short).
  std::span<const uint8_t> View(size_t n);

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  // The not-yet-consumed tail of the buffer (without consuming it); lets framing layers
  // checksum everything that follows a header field.
  std::span<const uint8_t> Rest() const { return data_.subspan(pos_); }

 private:
  bool Need(size_t n);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// The transport's framing checksum: XXH32 with seed 0 over a byte span. The transport
// stamps every datagram with this so that corrupted or truncated datagrams are detected,
// counted and dropped instead of being parsed as protocol bytes (the fabric's chaos layer
// flips and chops bytes on purpose). XXH32 mixes the length in, so a tail chopped off
// zero bytes still changes the sum.
uint32_t FramingChecksum(std::span<const uint8_t> data);

}  // namespace slim

#endif  // SRC_PROTOCOL_WIRE_H_
