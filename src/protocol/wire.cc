#include "src/protocol/wire.h"

#include <bit>
#include <cstring>

namespace slim {

namespace {

// Little-endian 32-bit load through memcpy: no alignment requirement, one plain load on
// little-endian hosts.
uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xff00u) | ((v << 8) & 0xff0000u) | (v << 24);
  }
  return v;
}

}  // namespace

void ByteWriter::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void ByteWriter::Bytes(std::span<const uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

bool ByteReader::Need(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t ByteReader::U8() {
  if (!Need(1)) {
    return 0;
  }
  return data_[pos_++];
}

uint16_t ByteReader::U16() {
  if (!Need(2)) {
    return 0;
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_]) | (static_cast<uint16_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

uint32_t ByteReader::U32() {
  if (!Need(4)) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t ByteReader::U64() {
  if (!Need(8)) {
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::vector<uint8_t> ByteReader::Bytes(size_t n) {
  if (!Need(n)) {
    return {};
  }
  std::vector<uint8_t> out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

uint32_t FramingChecksum(std::span<const uint8_t> data) {
  // XXH32 with seed 0.
  constexpr uint32_t kPrime1 = 0x9e3779b1u;
  constexpr uint32_t kPrime2 = 0x85ebca77u;
  constexpr uint32_t kPrime3 = 0xc2b2ae3du;
  constexpr uint32_t kPrime4 = 0x27d4eb2fu;
  constexpr uint32_t kPrime5 = 0x165667b1u;
  const auto round = [](uint32_t acc, uint32_t lane) {
    return std::rotl(acc + lane * kPrime2, 13) * kPrime1;
  };
  const uint8_t* p = data.data();
  const size_t n = data.size();
  size_t i = 0;
  uint32_t h = kPrime5;
  if (n >= 16) {
    uint32_t v1 = kPrime1 + kPrime2;
    uint32_t v2 = kPrime2;
    uint32_t v3 = 0;
    uint32_t v4 = 0u - kPrime1;
    for (; i + 16 <= n; i += 16) {
      v1 = round(v1, LoadLe32(p + i));
      v2 = round(v2, LoadLe32(p + i + 4));
      v3 = round(v3, LoadLe32(p + i + 8));
      v4 = round(v4, LoadLe32(p + i + 12));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) + std::rotl(v4, 18);
  }
  h += static_cast<uint32_t>(n);
  for (; i + 4 <= n; i += 4) {
    h = std::rotl(h + LoadLe32(p + i) * kPrime3, 17) * kPrime4;
  }
  for (; i < n; ++i) {
    h = std::rotl(h + p[i] * kPrime5, 11) * kPrime1;
  }
  h ^= h >> 15;
  h *= kPrime2;
  h ^= h >> 13;
  h *= kPrime3;
  h ^= h >> 16;
  return h;
}

}  // namespace slim
