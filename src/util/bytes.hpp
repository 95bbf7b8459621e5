// Portable little-endian (de)serialization primitives shared by the binary
// file formats (shard files, and any future on-disk caches). Writers append
// to a byte vector; the reader is bounds-checked and never throws — a short
// or malformed buffer flips `ok()` to false and every later read is a no-op,
// so callers validate once at the end instead of after every field.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace dg::util {

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

inline void put_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(out, bits);
}

inline void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  std::size_t offset() const { return off_; }
  std::size_t remaining() const { return size_ - off_; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[off_ - 1];
  }

  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[off_ - 4 + i]) << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[off_ - 8 + i]) << (8 * i);
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

  float f32() {
    const std::uint32_t bits = u32();
    float v = 0.0F;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(data_ + off_ - n), n);
  }

  /// Mark the buffer malformed (for semantic validation failures).
  void fail() { ok_ = false; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || size_ - off_ < n) {
      ok_ = false;
      return false;
    }
    off_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

}  // namespace dg::util
