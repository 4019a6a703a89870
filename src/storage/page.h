#ifndef MSQL_STORAGE_PAGE_H_
#define MSQL_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace msql::storage {

/// Fixed page size for every on-disk file (heap data, row directory,
/// B+-tree nodes). 4 KiB keeps the buffer pool granularity small enough
/// that the e19 bench can run a dataset ~10x the pool without the pool
/// itself dominating memory.
inline constexpr uint32_t kPageSize = 4096;

/// Page number within one file (offset = page_id * kPageSize).
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = UINT32_MAX;

/// Little-endian accessors over a raw page image. All on-disk integers
/// go through these so the format is byte-order independent.
inline uint16_t LoadU16(const char* p) {
  return static_cast<uint16_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint16_t>(static_cast<unsigned char>(p[1])) << 8;
}

inline uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

inline uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

inline void StoreU16(char* p, uint16_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
}

inline void StoreU32(char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

inline void StoreU64(char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Record writers (WAL payloads, serialized rows): the Store layouts
/// appended to a growing buffer; a string is its U32 length, then its
/// bytes.
inline void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  StoreU32(buf, v);
  out->append(buf, 4);
}

inline void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  StoreU64(buf, v);
  out->append(buf, 8);
}

inline void AppendStr(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked cursor over a record the writers above produced. A
/// read past the end poisons it: that read and every later one return
/// zero (or empty) and `ok` stays false. Decoders check a count against
/// `remaining()` before sizing anything by it.
struct ByteReader {
  std::string_view data;
  size_t pos = 0;
  bool ok = true;

  size_t remaining() const { return ok ? data.size() - pos : 0; }

  uint8_t U8() {
    if (!Take(1)) return 0;
    return static_cast<uint8_t>(data[pos - 1]);
  }
  uint32_t U32() {
    if (!Take(4)) return 0;
    return LoadU32(data.data() + pos - 4);
  }
  uint64_t U64() {
    if (!Take(8)) return 0;
    return LoadU64(data.data() + pos - 8);
  }
  std::string Str() {
    uint32_t len = U32();
    if (!Take(len)) return {};
    return std::string(data.substr(pos - len, len));
  }

 private:
  /// Consumes `n` bytes, or poisons the reader when fewer are left.
  bool Take(size_t n) {
    if (n > remaining()) {
      ok = false;
      return false;
    }
    pos += n;
    return true;
  }
};

}  // namespace msql::storage

#endif  // MSQL_STORAGE_PAGE_H_
