#include "relational/row_serde.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "storage/page.h"

namespace msql::relational {

namespace {
// Serde value tags.
constexpr char kTagNull = 0;
constexpr char kTagInteger = 1;
constexpr char kTagReal = 2;
constexpr char kTagText = 3;
constexpr char kTagBoolean = 4;

/// Monotone map from double to uint64 (IEEE-754 trick): flip all bits
/// of negatives, flip only the sign bit of non-negatives, then compare
/// as unsigned.
uint64_t OrderedDoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  if (bits & (uint64_t{1} << 63)) return ~bits;
  return bits | (uint64_t{1} << 63);
}

void AppendBigEndian64(std::string* out, uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
}  // namespace

std::string SerializeRow(const Row& row) {
  std::string out;
  storage::AppendU32(&out, static_cast<uint32_t>(row.size()));
  for (const Value& v : row) {
    if (v.is_null()) {
      out.push_back(kTagNull);
    } else if (v.is_integer()) {
      out.push_back(kTagInteger);
      storage::AppendU64(&out, static_cast<uint64_t>(v.AsInteger()));
    } else if (v.is_real()) {
      out.push_back(kTagReal);
      uint64_t bits;
      double d = v.AsReal();
      std::memcpy(&bits, &d, sizeof(bits));
      storage::AppendU64(&out, bits);
    } else if (v.is_text()) {
      out.push_back(kTagText);
      storage::AppendStr(&out, v.AsText());
    } else {
      out.push_back(kTagBoolean);
      out.push_back(v.AsBoolean() ? 1 : 0);
    }
  }
  return out;
}

Result<Row> DeserializeRow(std::string_view bytes) {
  auto bad = [&]() {
    return Status::Corrupted("malformed serialized row (" +
                             std::to_string(bytes.size()) + " bytes)");
  };
  storage::ByteReader r{bytes};
  uint32_t n = r.U32();
  // Every value takes at least its tag byte: a count beyond the bytes
  // left is corrupt.
  if (!r.ok || n > r.remaining()) return bad();
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    switch (static_cast<char>(r.U8())) {
      case kTagNull:
        row.push_back(Value::Null_());
        break;
      case kTagInteger:
        row.push_back(Value::Integer(static_cast<int64_t>(r.U64())));
        break;
      case kTagReal: {
        uint64_t bits = r.U64();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        row.push_back(Value::Real(d));
        break;
      }
      case kTagText:
        row.push_back(Value::Text(r.Str()));
        break;
      case kTagBoolean:
        row.push_back(Value::Boolean(r.U8() != 0));
        break;
      default:
        return bad();
    }
    if (!r.ok) return bad();
  }
  if (r.remaining() != 0) return bad();
  return row;
}

std::string EncodeIndexKey(const Value& v) {
  std::string out;
  if (v.is_null()) {
    out.push_back(0x00);
  } else if (v.is_integer()) {
    out.push_back(0x01);
    // Bias the sign bit so two's-complement order becomes byte order.
    AppendBigEndian64(&out, static_cast<uint64_t>(v.AsInteger()) ^
                                (uint64_t{1} << 63));
  } else if (v.is_real()) {
    out.push_back(0x02);
    // One encoding per Compare-equal key: -0.0 is 0.0, and every NaN is
    // the positive quiet NaN, which encodes above +inf as Compare sorts.
    double d = v.AsReal();
    if (d == 0.0) d = 0.0;
    if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
    AppendBigEndian64(&out, OrderedDoubleBits(d));
  } else if (v.is_text()) {
    out.push_back(0x03);
    for (char c : v.AsText()) {
      out.push_back(c);
      if (c == '\0') out.push_back('\xff');  // escape embedded NULs
    }
    out.push_back('\0');
    out.push_back('\0');
  } else {
    out.push_back(0x04);
    out.push_back(v.AsBoolean() ? 1 : 0);
  }
  return out;
}

std::string EncodeIndexEntry(const Value& v, RowId id) {
  std::string out = EncodeIndexKey(v);
  AppendBigEndian64(&out, id);
  return out;
}

RowId DecodeIndexEntryRowId(std::string_view entry) {
  RowId id = 0;
  size_t start = entry.size() - 8;
  for (size_t i = 0; i < 8; ++i) {
    id = (id << 8) | static_cast<unsigned char>(entry[start + i]);
  }
  return id;
}

}  // namespace msql::relational
