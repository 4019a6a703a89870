#include "relational/value.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/string_util.h"

namespace msql::relational {

std::string_view TypeName(Type type) {
  switch (type) {
    case Type::kNull:
      return "NULL";
    case Type::kInteger:
      return "INTEGER";
    case Type::kReal:
      return "REAL";
    case Type::kText:
      return "TEXT";
    case Type::kBoolean:
      return "BOOLEAN";
  }
  return "UNKNOWN";
}

Result<Type> TypeFromName(std::string_view name) {
  std::string upper = ToUpper(name);
  if (upper == "INTEGER" || upper == "INT" || upper == "BIGINT" ||
      upper == "SMALLINT") {
    return Type::kInteger;
  }
  if (upper == "REAL" || upper == "FLOAT" || upper == "DOUBLE" ||
      upper == "NUMERIC" || upper == "DECIMAL") {
    return Type::kReal;
  }
  if (upper == "TEXT" || upper == "CHAR" || upper == "VARCHAR" ||
      upper == "STRING") {
    return Type::kText;
  }
  if (upper == "BOOLEAN" || upper == "BOOL") {
    return Type::kBoolean;
  }
  return Status::InvalidArgument("unknown type name: " + std::string(name));
}

Type Value::type() const {
  if (is_null()) return Type::kNull;
  if (is_integer()) return Type::kInteger;
  if (is_real()) return Type::kReal;
  if (is_text()) return Type::kText;
  return Type::kBoolean;
}

double Value::NumericAsReal() const {
  return is_integer() ? static_cast<double>(AsInteger()) : AsReal();
}

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_numeric() && other.is_numeric()) return Compare(other) == 0;
  return rep_ == other.rep_;
}

int Value::Compare(const Value& other) const {
  // NULL sorts before everything.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  if (is_integer() && other.is_integer()) {
    // Exact: two INTEGERs past 2^53 can share a double.
    return (AsInteger() > other.AsInteger()) -
           (AsInteger() < other.AsInteger());
  }
  if (is_numeric() && other.is_numeric()) {
    double a = NumericAsReal();
    double b = other.NumericAsReal();
    // NaN equals NaN and sorts above every other number.
    if (std::isnan(a) || std::isnan(b)) {
      return static_cast<int>(std::isnan(a)) -
             static_cast<int>(std::isnan(b));
    }
    return (a > b) - (a < b);
  }
  if (is_text() && other.is_text()) {
    return AsText().compare(other.AsText());
  }
  if (is_boolean() && other.is_boolean()) {
    return static_cast<int>(AsBoolean()) - static_cast<int>(other.AsBoolean());
  }
  // Heterogeneous: order by type id for a stable total order.
  return static_cast<int>(type()) - static_cast<int>(other.type());
}

namespace {

/// The shortest text that reads back as the same double, in `buf`, so a
/// REAL written into SQL text keeps its value. A text without '.', 'e',
/// "inf" or "nan" (only those two hold an 'i' or an 'n') needs ".0"
/// appended (`*needs_suffix`) to stay recognizably REAL.
std::string_view ShortestReal(double v, char (&buf)[32], bool* needs_suffix) {
  std::string_view s(buf, std::to_chars(buf, buf + sizeof buf, v).ptr - buf);
  *needs_suffix = s.find_first_of(".ein") == std::string_view::npos;
  return s;
}

}  // namespace

std::string Value::ToSqlLiteral() const {
  if (is_null()) return "NULL";
  if (is_integer()) return std::to_string(AsInteger());
  if (is_real()) {
    char buf[32];
    bool needs_suffix = false;
    std::string s(ShortestReal(AsReal(), buf, &needs_suffix));
    if (needs_suffix) s += ".0";
    return s;
  }
  if (is_boolean()) return AsBoolean() ? "TRUE" : "FALSE";
  // Text: single quotes, embedded quotes doubled.
  std::string out = "'";
  for (char c : AsText()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

std::string Value::ToDisplayString() const {
  if (is_text()) return AsText();
  return ToSqlLiteral();
}

size_t LiteralWidth(const Value& v) {
  if (v.is_null()) return 4;
  if (v.is_integer()) {
    const int64_t i = v.AsInteger();
    // Count digits on the magnitude as unsigned: -INT64_MIN overflows.
    uint64_t magnitude = i < 0 ? 0 - static_cast<uint64_t>(i)
                               : static_cast<uint64_t>(i);
    size_t width = i < 0 ? 2 : 1;
    while (magnitude >= 10) {
      magnitude /= 10;
      ++width;
    }
    return width;
  }
  if (v.is_real()) {
    char buf[32];
    bool needs_suffix = false;
    return ShortestReal(v.AsReal(), buf, &needs_suffix).size() +
           (needs_suffix ? 2 : 0);
  }
  if (v.is_boolean()) return v.AsBoolean() ? 4 : 5;
  const std::string& text = v.AsText();
  return text.size() + 2 +
         static_cast<size_t>(std::count(text.begin(), text.end(), '\''));
}

size_t DisplayWidth(const Value& v) {
  return v.is_text() ? v.AsText().size() : LiteralWidth(v);
}

Result<Value> Value::CoerceTo(Type target) const {
  if (is_null()) return *this;  // NULL fits every column
  if (type() == target) return *this;
  if (target == Type::kReal && is_integer()) {
    return Value::Real(static_cast<double>(AsInteger()));
  }
  if (target == Type::kInteger && is_real()) {
    double v = AsReal();
    if (std::nearbyint(v) != v) {
      return Status::InvalidArgument("cannot store non-integral REAL " +
                                     ToSqlLiteral() + " into INTEGER column");
    }
    // [-2^63, 2^63): both bounds are exact doubles, and the cast of
    // anything outside them is undefined.
    if (v < -0x1p63 || v >= 0x1p63) {
      return Status::InvalidArgument("REAL " + ToSqlLiteral() +
                                     " is out of INTEGER range");
    }
    return Value::Integer(static_cast<int64_t>(v));
  }
  return Status::InvalidArgument(
      std::string("cannot coerce ") + std::string(TypeName(type())) +
      " value " + ToSqlLiteral() + " to " + std::string(TypeName(target)));
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToDisplayString();
}

}  // namespace msql::relational
