#ifndef MSQL_RELATIONAL_VALUE_H_
#define MSQL_RELATIONAL_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"

namespace msql::relational {

/// Column / value type of the local relational engines.
///
/// The Global Data Dictionary stores "names, types and widths" of columns
/// (§3.1); these are the types it knows about.
enum class Type {
  kNull,     // type of the NULL literal before coercion
  kInteger,  // 64-bit signed
  kReal,     // double precision
  kText,     // variable-length character string
  kBoolean,  // internal: result of predicates
};

/// "INTEGER", "REAL", "TEXT", "BOOLEAN" or "NULL".
std::string_view TypeName(Type type);

/// Parses a type name (case-insensitive); also accepts common SQL aliases
/// (INT, FLOAT, DOUBLE, CHAR, VARCHAR, STRING).
Result<Type> TypeFromName(std::string_view name);

/// A single SQL value with SQL-style NULL semantics.
///
/// Comparisons and arithmetic involving NULL yield NULL; predicates use
/// three-valued logic collapsed to "not true" at filter points, which is
/// the standard SQL behaviour the paper's LDBMSs (Oracle/Ingres) share.
class Value {
 public:
  /// NULL value.
  Value() : rep_(Null{}) {}

  static Value Null_() { return Value(); }
  static Value Integer(int64_t v) { return Value(Rep(v)); }
  static Value Real(double v) { return Value(Rep(v)); }
  static Value Text(std::string v) { return Value(Rep(std::move(v))); }
  static Value Boolean(bool v) { return Value(Rep(v)); }

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;

  Type type() const;

  bool is_null() const { return std::holds_alternative<Null>(rep_); }
  bool is_integer() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_real() const { return std::holds_alternative<double>(rep_); }
  bool is_text() const { return std::holds_alternative<std::string>(rep_); }
  bool is_boolean() const { return std::holds_alternative<bool>(rep_); }
  bool is_numeric() const { return is_integer() || is_real(); }

  int64_t AsInteger() const { return std::get<int64_t>(rep_); }
  double AsReal() const { return std::get<double>(rep_); }
  const std::string& AsText() const { return std::get<std::string>(rep_); }
  bool AsBoolean() const { return std::get<bool>(rep_); }

  /// Numeric value as double (integer is widened). Requires is_numeric().
  double NumericAsReal() const;

  /// Strict equality used by tests and result comparison: NULL == NULL is
  /// true here (unlike the SQL `=` operator, which is in expr_eval).
  /// Agrees with Compare: two numerics are equal exactly when Compare
  /// returns 0, so NaN equals NaN.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  /// Total order for ORDER BY, MIN, MAX, DISTINCT, GROUP BY, hash joins
  /// and the SQL comparison operators. NULL sorts first. Two INTEGERs
  /// compare exactly; an INTEGER with a REAL compares as doubles (so an
  /// INTEGER past 2^53 may equal a REAL that equals a different
  /// INTEGER). NaN equals itself and sorts above every other number,
  /// PostgreSQL's rule. Other cross-type pairs order by type id.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// SQL literal rendering: NULL, 42, 3.14, 'text' (quotes doubled).
  std::string ToSqlLiteral() const;

  /// Display rendering without quotes (for result tables).
  std::string ToDisplayString() const;

  /// Coerces this value to a column of type `target`: integers widen to
  /// real, and a real narrows to integer only when it is integral and
  /// inside the INTEGER range (kInvalidArgument otherwise). Only NULL and
  /// these exact-family conversions are allowed; other mismatches are an
  /// error (loose typing would mask schema-heterogeneity bugs that MSQL
  /// is supposed to surface).
  Result<Value> CoerceTo(Type target) const;

 private:
  struct Null {
    bool operator==(const Null&) const { return true; }
  };
  using Rep = std::variant<Null, int64_t, double, std::string, bool>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

/// Length of v.ToSqlLiteral(), computed without building the string:
/// the bytes a value occupies in SQL text (the wire model of a TRANSFER's
/// rows, netsim/lam.h).
size_t LiteralWidth(const Value& v);

/// Length of v.ToDisplayString(), computed without building the string:
/// the bytes a value occupies in a LAM response and in ANALYZE's average
/// width.
size_t DisplayWidth(const Value& v);

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace msql::relational

#endif  // MSQL_RELATIONAL_VALUE_H_
