#include "relational/expr_eval.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace msql::relational {

Status IntegerOverflow() {
  return Status::ExecutionError("integer overflow");
}

void RowBinding::AddTable(const std::string& table_name,
                          const TableSchema& schema) {
  for (const auto& col : schema.columns()) {
    entries_.push_back(Entry{table_name, col.name});
  }
}

Result<size_t> RowBinding::Resolve(std::string_view qualifier,
                                   std::string_view name) const {
  size_t found = entries_.size();
  bool ambiguous = false;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (!EqualsIgnoreCase(entries_[i].column, name)) continue;
    if (!qualifier.empty() &&
        !EqualsIgnoreCase(entries_[i].table, qualifier)) {
      continue;
    }
    if (found != entries_.size()) {
      ambiguous = true;
      break;
    }
    found = i;
  }
  if (ambiguous) {
    return Status::InvalidArgument("ambiguous column reference '" +
                                   std::string(name) + "'");
  }
  if (found == entries_.size()) {
    std::string full = qualifier.empty()
                           ? std::string(name)
                           : std::string(qualifier) + "." + std::string(name);
    return Status::NotFound("unknown column '" + full + "'");
  }
  return found;
}

bool ExprEvaluator::LikeMatch(std::string_view pattern,
                              std::string_view text) {
  size_t p = 0, t = 0;
  size_t star = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '%' || pattern[p] == '_' || pattern[p] == text[t])) {
      if (pattern[p] == '%') {
        star = p;
        star_t = t;
        ++p;
      } else {
        ++p;
        ++t;
      }
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<size_t> ExprEvaluator::Bind(const ColumnRefExpr& ref) const {
  auto it = slots_.find(&ref);
  if (it != slots_.end()) return it->second;
  if (binds_ != nullptr) ++*binds_;
  MSQL_ASSIGN_OR_RETURN(size_t idx,
                        binding_->Resolve(ref.qualifier(), ref.name()));
  slots_.emplace(&ref, idx);
  return idx;
}

Result<Value> ExprEvaluator::Eval(const Expr& e, const Row& row) const {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value();
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(e);
      MSQL_ASSIGN_OR_RETURN(size_t idx, Bind(ref));
      if (idx >= row.size()) {
        return Status::Internal("row binding index out of range for " +
                                ref.FullName());
      }
      return row[idx];
    }
    case ExprKind::kUnary:
      return EvalUnary(static_cast<const UnaryExpr&>(e), row);
    case ExprKind::kBinary:
      return EvalBinary(static_cast<const BinaryExpr&>(e), row);
    case ExprKind::kFunctionCall:
      return EvalFunction(static_cast<const FunctionCallExpr&>(e), row);
    case ExprKind::kScalarSubquery: {
      if (!subquery_fn_) {
        return Status::ExecutionError(
            "scalar subquery not supported in this context");
      }
      return subquery_fn_(
          static_cast<const ScalarSubqueryExpr&>(e).select());
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      MSQL_ASSIGN_OR_RETURN(Value operand, Eval(in.operand(), row));
      if (operand.is_null()) return Value::Null_();
      bool saw_null = false;
      for (const auto& item : in.list()) {
        MSQL_ASSIGN_OR_RETURN(Value v, Eval(*item, row));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        MSQL_ASSIGN_OR_RETURN(Value eq,
                              EvalComparison(BinaryOp::kEq, operand, v));
        if (eq.is_boolean() && eq.AsBoolean()) {
          return Value::Boolean(!in.negated());
        }
      }
      if (saw_null) return Value::Null_();  // SQL: unknown membership
      return Value::Boolean(in.negated());
    }
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(e);
      MSQL_ASSIGN_OR_RETURN(Value v, Eval(bt.operand(), row));
      MSQL_ASSIGN_OR_RETURN(Value lo, Eval(bt.lo(), row));
      MSQL_ASSIGN_OR_RETURN(Value hi, Eval(bt.hi(), row));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null_();
      MSQL_ASSIGN_OR_RETURN(Value ge, EvalComparison(BinaryOp::kGe, v, lo));
      MSQL_ASSIGN_OR_RETURN(Value le, EvalComparison(BinaryOp::kLe, v, hi));
      bool inside = ge.is_boolean() && ge.AsBoolean() && le.is_boolean() &&
                    le.AsBoolean();
      return Value::Boolean(bt.negated() ? !inside : inside);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> ExprEvaluator::EvalPredicate(const Expr& e,
                                          const Row& row) const {
  MSQL_ASSIGN_OR_RETURN(Value v, Eval(e, row));
  if (v.is_null()) return false;
  if (!v.is_boolean()) {
    return Status::ExecutionError("predicate does not evaluate to BOOLEAN: " +
                                  e.ToSql());
  }
  return v.AsBoolean();
}

Result<Value> ExprEvaluator::EvalUnary(const UnaryExpr& e,
                                       const Row& row) const {
  switch (e.op()) {
    case UnaryOp::kIsNull: {
      MSQL_ASSIGN_OR_RETURN(Value v, Eval(e.operand(), row));
      return Value::Boolean(v.is_null());
    }
    case UnaryOp::kIsNotNull: {
      MSQL_ASSIGN_OR_RETURN(Value v, Eval(e.operand(), row));
      return Value::Boolean(!v.is_null());
    }
    case UnaryOp::kNot: {
      MSQL_ASSIGN_OR_RETURN(Value v, Eval(e.operand(), row));
      if (v.is_null()) return Value::Null_();
      if (!v.is_boolean()) {
        return Status::ExecutionError("NOT applied to non-boolean");
      }
      return Value::Boolean(!v.AsBoolean());
    }
    case UnaryOp::kNegate: {
      MSQL_ASSIGN_OR_RETURN(Value v, Eval(e.operand(), row));
      if (v.is_null()) return Value::Null_();
      if (v.is_integer()) {
        int64_t negated = 0;
        if (__builtin_sub_overflow(int64_t{0}, v.AsInteger(), &negated)) {
          return IntegerOverflow();
        }
        return Value::Integer(negated);
      }
      if (v.is_real()) return Value::Real(-v.AsReal());
      return Status::ExecutionError("unary minus applied to non-numeric");
    }
  }
  return Status::Internal("unhandled unary op");
}

Result<Value> ExprEvaluator::EvalBinary(const BinaryExpr& e,
                                        const Row& row) const {
  // AND/OR implement SQL three-valued logic with short-circuit where the
  // outcome is already determined.
  if (e.op() == BinaryOp::kAnd || e.op() == BinaryOp::kOr) {
    MSQL_ASSIGN_OR_RETURN(Value left, Eval(e.left(), row));
    bool is_and = e.op() == BinaryOp::kAnd;
    if (left.is_boolean()) {
      if (is_and && !left.AsBoolean()) return Value::Boolean(false);
      if (!is_and && left.AsBoolean()) return Value::Boolean(true);
    } else if (!left.is_null()) {
      return Status::ExecutionError("AND/OR applied to non-boolean");
    }
    MSQL_ASSIGN_OR_RETURN(Value right, Eval(e.right(), row));
    if (right.is_boolean()) {
      if (is_and && !right.AsBoolean()) return Value::Boolean(false);
      if (!is_and && right.AsBoolean()) return Value::Boolean(true);
    } else if (!right.is_null()) {
      return Status::ExecutionError("AND/OR applied to non-boolean");
    }
    if (left.is_null() || right.is_null()) return Value::Null_();
    return Value::Boolean(is_and);  // TRUE AND TRUE / FALSE OR FALSE
  }
  MSQL_ASSIGN_OR_RETURN(Value left, Eval(e.left(), row));
  MSQL_ASSIGN_OR_RETURN(Value right, Eval(e.right(), row));
  switch (e.op()) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return EvalComparison(e.op(), left, right);
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return EvalArithmetic(e.op(), left, right);
    case BinaryOp::kLike: {
      if (left.is_null() || right.is_null()) return Value::Null_();
      if (!left.is_text() || !right.is_text()) {
        return Status::ExecutionError("LIKE requires text operands");
      }
      return Value::Boolean(LikeMatch(right.AsText(), left.AsText()));
    }
    default:
      return Status::Internal("unhandled binary op");
  }
}

Result<Value> ExprEvaluator::EvalComparison(BinaryOp op, const Value& left,
                                            const Value& right) const {
  if (left.is_null() || right.is_null()) return Value::Null_();
  bool comparable =
      (left.is_numeric() && right.is_numeric()) ||
      (left.is_text() && right.is_text()) ||
      (left.is_boolean() && right.is_boolean());
  if (!comparable) {
    return Status::ExecutionError(
        std::string("cannot compare ") + std::string(TypeName(left.type())) +
        " with " + std::string(TypeName(right.type())));
  }
  int c = left.Compare(right);
  switch (op) {
    case BinaryOp::kEq: return Value::Boolean(c == 0);
    case BinaryOp::kNe: return Value::Boolean(c != 0);
    case BinaryOp::kLt: return Value::Boolean(c < 0);
    case BinaryOp::kLe: return Value::Boolean(c <= 0);
    case BinaryOp::kGt: return Value::Boolean(c > 0);
    case BinaryOp::kGe: return Value::Boolean(c >= 0);
    default:
      return Status::Internal("not a comparison op");
  }
}

Result<Value> ExprEvaluator::EvalArithmetic(BinaryOp op, const Value& left,
                                            const Value& right) const {
  if (left.is_null() || right.is_null()) return Value::Null_();
  if (!left.is_numeric() || !right.is_numeric()) {
    return Status::ExecutionError("arithmetic requires numeric operands");
  }
  bool both_int = left.is_integer() && right.is_integer();
  if (both_int) {
    int64_t a = left.AsInteger();
    int64_t b = right.AsInteger();
    int64_t out = 0;
    bool overflow = false;
    switch (op) {
      case BinaryOp::kAdd: overflow = __builtin_add_overflow(a, b, &out); break;
      case BinaryOp::kSub: overflow = __builtin_sub_overflow(a, b, &out); break;
      case BinaryOp::kMul: overflow = __builtin_mul_overflow(a, b, &out); break;
      case BinaryOp::kDiv:
        if (b == 0) return Status::ExecutionError("division by zero");
        // INT64_MIN / -1 is the one quotient outside the range.
        overflow = a == std::numeric_limits<int64_t>::min() && b == -1;
        if (!overflow) out = a / b;
        break;
      default:
        return Status::Internal("not an arithmetic op");
    }
    if (overflow) return IntegerOverflow();
    return Value::Integer(out);
  }
  double a = left.NumericAsReal();
  double b = right.NumericAsReal();
  switch (op) {
    case BinaryOp::kAdd: return Value::Real(a + b);
    case BinaryOp::kSub: return Value::Real(a - b);
    case BinaryOp::kMul: return Value::Real(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Status::ExecutionError("division by zero");
      return Value::Real(a / b);
    default:
      return Status::Internal("not an arithmetic op");
  }
}

Result<Value> ExprEvaluator::EvalFunction(const FunctionCallExpr& e,
                                          const Row& row) const {
  const std::string& name = e.name();
  if (FunctionCallExpr::IsAggregateName(name)) {
    if (aggregate_values_ != nullptr) {
      auto it = aggregate_values_->find(&e);
      if (it != aggregate_values_->end()) return it->second;
    }
    return Status::ExecutionError("aggregate " + name +
                                  " used outside aggregating context");
  }
  // Scalar functions.
  std::vector<Value> args;
  args.reserve(e.args().size());
  for (const auto& a : e.args()) {
    MSQL_ASSIGN_OR_RETURN(Value v, Eval(*a, row));
    args.push_back(std::move(v));
  }
  auto need_args = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::ExecutionError(name + " expects " + std::to_string(n) +
                                    " argument(s)");
    }
    return Status::OK();
  };
  if (name == "UPPER" || name == "LOWER") {
    MSQL_RETURN_IF_ERROR(need_args(1));
    if (args[0].is_null()) return Value::Null_();
    if (!args[0].is_text()) {
      return Status::ExecutionError(name + " requires a text argument");
    }
    return Value::Text(name == "UPPER" ? ToUpper(args[0].AsText())
                                       : ToLower(args[0].AsText()));
  }
  if (name == "LENGTH") {
    MSQL_RETURN_IF_ERROR(need_args(1));
    if (args[0].is_null()) return Value::Null_();
    if (!args[0].is_text()) {
      return Status::ExecutionError("LENGTH requires a text argument");
    }
    return Value::Integer(static_cast<int64_t>(args[0].AsText().size()));
  }
  if (name == "ABS") {
    MSQL_RETURN_IF_ERROR(need_args(1));
    if (args[0].is_null()) return Value::Null_();
    if (args[0].is_integer()) {
      if (args[0].AsInteger() == std::numeric_limits<int64_t>::min()) {
        return IntegerOverflow();
      }
      return Value::Integer(std::abs(args[0].AsInteger()));
    }
    if (args[0].is_real()) return Value::Real(std::fabs(args[0].AsReal()));
    return Status::ExecutionError("ABS requires a numeric argument");
  }
  if (name == "ROUND") {
    if (args.size() == 1) {
      if (args[0].is_null()) return Value::Null_();
      if (!args[0].is_numeric()) {
        return Status::ExecutionError("ROUND requires a numeric argument");
      }
      return Value::Real(std::round(args[0].NumericAsReal()));
    }
    MSQL_RETURN_IF_ERROR(need_args(2));
    if (args[0].is_null() || args[1].is_null()) return Value::Null_();
    if (!args[0].is_numeric() || !args[1].is_integer()) {
      return Status::ExecutionError("ROUND requires (numeric, integer)");
    }
    double scale = std::pow(10.0, static_cast<double>(args[1].AsInteger()));
    return Value::Real(std::round(args[0].NumericAsReal() * scale) /
                       scale);
  }
  return Status::ExecutionError("unknown function " + name);
}

void CollectAggregates(const Expr& e,
                       std::vector<const FunctionCallExpr*>* out) {
  if (e.kind() == ExprKind::kFunctionCall) {
    const auto& f = static_cast<const FunctionCallExpr&>(e);
    if (FunctionCallExpr::IsAggregateName(f.name())) {
      out->push_back(&f);
      return;  // aggregates do not nest
    }
  }
  // A scalar subquery has no children here: its aggregates are its own.
  ForEachChild(e, [out](const Expr& child) { CollectAggregates(child, out); });
}

}  // namespace msql::relational
