#include "stream/predicate.h"

#include <stdexcept>

namespace cosmos::stream {

const char* to_string(CmpOp op) noexcept {
  switch (op) {
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
  }
  return "?";
}

bool apply_cmp(CmpOp op, int cmp_sign) noexcept {
  switch (op) {
    case CmpOp::kLt: return cmp_sign < 0;
    case CmpOp::kLe: return cmp_sign <= 0;
    case CmpOp::kGt: return cmp_sign > 0;
    case CmpOp::kGe: return cmp_sign >= 0;
    case CmpOp::kEq: return cmp_sign == 0;
    case CmpOp::kNe: return cmp_sign != 0;
  }
  return false;
}

CmpOp flip(CmpOp op) noexcept {
  switch (op) {
    case CmpOp::kLt: return CmpOp::kGt;
    case CmpOp::kLe: return CmpOp::kGe;
    case CmpOp::kGt: return CmpOp::kLt;
    case CmpOp::kGe: return CmpOp::kLe;
    default: return op;  // Eq/Ne are symmetric
  }
}

Value resolve_field(const FieldRef& ref, const std::vector<Binding>& env) {
  for (const Binding& b : env) {
    if (!ref.alias.empty() && ref.alias != b.alias) continue;
    if (b.schema == nullptr || b.tuple == nullptr) {
      throw std::invalid_argument{"resolve_field: unbound alias " + b.alias};
    }
    if (const auto idx = b.schema->index_of(ref.field)) {
      return b.tuple->at(*idx);
    }
    if (ref.field == "timestamp") return Value{b.tuple->ts};
    if (!ref.alias.empty()) break;  // alias matched but field missing
  }
  throw std::invalid_argument{"resolve_field: cannot resolve " +
                              ref.to_string()};
}

namespace {

class TruePredicate final : public Predicate {
 public:
  [[nodiscard]] Kind kind() const noexcept override { return Kind::kTrue; }
  [[nodiscard]] bool eval(const std::vector<Binding>&) const override {
    return true;
  }
  [[nodiscard]] std::string to_string() const override { return "TRUE"; }
};

}  // namespace

PredicatePtr Predicate::always_true() {
  static const auto instance = std::make_shared<TruePredicate>();
  return instance;
}

PredicatePtr Predicate::cmp(FieldRef lhs, CmpOp op, Value rhs) {
  return std::make_shared<CompareConst>(std::move(lhs), op, std::move(rhs));
}

PredicatePtr Predicate::cmp(FieldRef lhs, CmpOp op, FieldRef rhs) {
  return std::make_shared<CompareField>(std::move(lhs), op, std::move(rhs));
}

PredicatePtr Predicate::time_band(FieldRef newer, FieldRef older,
                                  std::int64_t band_ms) {
  return std::make_shared<TimeBand>(std::move(newer), std::move(older),
                                    band_ms);
}

bool TimeBand::eval(const std::vector<Binding>& env) const {
  const std::int64_t tn = resolve_field(newer_, env).as_int();
  const std::int64_t to = resolve_field(older_, env).as_int();
  return within_band(tn, to, band_ms_);
}

std::string TimeBand::to_string() const {
  return "0 <= " + newer_.to_string() + " - " + older_.to_string() +
         " <= " + std::to_string(band_ms_);
}

PredicatePtr Predicate::conj(std::vector<PredicatePtr> children) {
  if (children.empty()) return always_true();
  if (children.size() == 1) return children.front();
  return std::make_shared<BoolJunction>(Kind::kAnd, std::move(children));
}

PredicatePtr Predicate::disj(std::vector<PredicatePtr> children) {
  if (children.empty()) return always_true();
  if (children.size() == 1) return children.front();
  return std::make_shared<BoolJunction>(Kind::kOr, std::move(children));
}

PredicatePtr Predicate::negate(PredicatePtr child) {
  return std::make_shared<NotPredicate>(std::move(child));
}

bool CompareConst::eval(const std::vector<Binding>& env) const {
  return apply_cmp(op_, resolve_field(lhs_, env).compare(rhs_));
}

std::string CompareConst::to_string() const {
  return lhs_.to_string() + " " + cosmos::stream::to_string(op_) + " " +
         rhs_.to_string();
}

bool CompareField::eval(const std::vector<Binding>& env) const {
  return apply_cmp(op_,
                   resolve_field(lhs_, env).compare(resolve_field(rhs_, env)));
}

std::string CompareField::to_string() const {
  return lhs_.to_string() + " " + cosmos::stream::to_string(op_) + " " +
         rhs_.to_string();
}

bool BoolJunction::eval(const std::vector<Binding>& env) const {
  if (kind_ == Kind::kAnd) {
    for (const auto& c : children_) {
      if (!c->eval(env)) return false;
    }
    return true;
  }
  for (const auto& c : children_) {
    if (c->eval(env)) return true;
  }
  return false;
}

std::string BoolJunction::to_string() const {
  std::string out = "(";
  const char* sep = kind_ == Kind::kAnd ? " AND " : " OR ";
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (i != 0) out += sep;
    out += children_[i]->to_string();
  }
  return out + ")";
}

bool collect_conjuncts(const PredicatePtr& p,
                       std::vector<PredicatePtr>& out) noexcept {
  switch (p->kind()) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kCompareConst:
    case Predicate::Kind::kCompareField:
    case Predicate::Kind::kTimeBand:
      out.push_back(p);
      return true;
    case Predicate::Kind::kAnd: {
      const auto& junction = static_cast<const BoolJunction&>(*p);
      for (const auto& c : junction.children()) {
        if (!collect_conjuncts(c, out)) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace cosmos::stream
