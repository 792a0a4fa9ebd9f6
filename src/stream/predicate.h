// Boolean predicate expressions over one or two bound tuples.
//
// Predicates serve three masters: query execution (filter/join operators),
// pub/sub subscription filters, and the containment/merging analysis in
// src/query. They are immutable trees shared via shared_ptr.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "stream/schema.h"
#include "stream/value.h"

namespace cosmos::stream {

enum class CmpOp { kLt, kLe, kGt, kGe, kEq, kNe };

[[nodiscard]] const char* to_string(CmpOp op) noexcept;
/// a <op> b given compare() result sign.
[[nodiscard]] bool apply_cmp(CmpOp op, int cmp_sign) noexcept;
/// The op with operands swapped: a op b  <=>  b op' a.
[[nodiscard]] CmpOp flip(CmpOp op) noexcept;

/// Reference to a field of an aliased stream, e.g. S1.snowHeight.
/// An empty alias matches whatever single binding is in scope.
struct FieldRef {
  std::string alias;
  std::string field;

  [[nodiscard]] std::string to_string() const {
    return alias.empty() ? field : alias + "." + field;
  }
  friend bool operator==(const FieldRef&, const FieldRef&) = default;
};

/// Evaluation context: one tuple per alias. `timestamp` is exposed as the
/// pseudo-field "timestamp" if the schema does not define it.
struct Binding {
  std::string alias;
  const Schema* schema = nullptr;
  const Tuple* tuple = nullptr;
};

class Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

/// Immutable predicate node.
class Predicate {
 public:
  enum class Kind {
    kTrue,
    kCompareConst,
    kCompareField,
    kTimeBand,
    kAnd,
    kOr,
    kNot
  };

  virtual ~Predicate() = default;
  [[nodiscard]] virtual Kind kind() const noexcept = 0;
  /// Evaluates against the bound tuples; throws std::invalid_argument if a
  /// referenced alias/field is missing.
  [[nodiscard]] virtual bool eval(const std::vector<Binding>& env) const = 0;
  [[nodiscard]] virtual std::string to_string() const = 0;

  // ---- factories ----
  [[nodiscard]] static PredicatePtr always_true();
  /// field <op> constant
  [[nodiscard]] static PredicatePtr cmp(FieldRef lhs, CmpOp op, Value rhs);
  /// field <op> field (join predicate)
  [[nodiscard]] static PredicatePtr cmp(FieldRef lhs, CmpOp op, FieldRef rhs);
  /// 0 <= newer - older <= band_ms  (both resolved as integral timestamps).
  /// This is how window constraints are re-imposed on merged result streams
  /// (paper Section 2.1, subscriptions p3_2/p4_2).
  [[nodiscard]] static PredicatePtr time_band(FieldRef newer, FieldRef older,
                                              std::int64_t band_ms);
  [[nodiscard]] static PredicatePtr conj(std::vector<PredicatePtr> children);
  [[nodiscard]] static PredicatePtr disj(std::vector<PredicatePtr> children);
  [[nodiscard]] static PredicatePtr negate(PredicatePtr child);
};

/// field <op> const leaf; exposed for analysis (containment, pub/sub).
class CompareConst final : public Predicate {
 public:
  CompareConst(FieldRef lhs, CmpOp op, Value rhs)
      : lhs_(std::move(lhs)), op_(op), rhs_(std::move(rhs)) {}
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kCompareConst;
  }
  [[nodiscard]] bool eval(const std::vector<Binding>& env) const override;
  [[nodiscard]] std::string to_string() const override;

  [[nodiscard]] const FieldRef& lhs() const noexcept { return lhs_; }
  [[nodiscard]] CmpOp op() const noexcept { return op_; }
  [[nodiscard]] const Value& rhs() const noexcept { return rhs_; }

 private:
  FieldRef lhs_;
  CmpOp op_;
  Value rhs_;
};

/// field <op> field leaf.
class CompareField final : public Predicate {
 public:
  CompareField(FieldRef lhs, CmpOp op, FieldRef rhs)
      : lhs_(std::move(lhs)), op_(op), rhs_(std::move(rhs)) {}
  [[nodiscard]] Kind kind() const noexcept override {
    return Kind::kCompareField;
  }
  [[nodiscard]] bool eval(const std::vector<Binding>& env) const override;
  [[nodiscard]] std::string to_string() const override;

  [[nodiscard]] const FieldRef& lhs() const noexcept { return lhs_; }
  [[nodiscard]] CmpOp op() const noexcept { return op_; }
  [[nodiscard]] const FieldRef& rhs() const noexcept { return rhs_; }

 private:
  FieldRef lhs_;
  CmpOp op_;
  FieldRef rhs_;
};

/// 0 <= newer - older <= band, computed without signed overflow: a
/// difference that does not fit int64 lies outside every band.
[[nodiscard]] inline bool within_band(std::int64_t newer, std::int64_t older,
                                      std::int64_t band) noexcept {
  std::int64_t delta = 0;
  if (__builtin_sub_overflow(newer, older, &delta)) return false;
  return delta >= 0 && delta <= band;
}

/// 0 <= newer - older <= band_ms (see within_band).
class TimeBand final : public Predicate {
 public:
  TimeBand(FieldRef newer, FieldRef older, std::int64_t band_ms)
      : newer_(std::move(newer)), older_(std::move(older)), band_ms_(band_ms) {}
  [[nodiscard]] Kind kind() const noexcept override { return Kind::kTimeBand; }
  [[nodiscard]] bool eval(const std::vector<Binding>& env) const override;
  [[nodiscard]] std::string to_string() const override;

  [[nodiscard]] const FieldRef& newer() const noexcept { return newer_; }
  [[nodiscard]] const FieldRef& older() const noexcept { return older_; }
  [[nodiscard]] std::int64_t band_ms() const noexcept { return band_ms_; }

 private:
  FieldRef newer_;
  FieldRef older_;
  std::int64_t band_ms_;
};

class BoolJunction final : public Predicate {
 public:
  BoolJunction(Kind kind, std::vector<PredicatePtr> children)
      : kind_(kind), children_(std::move(children)) {}
  [[nodiscard]] Kind kind() const noexcept override { return kind_; }
  [[nodiscard]] bool eval(const std::vector<Binding>& env) const override;
  [[nodiscard]] std::string to_string() const override;
  [[nodiscard]] const std::vector<PredicatePtr>& children() const noexcept {
    return children_;
  }

 private:
  Kind kind_;
  std::vector<PredicatePtr> children_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr child) : child_(std::move(child)) {}
  [[nodiscard]] Kind kind() const noexcept override { return Kind::kNot; }
  [[nodiscard]] bool eval(const std::vector<Binding>& env) const override {
    return !child_->eval(env);
  }
  [[nodiscard]] std::string to_string() const override {
    return "NOT (" + child_->to_string() + ")";
  }
  [[nodiscard]] const PredicatePtr& child() const noexcept { return child_; }

 private:
  PredicatePtr child_;
};

/// Looks up a field value in the environment. Handles the implicit
/// "timestamp" pseudo-field. Throws std::invalid_argument when unresolvable.
[[nodiscard]] Value resolve_field(const FieldRef& ref,
                                  const std::vector<Binding>& env);

/// Collects all CompareConst leaves of a conjunction-only tree; returns
/// false if the tree contains OR/NOT (non-conjunctive).
bool collect_conjuncts(const PredicatePtr& p,
                       std::vector<PredicatePtr>& out) noexcept;

}  // namespace cosmos::stream
