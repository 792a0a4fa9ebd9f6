// Compiled predicate programs: the batch-execution counterpart of the
// interpreted Predicate tree (predicate.h).
//
// The interpreter resolves every FieldRef by string against the bound
// schemas on every row, dispatches through a virtual eval() per node, and
// chases shared_ptr children — fine for analysis (containment, merging,
// coverage), far too slow for the per-tuple hot path. CompiledPredicate
// does all of that work once, at operator/subscription build time:
//
//  - every FieldRef is resolved against the binding schemas to a
//    (binding index, column index) slot — or to the row timestamp for the
//    "timestamp" pseudo-field and for the plan's appended virtual
//    timestamp column;
//  - comparisons against constants are specialized by the constant's
//    ValueType (numeric vs string), with the numeric constant pre-split
//    into exact-int and double forms;
//  - the tree is flattened into a contiguous short-circuit program (a
//    register machine with conditional jumps), evaluated with no virtual
//    dispatch, no string lookups and no shared_ptr traffic.
//
// The interpreter remains the semantic oracle: for any row, eval() returns
// exactly what Predicate::eval would, including throw behaviour
// (std::logic_error on string-vs-numeric comparisons, std::out_of_range on
// rows narrower than the schema). Unresolvable fields are reported at
// *compile* time by compile() (strict — what operators use, since the plan
// binds full schemas), or deferred to a per-row std::invalid_argument by
// compile_lenient() (what subscription matching uses, mirroring the
// interpreter's resolve-at-eval behaviour row for row).
//
// Programs are schema-relative — slots, constants and jump targets only;
// no pointers into the engine — so a distributed deployment can serialize
// a compiled subscription or operator program as-is.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stream/predicate.h"
#include "stream/schema.h"

namespace cosmos::runtime {
class TupleBatch;
}

namespace cosmos::stream {

/// Compile-time binding: the schema a predicate alias is evaluated
/// against (the static half of the interpreter's Binding).
struct BindingSpec {
  std::string alias;
  const Schema* schema = nullptr;
  /// Index of a schema column that is *not* physically present in the
  /// rows handed to eval and must be read from the row timestamp instead
  /// — the plan's appended "<alias>.timestamp" column when batch
  /// evaluation runs directly over raw source batches. SIZE_MAX = none.
  std::size_t virtual_ts_col = SIZE_MAX;
};

/// Where a compiled field read comes from: a value column of one binding,
/// or that binding's row timestamp (col == kTsCol).
struct FieldSlot {
  static constexpr std::uint32_t kTsCol = UINT32_MAX;
  std::uint32_t binding = 0;
  std::uint32_t col = kTsCol;

  friend bool operator==(const FieldSlot&, const FieldSlot&) = default;
};

/// Compile-time mirror of resolve_field (predicate.h): the slot `ref`
/// would read under `bindings`, or nullopt when unresolvable. Follows the
/// interpreter's resolution order exactly: bindings are scanned in order,
/// a non-empty alias must match, a schema column wins over the
/// "timestamp" pseudo-field, and a matched alias with a missing field
/// stops the scan.
[[nodiscard]] std::optional<FieldSlot> resolve_slot(
    const FieldRef& ref, const std::vector<BindingSpec>& bindings) noexcept;

/// Declared ValueType of a slot (timestamp slots are kInt).
[[nodiscard]] ValueType slot_type(const FieldSlot& slot,
                                  const std::vector<BindingSpec>& bindings);

class CompiledPredicate {
 public:
  /// One binding's row at eval time. `width` is the number of physical
  /// value columns; reads beyond it throw std::out_of_range (the
  /// interpreter's Tuple::at behaviour).
  struct Row {
    Timestamp ts = 0;
    const Value* values = nullptr;
    std::size_t width = 0;
  };

  /// Default: the empty program, which evaluates to true (always_true).
  CompiledPredicate() = default;

  /// Compiles `p` against `bindings`; throws std::invalid_argument at
  /// compile time for unresolvable fields or null binding schemas.
  [[nodiscard]] static CompiledPredicate compile(
      const PredicatePtr& p, const std::vector<BindingSpec>& bindings);

  /// Like compile(), but an unresolvable field compiles into an
  /// instruction that throws std::invalid_argument when (and only when)
  /// short-circuit evaluation reaches it — row-for-row identical to the
  /// interpreter, which resolves lazily. may_throw() reports whether any
  /// such instruction was emitted.
  [[nodiscard]] static CompiledPredicate compile_lenient(
      const PredicatePtr& p, const std::vector<BindingSpec>& bindings);

  [[nodiscard]] bool may_throw() const noexcept { return may_throw_; }
  /// Number of program instructions (tests and diagnostics).
  [[nodiscard]] std::size_t program_size() const noexcept {
    return code_.size();
  }

  /// Evaluates against one row per binding (rows[i] <-> bindings[i]).
  [[nodiscard]] bool eval(const Row* rows) const;

  /// eval() with the subscription-matching contract folded in: a kThrow
  /// instruction (the lenient compilation of an unresolvable field)
  /// evaluates to false instead of throwing — observationally identical
  /// to eval() under a catch(std::invalid_argument){return false;}
  /// handler, without paying an exception unwind per row. Type errors
  /// (std::logic_error) and narrow rows (std::out_of_range) still
  /// propagate exactly like eval().
  [[nodiscard]] bool eval_unresolved_false(const Row* rows) const;

  [[nodiscard]] bool eval(const Tuple& t) const {
    const Row r{t.ts, t.values.data(), t.values.size()};
    return eval(&r);
  }
  [[nodiscard]] bool eval(const Tuple& a, const Tuple& b) const {
    const Row rows[2] = {{a.ts, a.values.data(), a.values.size()},
                         {b.ts, b.values.data(), b.values.size()}};
    return eval(rows);
  }

  /// Single-binding batch filter: evaluates the rows of `batch` listed in
  /// `sel` (every row when nullptr) and appends the ids of passing rows to
  /// `out` in ascending order — the selection-vector convention of the
  /// batch operator paths.
  void filter_batch(const runtime::TupleBatch& batch,
                    const std::vector<std::uint32_t>* sel,
                    std::vector<std::uint32_t>& out) const;

  /// filter_batch() over eval_unresolved_false (what subscription
  /// matching runs for may_throw() filters).
  void filter_batch_unresolved_false(const runtime::TupleBatch& batch,
                                     const std::vector<std::uint32_t>* sel,
                                     std::vector<std::uint32_t>& out) const;

 private:
  enum class Op : std::uint8_t {
    kTrue,         // reg = true
    kCmpConstNum,  // reg = slot(a) <cmp> numeric constant
    kCmpConstStr,  // reg = slot(a) <cmp> string constant
    kCmpField,     // reg = slot(a) <cmp> slot(b)
    kTimeBand,     // reg = 0 <= int(a) - int(b) <= band
    kNot,          // reg = !reg
    kJumpIfFalse,  // if (!reg) pc = target
    kJumpIfTrue,   // if (reg) pc = target
    kIntProbe,     // int(a) for its throw side effect only (reg untouched):
                   // keeps a partially-unresolved TimeBand throwing in the
                   // interpreter's operand order
    kThrow,        // throw std::invalid_argument{messages[aux]}
  };
  struct Instr {
    Op op = Op::kTrue;
    CmpOp cmp = CmpOp::kEq;
    bool const_is_int = false;  // kCmpConstNum: exact int-int path valid
    FieldSlot a;
    FieldSlot b;
    std::uint32_t target = 0;   // jump target (instruction index)
    std::uint32_t aux = 0;      // strings_/messages_ index
    std::int64_t inum = 0;      // kCmpConstNum int form / kTimeBand band
    double num = 0.0;           // kCmpConstNum double form
  };

  friend class PredicateCompiler;

  static CompiledPredicate compile_impl(const PredicatePtr& p,
                                        const std::vector<BindingSpec>& b,
                                        bool lenient);

  template <bool kUnresolvedFalse>
  [[nodiscard]] bool eval_impl(const Row* rows) const;
  template <bool kUnresolvedFalse>
  void filter_batch_impl(const runtime::TupleBatch& batch,
                         const std::vector<std::uint32_t>* sel,
                         std::vector<std::uint32_t>& out) const;

  std::vector<Instr> code_;
  std::vector<std::string> strings_;   // kCmpConstStr operands
  std::vector<std::string> messages_;  // kThrow messages
  bool may_throw_ = false;
};

/// One single-column compare-against-constant conjunct of a filter: the
/// unit the pub/sub attribute-predicate index can serve (an equality probe
/// or a range stab on that column). `position` identifies the conjunct in
/// FilterSplit::conjuncts so index builders can exclude anchored conjuncts
/// from the residual they re-check per candidate.
struct ConstConjunct {
  std::size_t position = 0;
  FieldSlot slot;
  CmpOp op = CmpOp::kEq;
  Value constant;
};

/// Decomposition of a filter's top-level conjunction for index placement
/// (the single-binding analogue of split_equi_conjuncts). `conjuncts`
/// preserves the interpreter's evaluation order; `indexable` lists the
/// ==/</<=/>/>= constant conjuncts whose declared column type class
/// matches the constant's (kNe prunes nothing and is excluded, as are
/// class-mismatched compares, which throw rather than match).
/// `statically_safe` reports that no comparison anywhere in the tree can
/// throw on schema-conforming rows — the gate that entitles an index to
/// probe an anchor conjunct ahead of the interpreter's short-circuit
/// order (see statically_well_typed). Non-conjunctive filters report
/// conjunctive == false with everything else empty.
struct FilterSplit {
  bool conjunctive = false;
  bool statically_safe = false;
  std::vector<PredicatePtr> conjuncts;
  std::vector<ConstConjunct> indexable;
};
[[nodiscard]] FilterSplit split_const_conjuncts(
    const PredicatePtr& p, const std::vector<BindingSpec>& bindings);

/// True when no comparison node in `p` can throw on rows conforming to the
/// bound schemas: every FieldRef resolves, every compare's declared type
/// classes agree (string with string, numeric with numeric), and TimeBand
/// operands are numeric. Reordering the conjuncts of a statically
/// well-typed conjunction cannot change which rows throw (none do).
[[nodiscard]] bool statically_well_typed(
    const PredicatePtr& p, const std::vector<BindingSpec>& bindings);

/// One hash-joinable equality conjunct of a join predicate: the two value
/// columns (one per side) that must compare equal.
struct EquiKey {
  FieldSlot left;
  FieldSlot right;
};

/// Splits a join predicate over bindings [left, right] into equality
/// conjuncts a hash index can serve and the residual predicate re-checked
/// per candidate. A conjunct becomes a key iff it is a top-level
/// CompareField '=' whose sides statically resolve to *different*
/// bindings, resolve to the same slots under both binding orders (empty
/// aliases scan bindings in order, so ambiguous names must not flip
/// sides), and have hash-compatible declared types (both string or both
/// numeric — cross int/double equality hashes through double). Everything
/// else — non-conjunctive trees included — lands in `residual`.
struct JoinSplit {
  std::vector<EquiKey> keys;
  PredicatePtr residual;  // always_true() when nothing remains
};
[[nodiscard]] JoinSplit split_equi_conjuncts(
    const PredicatePtr& p, const std::vector<BindingSpec>& bindings);

/// A time-band conjunct a range probe can serve: `0 <= newer - older <=
/// band_ms` with one operand per side, both declared int (the timestamp
/// pseudo-field or an int column).
struct BandKey {
  FieldSlot left;   ///< the operand read from the left binding
  FieldSlot right;  ///< the operand read from the right binding
  bool left_is_newer = false;
  std::int64_t band_ms = 0;
};

/// Splits the first top-level TimeBand conjunct a range probe can serve out
/// of a join predicate over bindings [left, right]. The conjunct qualifies
/// when band_ms >= 0 and its refs resolve stably (as for equi keys) to int
/// slots of different bindings; the split is only made when the whole
/// predicate is statically well-typed under both binding orders, so a probe
/// that skips out-of-band candidates cannot skip a throw on conforming
/// rows. `residual` is the predicate minus that conjunct, conjunct order
/// kept; without a band it is `p` itself.
struct BandSplit {
  std::optional<BandKey> band;
  PredicatePtr residual;
};
[[nodiscard]] BandSplit split_band_conjunct(
    const PredicatePtr& p, const std::vector<BindingSpec>& bindings);

}  // namespace cosmos::stream
