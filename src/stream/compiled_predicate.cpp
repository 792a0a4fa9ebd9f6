#include "stream/compiled_predicate.h"

#include <stdexcept>

#include "runtime/tuple_batch.h"

namespace cosmos::stream {

std::optional<FieldSlot> resolve_slot(
    const FieldRef& ref, const std::vector<BindingSpec>& bindings) noexcept {
  for (std::uint32_t i = 0; i < bindings.size(); ++i) {
    const BindingSpec& b = bindings[i];
    if (!ref.alias.empty() && ref.alias != b.alias) continue;
    if (b.schema == nullptr) return std::nullopt;
    if (const auto idx = b.schema->index_of(ref.field)) {
      if (*idx == b.virtual_ts_col) return FieldSlot{i, FieldSlot::kTsCol};
      return FieldSlot{i, static_cast<std::uint32_t>(*idx)};
    }
    if (ref.field == "timestamp") return FieldSlot{i, FieldSlot::kTsCol};
    if (!ref.alias.empty()) break;  // alias matched but field missing
  }
  return std::nullopt;
}

ValueType slot_type(const FieldSlot& slot,
                    const std::vector<BindingSpec>& bindings) {
  if (slot.col == FieldSlot::kTsCol) return ValueType::kInt;
  return bindings.at(slot.binding).schema->field(slot.col).type;
}

namespace {

[[nodiscard]] int three_way(std::int64_t a, std::int64_t b) noexcept {
  return a < b ? -1 : (a == b ? 0 : 1);
}
[[nodiscard]] int three_way(double a, double b) noexcept {
  return a < b ? -1 : (a == b ? 0 : 1);
}

[[noreturn]] void throw_string_vs_numeric() {
  throw std::logic_error{"Value: string vs numeric comparison"};
}

[[noreturn]] void throw_row_too_narrow(std::uint32_t col, std::size_t width) {
  throw std::out_of_range{"CompiledPredicate: column " + std::to_string(col) +
                          " out of range (row width " + std::to_string(width) +
                          ")"};
}

}  // namespace

/// Builds a CompiledPredicate program via one post-order walk with jump
/// backpatching. Friend of CompiledPredicate.
class PredicateCompiler {
 public:
  PredicateCompiler(const std::vector<BindingSpec>& bindings, bool lenient)
      : bindings_(bindings), lenient_(lenient) {}

  CompiledPredicate run(const PredicatePtr& p) {
    for (const BindingSpec& b : bindings_) {
      if (b.schema == nullptr) {
        throw std::invalid_argument{
            "CompiledPredicate: null schema for alias '" + b.alias + "'"};
      }
    }
    if (p == nullptr) {
      throw std::invalid_argument{"CompiledPredicate: null predicate"};
    }
    emit(p);
    return std::move(out_);
  }

 private:
  using Op = CompiledPredicate::Op;
  using Instr = CompiledPredicate::Instr;

  void emit(const PredicatePtr& p) {
    switch (p->kind()) {
      case Predicate::Kind::kTrue:
        out_.code_.push_back(Instr{});  // Op::kTrue
        return;
      case Predicate::Kind::kCompareConst:
        emit_cmp_const(static_cast<const CompareConst&>(*p));
        return;
      case Predicate::Kind::kCompareField:
        emit_cmp_field(static_cast<const CompareField&>(*p));
        return;
      case Predicate::Kind::kTimeBand:
        emit_time_band(static_cast<const TimeBand&>(*p));
        return;
      case Predicate::Kind::kAnd:
      case Predicate::Kind::kOr:
        emit_junction(static_cast<const BoolJunction&>(*p));
        return;
      case Predicate::Kind::kNot: {
        emit(static_cast<const NotPredicate&>(*p).child());
        Instr in;
        in.op = Op::kNot;
        out_.code_.push_back(in);
        return;
      }
    }
    throw std::invalid_argument{"CompiledPredicate: unknown node kind"};
  }

  void emit_junction(const BoolJunction& j) {
    const bool is_and = j.kind() == Predicate::Kind::kAnd;
    const auto& children = j.children();
    if (children.empty()) {
      // Interpreter: empty AND is true, empty OR is false. Predicate
      // factories never build these, but stay faithful anyway.
      Instr in;
      out_.code_.push_back(in);  // reg = true
      if (!is_and) {
        Instr neg;
        neg.op = Op::kNot;
        out_.code_.push_back(neg);
      }
      return;
    }
    std::vector<std::uint32_t> patches;
    emit(children.front());
    for (std::size_t i = 1; i < children.size(); ++i) {
      Instr jump;
      jump.op = is_and ? Op::kJumpIfFalse : Op::kJumpIfTrue;
      patches.push_back(static_cast<std::uint32_t>(out_.code_.size()));
      out_.code_.push_back(jump);
      emit(children[i]);
    }
    const auto end = static_cast<std::uint32_t>(out_.code_.size());
    for (const std::uint32_t at : patches) out_.code_[at].target = end;
  }

  /// Resolves `ref`; in lenient mode an unresolvable ref emits a kThrow
  /// carrying the interpreter's resolve_field message and returns nullopt.
  std::optional<FieldSlot> slot_or_throw(const FieldRef& ref) {
    if (auto s = resolve_slot(ref, bindings_)) return s;
    const std::string msg = "resolve_field: cannot resolve " + ref.to_string();
    if (!lenient_) throw std::invalid_argument{msg};
    Instr in;
    in.op = Op::kThrow;
    in.aux = static_cast<std::uint32_t>(out_.messages_.size());
    out_.messages_.push_back(msg);
    out_.code_.push_back(in);
    out_.may_throw_ = true;
    return std::nullopt;
  }

  void emit_cmp_const(const CompareConst& cc) {
    const auto slot = slot_or_throw(cc.lhs());
    if (!slot) return;
    Instr in;
    in.cmp = cc.op();
    in.a = *slot;
    const Value& rhs = cc.rhs();
    if (rhs.type() == ValueType::kString) {
      in.op = Op::kCmpConstStr;
      in.aux = static_cast<std::uint32_t>(out_.strings_.size());
      out_.strings_.push_back(rhs.as_string());
    } else {
      in.op = Op::kCmpConstNum;
      in.const_is_int = rhs.type() == ValueType::kInt;
      if (in.const_is_int) in.inum = rhs.as_int();
      in.num = rhs.as_double();
    }
    out_.code_.push_back(in);
  }

  void emit_cmp_field(const CompareField& cf) {
    // Interpreter resolves lhs first: on a doubly-unresolvable compare the
    // lhs message must win.
    const auto a = slot_or_throw(cf.lhs());
    if (!a) return;
    const auto b = slot_or_throw(cf.rhs());
    if (!b) return;
    Instr in;
    in.op = Op::kCmpField;
    in.cmp = cf.op();
    in.a = *a;
    in.b = *b;
    out_.code_.push_back(in);
  }

  void emit_time_band(const TimeBand& tb) {
    const auto a = slot_or_throw(tb.newer());
    if (!a) return;
    // The interpreter fully evaluates as_int(newer) before resolving
    // older, so a string-typed newer must throw std::logic_error even when
    // older is unresolvable: probe newer before the lenient throw.
    if (lenient_ && !resolve_slot(tb.older(), bindings_)) {
      Instr probe;
      probe.op = Op::kIntProbe;
      probe.a = *a;
      out_.code_.push_back(probe);
    }
    const auto b = slot_or_throw(tb.older());
    if (!b) return;
    Instr in;
    in.op = Op::kTimeBand;
    in.a = *a;
    in.b = *b;
    in.inum = tb.band_ms();
    out_.code_.push_back(in);
  }

  const std::vector<BindingSpec>& bindings_;
  bool lenient_;
  CompiledPredicate out_;
};

CompiledPredicate CompiledPredicate::compile_impl(
    const PredicatePtr& p, const std::vector<BindingSpec>& b, bool lenient) {
  return PredicateCompiler{b, lenient}.run(p);
}

CompiledPredicate CompiledPredicate::compile(
    const PredicatePtr& p, const std::vector<BindingSpec>& bindings) {
  return compile_impl(p, bindings, /*lenient=*/false);
}

CompiledPredicate CompiledPredicate::compile_lenient(
    const PredicatePtr& p, const std::vector<BindingSpec>& bindings) {
  return compile_impl(p, bindings, /*lenient=*/true);
}

namespace {

/// Loads a slot's value for the generic field-field compare; `scratch`
/// backs timestamp slots.
inline const Value& load_value(const CompiledPredicate::Row* rows,
                               const FieldSlot& s, Value& scratch) {
  const CompiledPredicate::Row& r = rows[s.binding];
  if (s.col == FieldSlot::kTsCol) {
    scratch = Value{static_cast<std::int64_t>(r.ts)};
    return scratch;
  }
  if (s.col >= r.width) throw_row_too_narrow(s.col, r.width);
  return r.values[s.col];
}

/// as_int view of a slot (kTimeBand): ints exact, doubles truncated,
/// strings throw — the interpreter's Value::as_int.
inline std::int64_t load_int(const CompiledPredicate::Row* rows,
                             const FieldSlot& s) {
  const CompiledPredicate::Row& r = rows[s.binding];
  if (s.col == FieldSlot::kTsCol) return r.ts;
  if (s.col >= r.width) throw_row_too_narrow(s.col, r.width);
  return r.values[s.col].as_int();
}

}  // namespace

template <bool kUnresolvedFalse>
bool CompiledPredicate::eval_impl(const Row* rows) const {
  bool reg = true;
  for (std::size_t pc = 0; pc < code_.size(); ++pc) {
    const Instr& in = code_[pc];
    switch (in.op) {
      case Op::kTrue:
        reg = true;
        break;
      case Op::kCmpConstNum: {
        const Row& r = rows[in.a.binding];
        int sign;
        if (in.a.col == FieldSlot::kTsCol) {
          sign = in.const_is_int
                     ? three_way(static_cast<std::int64_t>(r.ts), in.inum)
                     : three_way(static_cast<double>(r.ts), in.num);
        } else {
          if (in.a.col >= r.width) throw_row_too_narrow(in.a.col, r.width);
          const Value& v = r.values[in.a.col];
          switch (v.type()) {
            case ValueType::kInt:
              sign = in.const_is_int
                         ? three_way(v.as_int(), in.inum)
                         : three_way(static_cast<double>(v.as_int()), in.num);
              break;
            case ValueType::kDouble:
              sign = three_way(v.as_double(), in.num);
              break;
            default:
              throw_string_vs_numeric();
          }
        }
        reg = apply_cmp(in.cmp, sign);
        break;
      }
      case Op::kCmpConstStr: {
        const Row& r = rows[in.a.binding];
        if (in.a.col == FieldSlot::kTsCol) throw_string_vs_numeric();
        if (in.a.col >= r.width) throw_row_too_narrow(in.a.col, r.width);
        const Value& v = r.values[in.a.col];
        if (v.type() != ValueType::kString) throw_string_vs_numeric();
        const std::string& a = v.as_string();
        const std::string& b = strings_[in.aux];
        reg = apply_cmp(in.cmp, a < b ? -1 : (a == b ? 0 : 1));
        break;
      }
      case Op::kCmpField: {
        Value sa;
        Value sb;
        const Value& va = load_value(rows, in.a, sa);
        const Value& vb = load_value(rows, in.b, sb);
        reg = apply_cmp(in.cmp, va.compare(vb));
        break;
      }
      case Op::kTimeBand: {
        const std::int64_t newer = load_int(rows, in.a);
        reg = within_band(newer, load_int(rows, in.b), in.inum);
        break;
      }
      case Op::kNot:
        reg = !reg;
        break;
      case Op::kIntProbe:
        (void)load_int(rows, in.a);
        break;
      case Op::kJumpIfFalse:
        if (!reg) pc = static_cast<std::size_t>(in.target) - 1;
        break;
      case Op::kJumpIfTrue:
        if (reg) pc = static_cast<std::size_t>(in.target) - 1;
        break;
      case Op::kThrow:
        if constexpr (kUnresolvedFalse) {
          // The subscription contract: an unresolvable field means "this
          // message cannot match", observed by reaching the instruction —
          // exactly where eval() would throw and the caller would catch.
          return false;
        } else {
          throw std::invalid_argument{messages_[in.aux]};
        }
    }
  }
  return reg;
}

bool CompiledPredicate::eval(const Row* rows) const {
  return eval_impl<false>(rows);
}

bool CompiledPredicate::eval_unresolved_false(const Row* rows) const {
  return eval_impl<true>(rows);
}

template <bool kUnresolvedFalse>
void CompiledPredicate::filter_batch_impl(
    const runtime::TupleBatch& batch, const std::vector<std::uint32_t>* sel,
    std::vector<std::uint32_t>& out) const {
  const std::size_t n = batch.size();
  const stream::Timestamp* ts = batch.ts_data();
  const Value* vals = batch.values_data();
  const std::size_t w = batch.width();
  Row row{0, nullptr, w};
  if (sel == nullptr) {
    for (std::uint32_t r = 0; r < n; ++r) {
      row.ts = ts[r];
      row.values = vals + std::size_t{r} * w;
      if (eval_impl<kUnresolvedFalse>(&row)) out.push_back(r);
    }
    return;
  }
  for (const std::uint32_t r : *sel) {
    if (r >= n) {
      throw std::out_of_range{"CompiledPredicate: selected row " +
                              std::to_string(r) + " out of range"};
    }
    row.ts = ts[r];
    row.values = vals + std::size_t{r} * w;
    if (eval_impl<kUnresolvedFalse>(&row)) out.push_back(r);
  }
}

void CompiledPredicate::filter_batch(const runtime::TupleBatch& batch,
                                     const std::vector<std::uint32_t>* sel,
                                     std::vector<std::uint32_t>& out) const {
  filter_batch_impl<false>(batch, sel, out);
}

void CompiledPredicate::filter_batch_unresolved_false(
    const runtime::TupleBatch& batch, const std::vector<std::uint32_t>* sel,
    std::vector<std::uint32_t>& out) const {
  filter_batch_impl<true>(batch, sel, out);
}

namespace {

[[nodiscard]] bool numeric_class(ValueType t) noexcept {
  return t != ValueType::kString;
}

}  // namespace

bool statically_well_typed(const PredicatePtr& p,
                           const std::vector<BindingSpec>& bindings) {
  switch (p->kind()) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kCompareConst: {
      const auto& cc = static_cast<const CompareConst&>(*p);
      const auto slot = resolve_slot(cc.lhs(), bindings);
      if (!slot) return false;
      return numeric_class(slot_type(*slot, bindings)) ==
             numeric_class(cc.rhs().type());
    }
    case Predicate::Kind::kCompareField: {
      const auto& cf = static_cast<const CompareField&>(*p);
      const auto a = resolve_slot(cf.lhs(), bindings);
      const auto b = resolve_slot(cf.rhs(), bindings);
      if (!a || !b) return false;
      return numeric_class(slot_type(*a, bindings)) ==
             numeric_class(slot_type(*b, bindings));
    }
    case Predicate::Kind::kTimeBand: {
      const auto& tb = static_cast<const TimeBand&>(*p);
      const auto a = resolve_slot(tb.newer(), bindings);
      const auto b = resolve_slot(tb.older(), bindings);
      if (!a || !b) return false;
      return numeric_class(slot_type(*a, bindings)) &&
             numeric_class(slot_type(*b, bindings));
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      for (const auto& c : static_cast<const BoolJunction&>(*p).children()) {
        if (!statically_well_typed(c, bindings)) return false;
      }
      return true;
    }
    case Predicate::Kind::kNot:
      return statically_well_typed(
          static_cast<const NotPredicate&>(*p).child(), bindings);
  }
  return false;
}

FilterSplit split_const_conjuncts(const PredicatePtr& p,
                                  const std::vector<BindingSpec>& bindings) {
  FilterSplit out;
  if (!collect_conjuncts(p, out.conjuncts)) return out;
  out.conjunctive = true;
  out.statically_safe = statically_well_typed(p, bindings);
  for (std::size_t i = 0; i < out.conjuncts.size(); ++i) {
    const PredicatePtr& c = out.conjuncts[i];
    if (c->kind() != Predicate::Kind::kCompareConst) continue;
    const auto& cc = static_cast<const CompareConst&>(*c);
    if (cc.op() == CmpOp::kNe) continue;
    const auto slot = resolve_slot(cc.lhs(), bindings);
    if (!slot) continue;
    if (numeric_class(slot_type(*slot, bindings)) !=
        numeric_class(cc.rhs().type())) {
      continue;  // class-mismatched compares throw, they never prune
    }
    out.indexable.push_back({i, *slot, cc.op(), cc.rhs()});
  }
  return out;
}

namespace {

/// Empty-alias refs resolve by scanning bindings in order, so the probe
/// direction (incoming side first) changes the scan order; a join index
/// key is only sound when a ref lands on the same physical slot either way.
/// `flipped` is `bindings` reversed.
std::optional<FieldSlot> resolve_stable(
    const FieldRef& ref, const std::vector<BindingSpec>& bindings,
    const std::vector<BindingSpec>& flipped) {
  const auto fwd = resolve_slot(ref, bindings);
  if (!fwd) return std::nullopt;
  auto rev = resolve_slot(ref, flipped);
  if (!rev) return std::nullopt;
  rev->binding =
      static_cast<std::uint32_t>(bindings.size()) - 1 - rev->binding;
  if (*rev != *fwd) return std::nullopt;
  return fwd;
}

}  // namespace

JoinSplit split_equi_conjuncts(const PredicatePtr& p,
                               const std::vector<BindingSpec>& bindings) {
  JoinSplit out;
  std::vector<PredicatePtr> conjuncts;
  if (!collect_conjuncts(p, conjuncts)) {
    out.residual = p;  // non-conjunctive: nothing extractable
    return out;
  }
  const std::vector<BindingSpec> flipped{bindings.rbegin(), bindings.rend()};
  std::vector<PredicatePtr> residual;
  for (const PredicatePtr& c : conjuncts) {
    if (c->kind() == Predicate::Kind::kCompareField) {
      const auto& cf = static_cast<const CompareField&>(*c);
      if (cf.op() == CmpOp::kEq) {
        const auto a = resolve_stable(cf.lhs(), bindings, flipped);
        const auto b = resolve_stable(cf.rhs(), bindings, flipped);
        if (a && b && a->binding != b->binding) {
          const bool a_str = slot_type(*a, bindings) == ValueType::kString;
          const bool b_str = slot_type(*b, bindings) == ValueType::kString;
          if (a_str == b_str) {
            out.keys.push_back(a->binding == 0 ? EquiKey{*a, *b}
                                               : EquiKey{*b, *a});
            continue;
          }
        }
      }
    }
    residual.push_back(c);
  }
  out.residual = Predicate::conj(std::move(residual));
  return out;
}

BandSplit split_band_conjunct(const PredicatePtr& p,
                              const std::vector<BindingSpec>& bindings) {
  BandSplit out;
  out.residual = p;
  std::vector<PredicatePtr> conjuncts;
  const std::vector<BindingSpec> flipped{bindings.rbegin(), bindings.rend()};
  if (!collect_conjuncts(p, conjuncts) ||
      !statically_well_typed(p, bindings) ||
      !statically_well_typed(p, flipped)) {
    return out;
  }
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    if (conjuncts[i]->kind() != Predicate::Kind::kTimeBand) continue;
    const auto& tb = static_cast<const TimeBand&>(*conjuncts[i]);
    if (tb.band_ms() < 0) continue;
    const auto newer = resolve_stable(tb.newer(), bindings, flipped);
    const auto older = resolve_stable(tb.older(), bindings, flipped);
    if (!newer || !older || newer->binding == older->binding ||
        slot_type(*newer, bindings) != ValueType::kInt ||
        slot_type(*older, bindings) != ValueType::kInt) {
      continue;
    }
    const bool left_is_newer = newer->binding == 0;
    out.band = BandKey{left_is_newer ? *newer : *older,
                       left_is_newer ? *older : *newer, left_is_newer,
                       tb.band_ms()};
    conjuncts.erase(conjuncts.begin() + static_cast<std::ptrdiff_t>(i));
    out.residual = Predicate::conj(std::move(conjuncts));
    return out;
  }
  return out;
}

}  // namespace cosmos::stream
