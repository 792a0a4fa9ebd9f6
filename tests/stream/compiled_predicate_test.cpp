// Fuzz-style differential harness for CompiledPredicate: random predicate
// trees over every node kind, evaluated row-for-row against the
// interpreted Predicate::eval oracle — outcomes must agree exactly,
// including which exception type escapes (std::invalid_argument for
// unresolved fields in lenient mode, std::logic_error for string-vs-
// numeric comparisons). Strict compilation must reject unresolvable
// fields at compile time.
#include "stream/compiled_predicate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/tuple_batch.h"
#include "stream/predicate.h"

namespace cosmos::stream {
namespace {

Schema left_schema() {
  return Schema{{{"a", ValueType::kInt},
                 {"b", ValueType::kDouble},
                 {"s", ValueType::kString}}};
}
Schema right_schema() {
  return Schema{{{"x", ValueType::kInt},
                 {"y", ValueType::kDouble},
                 {"t", ValueType::kString}}};
}

/// Candidate field refs: resolvable ones (both aliases, empty alias, the
/// "timestamp" pseudo-field) and unresolvable ones (bogus field, bogus
/// alias) to exercise the lenient/throw path.
FieldRef random_ref(Rng& rng) {
  switch (rng.next_below(12)) {
    case 0: return {"S1", "a"};
    case 1: return {"S1", "b"};
    case 2: return {"S1", "s"};
    case 3: return {"S2", "x"};
    case 4: return {"S2", "y"};
    case 5: return {"S2", "t"};
    case 6: return {"", "a"};            // empty alias, first binding
    case 7: return {"", "y"};            // empty alias, second binding
    case 8: return {"S1", "timestamp"};  // pseudo-field
    case 9: return {"", "timestamp"};    // pseudo-field, first binding
    case 10: return {"S1", "nope"};      // unresolvable field
    default: return {"S9", "a"};         // unresolvable alias
  }
}

Value random_const(Rng& rng) {
  switch (rng.next_below(3)) {
    case 0: return Value{rng.next_range(-5, 5)};
    case 1: return Value{rng.next_double(-5.0, 5.0)};
    default: return Value{std::string(1, static_cast<char>(
                              'a' + rng.next_below(4)))};
  }
}

CmpOp random_cmp(Rng& rng) {
  constexpr CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt,
                            CmpOp::kGe, CmpOp::kEq, CmpOp::kNe};
  return kOps[rng.next_below(6)];
}

PredicatePtr random_tree(Rng& rng, int depth) {
  const std::uint64_t pick = rng.next_below(depth > 0 ? 10 : 5);
  switch (pick) {
    case 0: return Predicate::always_true();
    case 1:
    case 2: return Predicate::cmp(random_ref(rng), random_cmp(rng),
                                  random_const(rng));
    case 3: return Predicate::cmp(random_ref(rng), random_cmp(rng),
                                  random_ref(rng));
    case 4: return Predicate::time_band(random_ref(rng), random_ref(rng),
                                        rng.next_range(0, 100));
    case 5:
    case 6: {
      std::vector<PredicatePtr> kids;
      const std::size_t n = 2 + rng.next_below(3);
      for (std::size_t i = 0; i < n; ++i) {
        kids.push_back(random_tree(rng, depth - 1));
      }
      return pick == 5 ? Predicate::conj(std::move(kids))
                       : Predicate::disj(std::move(kids));
    }
    default:
      return Predicate::negate(random_tree(rng, depth - 1));
  }
}

/// Random tuple for a 3-column (int, double, string) schema; occasionally
/// deviates from the declared column type — both evaluators dispatch on
/// the actual runtime type and must still agree.
Tuple random_tuple(Rng& rng, Timestamp ts) {
  Tuple t;
  t.ts = ts;
  const auto cell = [&](int declared) -> Value {
    if (rng.next_below(8) == 0) {  // type deviation
      declared = static_cast<int>(rng.next_below(3));
    }
    switch (declared) {
      case 0: return Value{rng.next_range(-5, 5)};
      case 1: return Value{rng.next_double(-5.0, 5.0)};
      default: return Value{std::string(1, static_cast<char>(
                                'a' + rng.next_below(4)))};
    }
  };
  t.values = {cell(0), cell(1), cell(2)};
  return t;
}

enum class Outcome { kTrue, kFalse, kInvalidArg, kOutOfRange, kLogicError };

const char* name(Outcome o) {
  switch (o) {
    case Outcome::kTrue: return "true";
    case Outcome::kFalse: return "false";
    case Outcome::kInvalidArg: return "invalid_argument";
    case Outcome::kOutOfRange: return "out_of_range";
    case Outcome::kLogicError: return "logic_error";
  }
  return "?";
}

template <typename Fn>
Outcome run(Fn&& fn) {
  try {
    return fn() ? Outcome::kTrue : Outcome::kFalse;
  } catch (const std::invalid_argument&) {
    return Outcome::kInvalidArg;
  } catch (const std::out_of_range&) {
    return Outcome::kOutOfRange;
  } catch (const std::logic_error&) {
    return Outcome::kLogicError;
  }
}

TEST(CompiledPredicateFuzz, AgreesWithInterpreterRowForRow) {
  const Schema ls = left_schema();
  const Schema rs = right_schema();
  const std::vector<BindingSpec> bindings{{"S1", &ls, SIZE_MAX},
                                          {"S2", &rs, SIZE_MAX}};
  Rng rng{20260728};
  std::size_t checked = 0;
  std::size_t threw = 0;
  for (int tree = 0; tree < 300; ++tree) {
    const PredicatePtr p = random_tree(rng, 3);
    CompiledPredicate compiled;
    try {
      compiled = CompiledPredicate::compile_lenient(p, bindings);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "lenient compile threw on " << p->to_string() << ": "
                    << e.what();
      continue;
    }
    for (int row = 0; row < 25; ++row) {
      const Tuple lt = random_tuple(rng, rng.next_range(0, 50));
      const Tuple rt = random_tuple(rng, rng.next_range(0, 50));
      const std::vector<Binding> env{{"S1", &ls, &lt}, {"S2", &rs, &rt}};
      const Outcome want = run([&] { return p->eval(env); });
      const Outcome got = run([&] { return compiled.eval(lt, rt); });
      ASSERT_EQ(got, want) << "predicate " << p->to_string() << "\nwant "
                           << name(want) << " got " << name(got);
      ++checked;
      if (want != Outcome::kTrue && want != Outcome::kFalse) ++threw;
    }
    // Strict compilation: exactly the trees whose lenient program can
    // throw an unresolved-field error must be rejected at compile time.
    if (compiled.may_throw()) {
      EXPECT_THROW((void)CompiledPredicate::compile(p, bindings),
                   std::invalid_argument)
          << p->to_string();
    } else {
      EXPECT_NO_THROW((void)CompiledPredicate::compile(p, bindings))
          << p->to_string();
    }
  }
  EXPECT_GT(checked, 5000u);
  // The generator must actually exercise the throwing paths.
  EXPECT_GT(threw, 0u);
}

TEST(CompiledPredicateFuzz, FilterBatchMatchesPerRowEval) {
  const Schema ls = left_schema();
  const std::vector<BindingSpec> bindings{{"S1", &ls, SIZE_MAX}};
  Rng rng{424242};
  std::size_t nonempty = 0;
  for (int tree = 0; tree < 120; ++tree) {
    const PredicatePtr p = random_tree(rng, 2);
    const auto compiled = CompiledPredicate::compile_lenient(p, bindings);
    if (compiled.may_throw()) continue;  // throwing rows can't batch-filter

    runtime::TupleBatch batch{"S"};
    std::vector<Tuple> tuples;
    for (int i = 0; i < 40; ++i) {
      tuples.push_back(random_tuple(rng, i));
      batch.push_back(tuples.back());
    }
    std::vector<std::uint32_t> want;
    bool threw = false;
    for (std::uint32_t r = 0; r < tuples.size(); ++r) {
      const std::vector<Binding> env{{"S1", &ls, &tuples[r]}};
      try {
        if (p->eval(env)) want.push_back(r);
      } catch (const std::exception&) {
        threw = true;
        break;
      }
    }
    if (threw) continue;  // e.g. string-vs-numeric on a deviant cell

    std::vector<std::uint32_t> got;
    compiled.filter_batch(batch, nullptr, got);
    ASSERT_EQ(got, want) << p->to_string();
    if (!want.empty()) ++nonempty;

    // Selection-vector path: filtering a subset must equal the subset of
    // the full result.
    std::vector<std::uint32_t> sel;
    for (std::uint32_t r = 0; r < tuples.size(); r += 2) sel.push_back(r);
    std::vector<std::uint32_t> want_sel;
    for (const auto r : want) {
      if (r % 2 == 0) want_sel.push_back(r);
    }
    std::vector<std::uint32_t> got_sel;
    compiled.filter_batch(batch, &sel, got_sel);
    EXPECT_EQ(got_sel, want_sel) << p->to_string();
  }
  EXPECT_GT(nonempty, 10u);
}

TEST(CompiledPredicate, VirtualTimestampColumnReadsRowTimestamp) {
  // Lifted schema whose last column is the plan-appended timestamp; batch
  // rows are raw (one column narrower) and the slot must read the row ts.
  const Schema lifted{{{"S.v", ValueType::kInt},
                       {"S.timestamp", ValueType::kInt}}};
  const std::vector<BindingSpec> bindings{{"", &lifted, 1}};
  const auto compiled = CompiledPredicate::compile(
      Predicate::cmp(FieldRef{"", "S.timestamp"}, CmpOp::kGe, Value{100}),
      bindings);

  runtime::TupleBatch raw{"S"};
  raw.push_back(Tuple{50, {Value{1}}});
  raw.push_back(Tuple{100, {Value{2}}});
  raw.push_back(Tuple{150, {Value{3}}});
  std::vector<std::uint32_t> out;
  compiled.filter_batch(raw, nullptr, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2}));

  // The same program over a physically lifted tuple reads the same value.
  const Tuple lifted_tuple{150, {Value{3}, Value{150}}};
  EXPECT_TRUE(compiled.eval(lifted_tuple));
}

TEST(CompiledPredicate, StrictCompileThrowsOnUnresolvedField) {
  const Schema ls = left_schema();
  const std::vector<BindingSpec> bindings{{"S1", &ls, SIZE_MAX}};
  EXPECT_THROW(
      (void)CompiledPredicate::compile(
          Predicate::cmp(FieldRef{"S1", "missing"}, CmpOp::kEq, Value{1}),
          bindings),
      std::invalid_argument);
  EXPECT_THROW(
      (void)CompiledPredicate::compile(
          Predicate::cmp(FieldRef{"S9", "a"}, CmpOp::kEq, Value{1}),
          bindings),
      std::invalid_argument);
  // Null binding schema is a compile-time error in either mode.
  const std::vector<BindingSpec> null_bindings{{"S1", nullptr, SIZE_MAX}};
  EXPECT_THROW((void)CompiledPredicate::compile_lenient(
                   Predicate::always_true(), null_bindings),
               std::invalid_argument);
}

TEST(CompiledPredicate, LenientThrowOnlyWhenShortCircuitReachesLeaf) {
  const Schema ls = left_schema();
  const std::vector<BindingSpec> bindings{{"S1", &ls, SIZE_MAX}};
  // a > 0 AND missing > 0: rows failing the first conjunct never reach the
  // unresolved leaf — exactly the interpreter's behaviour.
  const auto p = Predicate::conj(
      {Predicate::cmp(FieldRef{"S1", "a"}, CmpOp::kGt, Value{0}),
       Predicate::cmp(FieldRef{"S1", "missing"}, CmpOp::kGt, Value{0})});
  const auto compiled = CompiledPredicate::compile_lenient(p, bindings);
  EXPECT_TRUE(compiled.may_throw());
  const Tuple fails_first{0, {Value{-1}, Value{0.0}, Value{"z"}}};
  EXPECT_FALSE(compiled.eval(fails_first));
  const Tuple passes_first{0, {Value{1}, Value{0.0}, Value{"z"}}};
  EXPECT_THROW((void)compiled.eval(passes_first), std::invalid_argument);
}

TEST(EquiSplit, ExtractsTypeCompatibleCrossSideEqualities) {
  const Schema ls = left_schema();
  const Schema rs = right_schema();
  const std::vector<BindingSpec> bindings{{"L", &ls, SIZE_MAX},
                                          {"R", &rs, SIZE_MAX}};
  const auto p = Predicate::conj(
      {Predicate::cmp(FieldRef{"L", "a"}, CmpOp::kEq, FieldRef{"R", "x"}),
       Predicate::cmp(FieldRef{"L", "s"}, CmpOp::kEq, FieldRef{"R", "t"}),
       Predicate::cmp(FieldRef{"L", "b"}, CmpOp::kGt, FieldRef{"R", "y"})});
  const auto split = split_equi_conjuncts(p, bindings);
  ASSERT_EQ(split.keys.size(), 2u);
  EXPECT_EQ(split.keys[0].left, (FieldSlot{0, 0}));   // L.a
  EXPECT_EQ(split.keys[0].right, (FieldSlot{1, 0}));  // R.x
  EXPECT_EQ(split.keys[1].left, (FieldSlot{0, 2}));   // L.s
  EXPECT_EQ(split.keys[1].right, (FieldSlot{1, 2}));  // R.t
  EXPECT_EQ(split.residual->to_string(), "L.b > R.y");
}

TEST(EquiSplit, RejectsUnsuitableConjuncts) {
  const Schema ls = left_schema();
  const Schema rs = right_schema();
  const std::vector<BindingSpec> bindings{{"L", &ls, SIZE_MAX},
                                          {"R", &rs, SIZE_MAX}};
  // String vs numeric columns: the interpreter throws per pair, so a hash
  // key may not absorb it.
  auto split = split_equi_conjuncts(
      Predicate::cmp(FieldRef{"L", "a"}, CmpOp::kEq, FieldRef{"R", "t"}),
      bindings);
  EXPECT_TRUE(split.keys.empty());
  // Same-side equality is a filter, not a join key.
  split = split_equi_conjuncts(
      Predicate::cmp(FieldRef{"L", "a"}, CmpOp::kEq, FieldRef{"L", "b"}),
      bindings);
  EXPECT_TRUE(split.keys.empty());
  // Non-conjunctive trees are untouched.
  split = split_equi_conjuncts(
      Predicate::disj(
          {Predicate::cmp(FieldRef{"L", "a"}, CmpOp::kEq, FieldRef{"R", "x"}),
           Predicate::always_true()}),
      bindings);
  EXPECT_TRUE(split.keys.empty());
  EXPECT_EQ(split.residual->kind(), Predicate::Kind::kOr);
}

TEST(EquiSplit, RejectsRefsThatFlipSidesWithBindingOrder) {
  // Both schemas expose "v": an empty-alias ref resolves to whichever
  // binding is scanned first, so it cannot anchor a hash key.
  const Schema ls{{{"v", ValueType::kInt}, {"w", ValueType::kInt}}};
  const Schema rs{{{"v", ValueType::kInt}, {"u", ValueType::kInt}}};
  const std::vector<BindingSpec> bindings{{"L", &ls, SIZE_MAX},
                                          {"R", &rs, SIZE_MAX}};
  const auto split = split_equi_conjuncts(
      Predicate::cmp(FieldRef{"", "v"}, CmpOp::kEq, FieldRef{"R", "u"}),
      bindings);
  EXPECT_TRUE(split.keys.empty());
  // An unambiguous empty-alias ref still qualifies.
  const auto ok = split_equi_conjuncts(
      Predicate::cmp(FieldRef{"", "w"}, CmpOp::kEq, FieldRef{"", "u"}),
      bindings);
  ASSERT_EQ(ok.keys.size(), 1u);
  EXPECT_EQ(ok.keys[0].left, (FieldSlot{0, 1}));   // L.w
  EXPECT_EQ(ok.keys[0].right, (FieldSlot{1, 1}));  // R.u
}

TEST(BandSplit, ExtractsFirstServableTimeBand) {
  const Schema ls = left_schema();
  const Schema rs = right_schema();
  const std::vector<BindingSpec> bindings{{"L", &ls, SIZE_MAX},
                                          {"R", &rs, SIZE_MAX}};
  const auto p = Predicate::conj(
      {Predicate::cmp(FieldRef{"L", "b"}, CmpOp::kGt, FieldRef{"R", "y"}),
       Predicate::time_band({"R", "x"}, {"L", "timestamp"}, 45),
       Predicate::time_band({"L", "a"}, {"R", "x"}, 7)});
  const auto split = split_band_conjunct(p, bindings);
  ASSERT_TRUE(split.band.has_value());
  EXPECT_EQ(split.band->left, (FieldSlot{0, FieldSlot::kTsCol}));
  EXPECT_EQ(split.band->right, (FieldSlot{1, 0}));  // R.x
  EXPECT_FALSE(split.band->left_is_newer);
  EXPECT_EQ(split.band->band_ms, 45);
  EXPECT_EQ(split.residual->to_string(),
            "(L.b > R.y AND 0 <= L.a - R.x <= 7)");
}

TEST(BandSplit, RejectsUnservableBands) {
  const Schema ls = left_schema();
  const Schema rs = right_schema();
  const std::vector<BindingSpec> bindings{{"L", &ls, SIZE_MAX},
                                          {"R", &rs, SIZE_MAX}};
  const auto rejected = [&](const PredicatePtr& p) {
    const auto split = split_band_conjunct(p, bindings);
    return !split.band && split.residual == p;
  };
  // Same-side band: a filter, not a join range.
  EXPECT_TRUE(rejected(Predicate::time_band({"L", "a"}, {"L", "timestamp"}, 5)));
  // A double operand truncates through as_int: not an int key.
  EXPECT_TRUE(rejected(Predicate::time_band({"L", "b"}, {"R", "x"}, 5)));
  // A negative band admits nothing; the scan says so just as well.
  EXPECT_TRUE(rejected(Predicate::time_band({"L", "a"}, {"R", "x"}, -1)));
  // A conjunct that may throw (string vs numeric) must stay reachable for
  // every candidate, so the band may not prune ahead of it.
  EXPECT_TRUE(rejected(Predicate::conj(
      {Predicate::time_band({"L", "a"}, {"R", "x"}, 5),
       Predicate::cmp(FieldRef{"L", "s"}, CmpOp::kGt, FieldRef{"R", "y"})})));
  // Non-conjunctive trees are untouched.
  EXPECT_TRUE(rejected(Predicate::disj(
      {Predicate::time_band({"L", "a"}, {"R", "x"}, 5),
       Predicate::always_true()})));
  // An empty-alias ref both schemas resolve flips sides with the order.
  const Schema both{{{"v", ValueType::kInt}}};
  const std::vector<BindingSpec> ambiguous{{"L", &both, SIZE_MAX},
                                           {"R", &both, SIZE_MAX}};
  const auto p = Predicate::time_band({"", "v"}, {"R", "v"}, 5);
  EXPECT_FALSE(split_band_conjunct(p, ambiguous).band.has_value());
}

TEST(ConstSplit, ExtractsSingleColumnConstantConjuncts) {
  const Schema ls = left_schema();
  const std::vector<BindingSpec> bindings{{"", &ls, SIZE_MAX}};
  const auto p = Predicate::conj(
      {Predicate::cmp(FieldRef{"", "a"}, CmpOp::kEq, Value{3}),
       Predicate::cmp(FieldRef{"", "b"}, CmpOp::kGe, Value{1.5}),
       Predicate::cmp(FieldRef{"", "b"}, CmpOp::kLt, Value{2.5}),
       Predicate::cmp(FieldRef{"", "a"}, CmpOp::kNe, Value{9}),       // kNe
       Predicate::cmp(FieldRef{"", "a"}, CmpOp::kGt, FieldRef{"", "b"})});
  const auto split = split_const_conjuncts(p, bindings);
  EXPECT_TRUE(split.conjunctive);
  EXPECT_TRUE(split.statically_safe);
  ASSERT_EQ(split.conjuncts.size(), 5u);
  ASSERT_EQ(split.indexable.size(), 3u);  // kNe and field-field excluded
  EXPECT_EQ(split.indexable[0].position, 0u);
  EXPECT_EQ(split.indexable[0].slot, (FieldSlot{0, 0}));
  EXPECT_EQ(split.indexable[0].op, CmpOp::kEq);
  EXPECT_EQ(split.indexable[1].position, 1u);
  EXPECT_EQ(split.indexable[1].op, CmpOp::kGe);
  EXPECT_EQ(split.indexable[2].position, 2u);
  EXPECT_EQ(split.indexable[2].op, CmpOp::kLt);
}

TEST(ConstSplit, TimestampPseudoFieldAnchorsOnTsSlot) {
  const Schema ls = left_schema();
  const std::vector<BindingSpec> bindings{{"", &ls, SIZE_MAX}};
  const auto split = split_const_conjuncts(
      Predicate::cmp(FieldRef{"", "timestamp"}, CmpOp::kGe, Value{100}),
      bindings);
  ASSERT_EQ(split.indexable.size(), 1u);
  EXPECT_EQ(split.indexable[0].slot.col, FieldSlot::kTsCol);
}

TEST(ConstSplit, RejectsMismatchedClassesAndNonConjunctions) {
  const Schema ls = left_schema();
  const std::vector<BindingSpec> bindings{{"", &ls, SIZE_MAX}};
  // String column vs numeric constant throws rather than matches: not
  // indexable, and the whole tree is statically unsafe.
  auto split = split_const_conjuncts(
      Predicate::conj(
          {Predicate::cmp(FieldRef{"", "a"}, CmpOp::kEq, Value{1}),
           Predicate::cmp(FieldRef{"", "s"}, CmpOp::kGt, Value{0.5})}),
      bindings);
  EXPECT_TRUE(split.conjunctive);
  EXPECT_FALSE(split.statically_safe);
  EXPECT_EQ(split.indexable.size(), 1u);
  // String-string comparisons are safe and (for ==) indexable.
  split = split_const_conjuncts(
      Predicate::cmp(FieldRef{"", "s"}, CmpOp::kEq, Value{"x"}), bindings);
  EXPECT_TRUE(split.statically_safe);
  ASSERT_EQ(split.indexable.size(), 1u);
  // An unresolvable ref anywhere makes the tree unsafe.
  split = split_const_conjuncts(
      Predicate::conj(
          {Predicate::cmp(FieldRef{"", "a"}, CmpOp::kEq, Value{1}),
           Predicate::cmp(FieldRef{"", "missing"}, CmpOp::kGt, Value{0})}),
      bindings);
  EXPECT_FALSE(split.statically_safe);
  // Top-level OR: non-conjunctive, nothing extractable.
  split = split_const_conjuncts(
      Predicate::disj(
          {Predicate::cmp(FieldRef{"", "a"}, CmpOp::kEq, Value{1}),
           Predicate::cmp(FieldRef{"", "a"}, CmpOp::kEq, Value{2})}),
      bindings);
  EXPECT_FALSE(split.conjunctive);
  EXPECT_TRUE(split.conjuncts.empty());
  EXPECT_TRUE(split.indexable.empty());
}

TEST(ConstSplit, StaticallyWellTypedWalksNestedTrees) {
  const Schema ls = left_schema();
  const std::vector<BindingSpec> bindings{{"", &ls, SIZE_MAX}};
  // A type clash buried under NOT inside an OR is still detected.
  const auto bad = Predicate::conj(
      {Predicate::cmp(FieldRef{"", "a"}, CmpOp::kGt, Value{0}),
       Predicate::disj(
           {Predicate::cmp(FieldRef{"", "b"}, CmpOp::kLt, Value{1.0}),
            Predicate::negate(Predicate::cmp(FieldRef{"", "s"}, CmpOp::kGt,
                                             Value{3}))})});
  EXPECT_FALSE(statically_well_typed(bad, bindings));
  const auto good = Predicate::conj(
      {Predicate::time_band(FieldRef{"", "timestamp"}, FieldRef{"", "a"},
                            500),
       Predicate::cmp(FieldRef{"", "s"}, CmpOp::kEq, FieldRef{"", "s"})});
  EXPECT_TRUE(statically_well_typed(good, bindings));
  // TimeBand over a string operand would throw std::logic_error per row.
  EXPECT_FALSE(statically_well_typed(
      Predicate::time_band(FieldRef{"", "timestamp"}, FieldRef{"", "s"}, 500),
      bindings));
}

TEST(CompiledPredicate, EvalUnresolvedFalseMatchesCatchSemantics) {
  const Schema ls = left_schema();
  const std::vector<BindingSpec> bindings{{"S1", &ls, SIZE_MAX}};
  const auto p = Predicate::conj(
      {Predicate::cmp(FieldRef{"S1", "a"}, CmpOp::kGt, Value{0}),
       Predicate::cmp(FieldRef{"S1", "missing"}, CmpOp::kGt, Value{0})});
  const auto compiled = CompiledPredicate::compile_lenient(p, bindings);
  const Tuple fails_first{0, {Value{-1}, Value{0.0}, Value{"z"}}};
  const Tuple reaches_throw{0, {Value{1}, Value{0.0}, Value{"z"}}};
  const CompiledPredicate::Row r0{fails_first.ts, fails_first.values.data(),
                                  3};
  const CompiledPredicate::Row r1{reaches_throw.ts,
                                  reaches_throw.values.data(), 3};
  EXPECT_FALSE(compiled.eval_unresolved_false(&r0));
  EXPECT_FALSE(compiled.eval_unresolved_false(&r1));  // no throw
  // Type errors still propagate exactly like eval().
  const auto typed = CompiledPredicate::compile_lenient(
      Predicate::cmp(FieldRef{"S1", "s"}, CmpOp::kGt, Value{1}), bindings);
  const CompiledPredicate::Row rs{0, reaches_throw.values.data(), 3};
  EXPECT_THROW((void)typed.eval_unresolved_false(&rs), std::logic_error);
  // Batch form agrees with the scalar form row for row.
  runtime::TupleBatch batch{"S"};
  batch.push_back(fails_first);
  batch.push_back(reaches_throw);
  std::vector<std::uint32_t> out;
  compiled.filter_batch_unresolved_false(batch, nullptr, out);
  EXPECT_TRUE(out.empty());
  const auto resolvable = CompiledPredicate::compile_lenient(
      Predicate::cmp(FieldRef{"S1", "a"}, CmpOp::kGt, Value{0}), bindings);
  resolvable.filter_batch_unresolved_false(batch, nullptr, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
}

}  // namespace
}  // namespace cosmos::stream
