// Differential coverage of WindowJoinOp's band range probe: over seeded
// traces, the range probe (time-band conjunct binary-searched in the other
// side's buffer) must emit exactly what the scanning probe emits
// (Options{false}, the oracle), in the same order, on the scalar and batch
// paths alike — for bands on the timestamp pseudo-field and on physical
// int columns, either side incoming as the newer operand, band 0, band plus
// equi key (hash path unchanged), band columns that regress, state moved
// through export/import mid-trace, and keys at the int64 extremes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/tuple_batch.h"
#include "stream/operators.h"

namespace cosmos::stream {
namespace {

std::string fmt(const Tuple& t) {
  std::string out = std::to_string(t.ts);
  for (const auto& v : t.values) out += "|" + v.to_string();
  return out;
}

struct Arrival {
  bool left;
  Tuple t;
};

/// Both sides: a double payload `h`, an int band column `t`, an int
/// equi column `k`. Windows are ts-based; the band reads `t` or the row
/// timestamp depending on the predicate.
struct JoinSetup {
  Schema left{{{"h", ValueType::kDouble},
               {"t", ValueType::kInt},
               {"k", ValueType::kInt}}};
  Schema right{{{"h", ValueType::kDouble},
                {"t", ValueType::kInt},
                {"k", ValueType::kInt}}};
  WindowSpec lw = WindowSpec::range_millis(400);
  WindowSpec rw = WindowSpec::range_millis(250);
  PredicatePtr pred;

  [[nodiscard]] WindowJoinOp make(bool use_index, Sink sink) const {
    return WindowJoinOp{{"L", &left, lw},
                        {"R", &right, rw},
                        pred,
                        std::move(sink),
                        WindowJoinOp::Options{use_index}};
  }
};

PredicatePtr theta() {
  return Predicate::cmp(FieldRef{"L", "h"}, CmpOp::kGt, FieldRef{"R", "h"});
}

/// Band-column value of a reading: `ts + base` by default.
using KeyFn = std::function<std::int64_t(Timestamp ts, bool left, Rng& rng)>;

/// Globally ts-ordered interleaving of left/right arrivals.
std::vector<Arrival> make_trace(std::uint64_t seed, int n, const KeyFn& key) {
  Rng rng{seed};
  std::vector<Arrival> out;
  Timestamp ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += static_cast<Timestamp>(rng.next_below(12));
    const bool left = rng.next_bool(0.5);
    const double h = rng.next_double(0.0, 10.0);
    const std::int64_t t = key(ts, left, rng);
    const std::int64_t k = rng.next_range(0, 3);
    out.push_back({left, Tuple{ts, {Value{h}, Value{t}, Value{k}}}});
  }
  return out;
}

KeyFn ts_plus(std::int64_t base) {
  return [base](Timestamp ts, bool, Rng&) { return base + ts; };
}

struct Result {
  std::vector<std::string> out;
  std::size_t candidates = 0;
};

Result run_scalar(const JoinSetup& s, const std::vector<Arrival>& trace,
                  bool use_index) {
  Result r;
  WindowJoinOp j = s.make(use_index, [&r](const Tuple& t) {
    r.out.push_back(fmt(t));
  });
  for (const auto& a : trace) {
    if (a.left) {
      j.push_left(a.t);
    } else {
      j.push_right(a.t);
    }
  }
  EXPECT_EQ(j.emitted(), r.out.size());
  r.candidates = j.candidates();
  return r;
}

/// Replays the trace as maximal same-side batches (the driver's shape).
Result run_batch(const JoinSetup& s, const std::vector<Arrival>& trace,
                 bool use_index) {
  Result r;
  WindowJoinOp j = s.make(use_index, [](const Tuple&) {});
  runtime::TupleBatch run{"run"};
  bool run_left = trace.front().left;
  const auto flush = [&] {
    if (run.empty()) return;
    runtime::TupleBatch out{"out"};
    if (run_left) {
      j.push_batch_left(run, nullptr, /*lift_append_ts=*/false, out);
    } else {
      j.push_batch_right(run, nullptr, /*lift_append_ts=*/false, out);
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      r.out.push_back(fmt(out.row(i)));
    }
    run.clear();
  };
  for (const auto& a : trace) {
    if (a.left != run_left) {
      flush();
      run_left = a.left;
    }
    run.push_back(a.t);
  }
  flush();
  r.candidates = j.candidates();
  return r;
}

/// Asserts the four shapes {scalar, batch} x {index, scan} agree with the
/// scalar scan; returns {index, scan} candidate counts.
std::pair<std::size_t, std::size_t> expect_agree(
    const JoinSetup& s, const std::vector<Arrival>& trace,
    const std::string& what) {
  const Result scan = run_scalar(s, trace, /*use_index=*/false);
  const Result index = run_scalar(s, trace, /*use_index=*/true);
  EXPECT_FALSE(scan.out.empty()) << what;
  EXPECT_EQ(index.out, scan.out) << what;
  EXPECT_EQ(run_batch(s, trace, true).out, scan.out) << what;
  EXPECT_EQ(run_batch(s, trace, false).out, scan.out) << what;
  EXPECT_EQ(run_batch(s, trace, true).candidates, index.candidates) << what;
  return {index.candidates, scan.candidates};
}

TEST(WindowJoinOpBand, TimestampPseudoFieldBandMatchesScan) {
  // R is the newer operand: right arrivals search [k - band, k], left
  // arrivals [k, k + band]. "timestamp" is not a schema column, so the band
  // reads the row timestamp.
  for (const bool right_newer : {true, false}) {
    JoinSetup s;
    const FieldRef r_ts{"R", "timestamp"};
    const FieldRef l_ts{"L", "timestamp"};
    s.pred = Predicate::conj(
        {right_newer ? Predicate::time_band(r_ts, l_ts, 40)
                     : Predicate::time_band(l_ts, r_ts, 40),
         theta()});
    for (const std::uint64_t seed : {1ull, 7ull, 99ull}) {
      const auto trace = make_trace(seed, 400, ts_plus(0));
      const auto [index, scan] = expect_agree(
          s, trace, "seed " + std::to_string(seed));
      EXPECT_LT(index * 4, scan) << "range probe not taken, seed " << seed;
    }
  }
}

TEST(WindowJoinOpBand, PhysicalColumnBandMatchesScan) {
  // The band column is a value, offset from the row timestamp: the range
  // must be computed on the column, not on ts.
  for (const bool left_newer : {true, false}) {
    JoinSetup s;
    const FieldRef lt{"L", "t"};
    const FieldRef rt{"R", "t"};
    s.pred = Predicate::conj({theta(), left_newer
                                           ? Predicate::time_band(lt, rt, 60)
                                           : Predicate::time_band(rt, lt, 60)});
    for (const std::uint64_t seed : {3ull, 11ull}) {
      const auto trace = make_trace(seed, 400, [](Timestamp ts, bool left,
                                                  Rng&) {
        return ts * 3 + (left ? 50 : 0);
      });
      const auto [index, scan] = expect_agree(
          s, trace, "seed " + std::to_string(seed));
      EXPECT_LT(index * 4, scan) << "range probe not taken, seed " << seed;
    }
  }
}

TEST(WindowJoinOpBand, ZeroBandMatchesScan) {
  JoinSetup s;
  s.pred = Predicate::time_band({"L", "t"}, {"R", "t"}, 0);
  const auto trace = make_trace(5, 400, [](Timestamp ts, bool, Rng&) {
    return ts / 4;  // many equal keys on both sides
  });
  const auto [index, scan] = expect_agree(s, trace, "band 0");
  EXPECT_LT(index * 4, scan);
  EXPECT_FALSE(run_scalar(s, trace, true).out.empty());
}

TEST(WindowJoinOpBand, EquiKeyKeepsHashPath) {
  // An equality conjunct wins: the hash path runs, the band stays in its
  // residual, and output still equals the scan.
  JoinSetup s;
  s.pred = Predicate::conj(
      {Predicate::time_band({"R", "t"}, {"L", "t"}, 30),
       Predicate::cmp(FieldRef{"L", "k"}, CmpOp::kEq, FieldRef{"R", "k"}),
       theta()});
  const auto join = s.make(true, [](const Tuple&) {});
  EXPECT_EQ(join.equi_key_count(), 1u);
  for (const std::uint64_t seed : {2ull, 8ull}) {
    const auto trace = make_trace(seed, 400, ts_plus(0));
    const auto [index, scan] =
        expect_agree(s, trace, "seed " + std::to_string(seed));
    EXPECT_LT(index, scan);
  }
}

TEST(WindowJoinOpBand, RegressingBandColumnMatchesScan) {
  // Occasional regressions of the band column break key order; probes
  // against a side buffering a break must scan, and still agree.
  JoinSetup s;
  s.pred = Predicate::conj(
      {Predicate::time_band({"R", "t"}, {"L", "t"}, 50), theta()});
  for (const std::uint64_t seed : {4ull, 21ull, 77ull}) {
    const auto trace = make_trace(seed, 600, [](Timestamp ts, bool,
                                                Rng& rng) {
      return rng.next_bool(0.02) ? ts - 300 : ts;
    });
    expect_agree(s, trace, "seed " + std::to_string(seed));
  }
}

TEST(WindowJoinOpBand, OrderBreakScansUntilPrunedThenRanges) {
  const Schema ls{{{"t", ValueType::kInt}}};
  const Schema rs{{{"t", ValueType::kInt}}};
  std::size_t emitted = 0;
  WindowJoinOp j{{"L", &ls, WindowSpec::range_millis(100)},
                 {"R", &rs, WindowSpec::range_millis(100)},
                 Predicate::time_band({"R", "t"}, {"L", "t"}, 5),
                 [&emitted](const Tuple&) { ++emitted; }};
  for (Timestamp ts = 0; ts < 50; ++ts) j.push_left(Tuple{ts, {Value{ts}}});
  j.push_right(Tuple{50, {Value{std::int64_t{50}}}});
  EXPECT_EQ(j.candidates(), 5u);  // keys 45..49 only
  EXPECT_EQ(emitted, 5u);

  // A left key below its predecessor: the next probe scans the buffer.
  j.push_left(Tuple{51, {Value{std::int64_t{0}}}});
  std::size_t before = j.candidates();
  j.push_right(Tuple{52, {Value{std::int64_t{52}}}});
  EXPECT_EQ(j.candidates() - before, j.left_state_size());
  EXPECT_EQ(emitted, 8u);  // keys 47..49 join; the regressed key 0 does not

  // Ordered arrivals past the window prune the break; probes range again.
  for (Timestamp ts = 60; ts < 160; ++ts) j.push_left(Tuple{ts, {Value{ts}}});
  ASSERT_EQ(j.left_state_size(), 100u);
  before = j.candidates();
  j.push_right(Tuple{160, {Value{std::int64_t{160}}}});
  EXPECT_EQ(j.candidates() - before, 5u);  // keys 155..159
}

TEST(WindowJoinOpBand, ExportImportMidTraceContinuesIdentically) {
  JoinSetup s;
  s.pred = Predicate::conj(
      {Predicate::time_band({"R", "t"}, {"L", "t"}, 50), theta()});
  auto trace = make_trace(13, 600, [](Timestamp ts, bool, Rng& rng) {
    return rng.next_bool(0.01) ? ts - 200 : ts;
  });
  const std::size_t cut = trace.size() / 2;
  // The moved state holds an order break: the imported operator must scan
  // exactly where the original does.
  std::size_t last_left = cut - 1;
  while (!trace[last_left].left) --last_left;
  trace[last_left].t.values[1] = Value{trace[last_left].t.ts - 200};
  for (const bool use_index : {true, false}) {
    std::vector<std::string> whole;
    auto a = s.make(use_index, [&](const Tuple& t) { whole.push_back(fmt(t)); });
    std::vector<std::string> split;
    auto b = s.make(use_index, [&](const Tuple& t) { split.push_back(fmt(t)); });
    auto c = s.make(use_index, [&](const Tuple& t) { split.push_back(fmt(t)); });
    std::size_t a_at_cut = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (i == cut) {
        c.import_state(b.export_state());
        a_at_cut = a.candidates();
      }
      WindowJoinOp& other = i < cut ? b : c;
      if (trace[i].left) {
        a.push_left(trace[i].t);
        other.push_left(trace[i].t);
      } else {
        a.push_right(trace[i].t);
        other.push_right(trace[i].t);
      }
    }
    EXPECT_EQ(split, whole) << "use_index " << use_index;
    // Same probe work after the move: the imported order state is exact.
    EXPECT_EQ(c.candidates(), a.candidates() - a_at_cut)
        << "use_index " << use_index;
  }
}

TEST(WindowJoinOpBand, Int64ExtremeKeysDoNotOverflow) {
  // Keys within a band of INT64_MAX (older arrivals compute k + band) and
  // of INT64_MIN (newer arrivals compute k - band): the range bounds must
  // saturate instead of wrapping, for a small band and for INT64_MAX.
  const auto base = make_trace(17, 400, ts_plus(0));
  std::int64_t max_t = 0;
  for (const auto& a : base) max_t = std::max(max_t, a.t.at(1).as_int());
  for (const std::int64_t band : {std::int64_t{50}, INT64_MAX}) {
    for (const bool high : {true, false}) {
      JoinSetup s;
      s.pred = Predicate::conj(
          {Predicate::time_band({"R", "t"}, {"L", "t"}, band), theta()});
      auto trace = base;
      for (auto& a : trace) {
        const std::int64_t t = a.t.at(1).as_int();
        a.t.values[1] = high ? INT64_MAX - (max_t - t) : INT64_MIN + t;
      }
      expect_agree(s, trace,
                   "band " + std::to_string(band) + " high " +
                       std::to_string(high));
    }
  }
}

TEST(WindowJoinOpBand, OppositeExtremeKeysMatchNothing) {
  // Every newer - older here overflows int64: nothing is within the band,
  // on the range path and in the scan's own predicate alike.
  JoinSetup s;
  s.pred = Predicate::time_band({"L", "t"}, {"R", "t"}, INT64_MAX);
  const auto trace = make_trace(19, 200, [](Timestamp ts, bool left, Rng&) {
    return left ? INT64_MIN + ts : INT64_MAX - 5'000 + ts;
  });
  EXPECT_TRUE(run_scalar(s, trace, false).out.empty());
  EXPECT_TRUE(run_scalar(s, trace, true).out.empty());
}

}  // namespace
}  // namespace cosmos::stream
