// Operator hot-path micro-bench: the per-tuple work PRs 1-3 left on the
// critical path, before and after compilation/batching.
//
// Four configurations:
//   filter-only — interpreted Predicate::eval (per-row Binding env +
//                 virtual dispatch + string field lookups, the pre-PR-4
//                 hot path) vs the compiled program, scalar and
//                 batch-at-a-time;
//   join-heavy  — WindowJoinOp hash-index probe vs the O(window) scanning
//                 probe at growing window sizes: the hash probe must win
//                 superlinearly as the window grows (its cost tracks
//                 matches, the scan's tracks window occupancy);
//   band-join   — the sensor time-band join (no equality key): band range
//                 probe vs the scan at the same window sizes, plus the
//                 range probe's candidates examined per emitted pair;
//   match-heavy — subscription matching: interpreted Subscription::matches
//                 vs compiled filters evaluated batch-at-a-time.
//
// Windows and row counts are fixed (not COSMOS_BENCH_SCALE-scaled): the
// gated metrics are same-machine time ratios, which only stay comparable
// against the committed baseline if every run shapes the work identically.
// Writes BENCH_operator_hotpath.json; scripts/check_bench.py gates the
// ratios against bench/baselines/.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "pubsub/subscription.h"
#include "runtime/tuple_batch.h"
#include "stream/compiled_predicate.h"
#include "stream/operators.h"

using namespace cosmos;
using namespace cosmos::bench;
using namespace cosmos::stream;

namespace {

Schema sensor_like() {
  return Schema{{{"snowHeight", ValueType::kDouble},
                 {"temperature", ValueType::kDouble},
                 {"stationId", ValueType::kInt},
                 {"timestamp", ValueType::kInt}}};
}

Tuple sensor_tuple(Rng& rng, Timestamp ts) {
  return Tuple{ts,
               {Value{rng.next_double(0.0, 40.0)},
                Value{rng.next_double(-15.0, 15.0)},
                Value{rng.next_range(0, 19)}, Value{ts}}};
}

template <typename Fn>
double cpu_time(Fn&& fn) {
  const double t0 = thread_cpu_seconds();
  fn();
  return thread_cpu_seconds() - t0;
}

// ---------------------------------------------------------------- filter --

struct FilterResult {
  double interp_s = 0.0;
  double compiled_scalar_s = 0.0;
  double compiled_batch_s = 0.0;
  std::size_t passed = 0;
};

FilterResult bench_filter(std::size_t rows) {
  const Schema schema = sensor_like();
  const auto pred = Predicate::conj(
      {Predicate::cmp(FieldRef{"S", "snowHeight"}, CmpOp::kGt, Value{20.0}),
       Predicate::cmp(FieldRef{"S", "temperature"}, CmpOp::kLe, Value{5.0}),
       Predicate::cmp(FieldRef{"S", "stationId"}, CmpOp::kNe, Value{3})});

  Rng rng{7};
  std::vector<Tuple> tuples;
  runtime::TupleBatch batch{"S"};
  tuples.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    tuples.push_back(sensor_tuple(rng, static_cast<Timestamp>(i)));
    batch.push_back(tuples.back());
  }

  FilterResult out;
  // The pre-compilation hot path: per-row env + interpreted tree walk.
  std::size_t interp_passed = 0;
  out.interp_s = cpu_time([&] {
    for (const Tuple& t : tuples) {
      const std::vector<Binding> env{{"S", &schema, &t}};
      if (pred->eval(env)) ++interp_passed;
    }
  });

  const auto compiled =
      CompiledPredicate::compile(pred, {{"S", &schema, SIZE_MAX}});
  std::size_t scalar_passed = 0;
  out.compiled_scalar_s = cpu_time([&] {
    for (const Tuple& t : tuples) {
      if (compiled.eval(t)) ++scalar_passed;
    }
  });

  std::vector<std::uint32_t> sel;
  sel.reserve(rows);
  out.compiled_batch_s = cpu_time([&] {
    sel.clear();
    compiled.filter_batch(batch, nullptr, sel);
  });

  if (interp_passed != scalar_passed || interp_passed != sel.size()) {
    std::fprintf(stderr, "!! filter paths disagree: %zu/%zu/%zu\n",
                 interp_passed, scalar_passed, sel.size());
    std::exit(1);
  }
  out.passed = interp_passed;
  return out;
}

// ------------------------------------------------------------------ join --

struct Arrival {
  bool left;
  Tuple t;
};

struct JoinResult {
  double scan_s = 0.0;
  double index_s = 0.0;  ///< the hash or band-range probe
  std::size_t emitted = 0;
  std::size_t index_candidates = 0;
};

/// Replays `trace` through a scanning join and an indexed one (the same
/// operator with Options::use_hash_index on); exits on any emitted-count
/// mismatch.
JoinResult time_join(const Schema& ls, const Schema& rs,
                     std::int64_t window_ms, const PredicatePtr& pred,
                     const std::vector<Arrival>& trace, const char* what) {
  JoinResult out;
  for (const bool use_index : {false, true}) {
    std::size_t emitted = 0;
    WindowJoinOp join{{"L", &ls, WindowSpec::range_millis(window_ms)},
                      {"R", &rs, WindowSpec::range_millis(window_ms)},
                      pred,
                      [&emitted](const Tuple&) { ++emitted; },
                      WindowJoinOp::Options{use_index}};
    const double s = cpu_time([&] {
      for (const Arrival& a : trace) {
        if (a.left) {
          join.push_left(a.t);
        } else {
          join.push_right(a.t);
        }
      }
    });
    if (use_index) {
      out.index_s = s;
      out.index_candidates = join.candidates();
      if (emitted != out.emitted) {
        std::fprintf(stderr, "!! %s paths disagree: %zu vs %zu\n", what,
                     emitted, out.emitted);
        std::exit(1);
      }
    } else {
      out.scan_s = s;
      out.emitted = emitted;
    }
  }
  return out;
}

/// Alternating left/right arrivals, 1 tuple per ms per side, equi key over
/// `keys` distinct values plus a numeric residual; window spans window_ms
/// of stream time (≈ window_ms/2 tuples per side buffered).
JoinResult bench_join(std::int64_t window_ms, std::size_t arrivals,
                      std::uint64_t keys) {
  const Schema ls{{{"k", ValueType::kInt}, {"v", ValueType::kDouble}}};
  const Schema rs{{{"j", ValueType::kInt}, {"u", ValueType::kDouble}}};
  const auto pred = Predicate::conj(
      {Predicate::cmp(FieldRef{"L", "k"}, CmpOp::kEq, FieldRef{"R", "j"}),
       Predicate::cmp(FieldRef{"L", "v"}, CmpOp::kGt, FieldRef{"R", "u"})});
  Rng rng{11};
  std::vector<Arrival> trace;
  trace.reserve(arrivals);
  for (std::size_t i = 0; i < arrivals; ++i) {
    trace.push_back({i % 2 == 0,
                     Tuple{static_cast<Timestamp>(i),
                           {Value{static_cast<std::int64_t>(
                                rng.next_below(keys))},
                            Value{rng.next_double(-1.0, 1.0)}}}});
  }
  return time_join(ls, rs, window_ms, pred, trace, "join");
}

/// The sensor band join: two sensor-like streams alternating at 1 tuple
/// per ms, joined on a 16 ms band over the physical `timestamp` columns
/// plus a theta comparison, no equality key — the scan examines the whole
/// window per probe, the range probe only the band.
JoinResult bench_band_join(std::int64_t window_ms, std::size_t arrivals) {
  const Schema schema = sensor_like();
  const auto pred = Predicate::conj(
      {Predicate::time_band({"R", "timestamp"}, {"L", "timestamp"}, 16),
       Predicate::cmp(FieldRef{"L", "snowHeight"}, CmpOp::kGt,
                      FieldRef{"R", "snowHeight"})});
  Rng rng{17};
  std::vector<Arrival> trace;
  trace.reserve(arrivals);
  for (std::size_t i = 0; i < arrivals; ++i) {
    trace.push_back({i % 2 == 0,
                     sensor_tuple(rng, static_cast<Timestamp>(i))});
  }
  return time_join(schema, schema, window_ms, pred, trace, "band join");
}

// ----------------------------------------------------------------- match --

struct MatchResult {
  double interp_s = 0.0;
  double compiled_s = 0.0;
  std::size_t matches = 0;
};

MatchResult bench_match(std::size_t rows, std::size_t sub_count) {
  const Schema schema = sensor_like();
  Rng rng{13};
  std::vector<pubsub::Subscription> subs(sub_count);
  for (std::size_t s = 0; s < sub_count; ++s) {
    auto& sub = subs[s];
    sub.id = SubscriptionId{static_cast<SubscriptionId::value_type>(s)};
    sub.subscriber = NodeId{0};
    sub.streams = {"S"};
    switch (rng.next_below(4)) {
      case 0:
        sub.filter = Predicate::always_true();
        break;
      case 1:
        sub.filter = Predicate::cmp(FieldRef{"", "snowHeight"}, CmpOp::kGt,
                                    Value{rng.next_double(5.0, 35.0)});
        break;
      case 2:
        sub.filter = Predicate::conj(
            {Predicate::cmp(FieldRef{"", "snowHeight"}, CmpOp::kGt,
                            Value{rng.next_double(5.0, 35.0)}),
             Predicate::cmp(FieldRef{"", "stationId"}, CmpOp::kNe,
                            Value{static_cast<std::int64_t>(
                                rng.next_below(20))})});
        break;
      default:
        sub.filter = Predicate::cmp(FieldRef{"", "temperature"}, CmpOp::kLe,
                                    Value{rng.next_double(-5.0, 10.0)});
        break;
    }
  }

  runtime::TupleBatch batch{"S"};
  std::vector<Tuple> tuples;
  tuples.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    tuples.push_back(sensor_tuple(rng, static_cast<Timestamp>(i)));
    batch.push_back(tuples.back());
  }

  MatchResult out;
  std::size_t interp_matches = 0;
  out.interp_s = cpu_time([&] {
    for (const Tuple& t : tuples) {
      for (const auto& sub : subs) {
        if (sub.matches(schema, t)) ++interp_matches;
      }
    }
  });

  std::vector<CompiledPredicate> compiled;
  compiled.reserve(sub_count);
  for (const auto& sub : subs) {
    compiled.push_back(CompiledPredicate::compile_lenient(
        sub.filter, {{"", &schema, SIZE_MAX}}));
  }
  std::size_t compiled_matches = 0;
  std::vector<std::uint32_t> sel;
  out.compiled_s = cpu_time([&] {
    for (const auto& c : compiled) {
      sel.clear();
      c.filter_batch(batch, nullptr, sel);
      compiled_matches += sel.size();
    }
  });

  if (interp_matches != compiled_matches) {
    std::fprintf(stderr, "!! match paths disagree: %zu vs %zu\n",
                 interp_matches, compiled_matches);
    std::exit(1);
  }
  out.matches = interp_matches;
  return out;
}

}  // namespace

int main() {
  std::printf("# operator hotpath micro-bench (fixed size; gated metrics "
              "are same-run time ratios)\n");

  const FilterResult filter = bench_filter(200'000);
  const double filter_scalar_speedup = filter.interp_s / filter.compiled_scalar_s;
  const double filter_batch_speedup = filter.interp_s / filter.compiled_batch_s;
  std::printf("filter-only: rows=200000 passed=%zu interp=%.4fs "
              "compiled-scalar=%.4fs (%.1fx) compiled-batch=%.4fs (%.1fx)\n",
              filter.passed, filter.interp_s, filter.compiled_scalar_s,
              filter_scalar_speedup, filter.compiled_batch_s,
              filter_batch_speedup);

  const std::int64_t windows[] = {512, 2048, 8192};
  double speedups[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    const std::int64_t w = windows[i];
    const JoinResult j =
        bench_join(w, static_cast<std::size_t>(4 * w), /*keys=*/64);
    speedups[i] = j.scan_s / j.index_s;
    std::printf("join-heavy: window=%lldms arrivals=%lld emitted=%zu "
                "scan=%.4fs hash=%.4fs (%.1fx)\n",
                static_cast<long long>(w), static_cast<long long>(4 * w),
                j.emitted, j.scan_s, j.index_s, speedups[i]);
  }
  const double superlinearity = speedups[2] / speedups[0];
  std::printf("join-heavy: hash-vs-scan superlinearity (w=8192 over "
              "w=512): %.2fx\n",
              superlinearity);

  double band_speedups[3] = {0, 0, 0};
  double band_candidates_per_emit = 0.0;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t w = windows[i];
    const JoinResult j =
        bench_band_join(w, static_cast<std::size_t>(4 * w));
    band_speedups[i] = j.scan_s / j.index_s;
    band_candidates_per_emit = static_cast<double>(j.index_candidates) /
                               static_cast<double>(j.emitted);
    std::printf("band-join: window=%lldms arrivals=%lld emitted=%zu "
                "scan=%.4fs range=%.4fs (%.1fx) range candidates/emit=%.2f\n",
                static_cast<long long>(w), static_cast<long long>(4 * w),
                j.emitted, j.scan_s, j.index_s, band_speedups[i],
                band_candidates_per_emit);
  }

  const MatchResult match = bench_match(20'000, 200);
  const double match_speedup = match.interp_s / match.compiled_s;
  std::printf("match-heavy: rows=20000 subs=200 matches=%zu interp=%.4fs "
              "compiled=%.4fs (%.1fx)\n",
              match.matches, match.interp_s, match.compiled_s, match_speedup);

  write_bench_json(
      "operator_hotpath",
      {{"filter_compiled_scalar_speedup", filter_scalar_speedup},
       {"filter_compiled_batch_speedup", filter_batch_speedup},
       {"join_hash_vs_scan_speedup_w512", speedups[0]},
       {"join_hash_vs_scan_speedup_w2048", speedups[1]},
       {"join_hash_vs_scan_speedup_w8192", speedups[2]},
       {"join_hash_superlinearity", superlinearity},
       {"join_band_vs_scan_speedup_w512", band_speedups[0]},
       {"join_band_vs_scan_speedup_w2048", band_speedups[1]},
       {"join_band_vs_scan_speedup_w8192", band_speedups[2]},
       {"join_band_candidates_per_emit", band_candidates_per_emit},
       {"match_compiled_speedup", match_speedup},
       {"paths_agree", 1.0}});
  return 0;
}
