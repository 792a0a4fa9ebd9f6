// Push-based streaming operators: filter, project, sliding-window join.
//
// Operators form a tree; each operator pushes produced tuples into its
// downstream consumer. Tuples are timestamp-ordered per input stream
// (enforced by the engine).
//
// Every operator has two entry shapes sharing one state:
//  - the scalar path (push/push_left/push_right) — one tuple in, sink
//    callbacks out; what push() mode and the unit tests drive;
//  - the batch path (push_batch*) — a whole runtime::TupleBatch plus a
//    selection vector (ascending row ids; nullptr = all rows) in, refined
//    selections or output batches out, with no per-row std::function hops.
// Predicates are compiled once at construction (stream/compiled_predicate.h):
// field references resolve to column slots at build time, so construction
// throws std::invalid_argument on fields the bound schemas cannot resolve.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/compiled_predicate.h"
#include "stream/predicate.h"
#include "stream/schema.h"
#include "stream/window.h"

namespace cosmos::runtime {
class TupleBatch;
}

namespace cosmos::stream {

/// Downstream consumer of produced tuples (scalar path).
using Sink = std::function<void(const Tuple&)>;

/// Single-input filter: forwards tuples satisfying the predicate.
class FilterOp {
 public:
  /// `alias` is the name the predicate uses to reference this input.
  /// `virtual_ts_col` (when not SIZE_MAX) names the schema column that is
  /// absent from batch rows and evaluates to the row timestamp instead —
  /// the plan's appended "<alias>.timestamp" column, letting the batch
  /// path run directly over raw source batches without lifting them.
  /// Compiles the predicate at construction; throws std::invalid_argument
  /// on null arguments or unresolvable fields.
  FilterOp(std::string alias, const Schema* schema, PredicatePtr predicate,
           Sink sink, std::size_t virtual_ts_col = SIZE_MAX);

  void push(const Tuple& t);

  /// Batch path: evaluates the rows listed in `sel` (all rows when
  /// nullptr) and appends passing row ids to `out` in ascending order.
  /// The sink is not invoked — batch chaining is wired by the caller.
  void push_batch(const runtime::TupleBatch& batch,
                  const std::vector<std::uint32_t>* sel,
                  std::vector<std::uint32_t>& out);

  [[nodiscard]] std::size_t seen() const noexcept { return seen_; }
  [[nodiscard]] std::size_t passed() const noexcept { return passed_; }

 private:
  std::string alias_;
  const Schema* schema_;
  PredicatePtr predicate_;
  CompiledPredicate compiled_;
  Sink sink_;
  std::size_t seen_ = 0;
  std::size_t passed_ = 0;
};

/// Single-input projection onto a subset of fields (by input index).
class ProjectOp {
 public:
  /// `virtual_ts_col`: as for FilterOp — a keep index equal to it reads
  /// the row timestamp on the batch path (scalar tuples carry the column
  /// physically).
  ProjectOp(std::vector<std::size_t> keep_indices, Sink sink,
            std::size_t virtual_ts_col = SIZE_MAX);

  void push(const Tuple& t);

  /// Batch path: appends the projection of the selected rows to `out`
  /// (the sink is not invoked).
  void push_batch(const runtime::TupleBatch& batch,
                  const std::vector<std::uint32_t>* sel,
                  runtime::TupleBatch& out);

 private:
  std::vector<std::size_t> keep_;
  Sink sink_;
  std::size_t virtual_ts_col_;
  std::vector<Value> row_scratch_;  ///< reused per batch row (no per-row alloc)
};

/// Two-input sliding-window join. On arrival of a tuple from one side it is
/// matched against the other side's window contents under the join
/// predicate; output tuples concatenate left then right values and carry the
/// newer timestamp.
///
/// Input contract: each side's tuples arrive in non-decreasing timestamp
/// order (the engine's per-stream rule), and no tuple is older than the
/// max timestamp already seen across *both* sides — the watermark. This is
/// exactly what the middleware guarantees (Cosmos::push documents global
/// order; runtime::Driver throws on violations). A standalone caller that
/// regresses one side's event time behind the other side's may find
/// watermark-pruned state no longer matching, where the old arrival-driven
/// prune would have (under-pruned) state still joining.
///
/// The access path is chosen once, at construction, from the predicate:
///  - hash: equality conjuncts over opposite sides (split_equi_conjuncts)
///    give each side a hash index on its key columns; a probe touches only
///    its bucket and re-checks the window, the keys and the compiled
///    residual;
///  - band range: otherwise, a time-band conjunct over int operands of
///    opposite sides (split_band_conjunct) bounds the other side's key to
///    [k - band, k] when the incoming side is the band's newer operand and
///    to [k, k + band] when it is the older; a probe binary-searches the
///    buffer for that range and re-checks the window and the residual
///    inside it only;
///  - scan: otherwise, or with Options::use_hash_index off, every buffered
///    tuple of the other side is checked against the window and the full
///    compiled predicate.
/// Every path visits candidates in buffer order, so all three emit the same
/// sequence. The band key is a column value, not the row timestamp, so its
/// order is not given: each side records, per insert, the oldest seq from
/// which its keys are non-decreasing, and a probe whose other side still
/// buffers an order break (or whose own key is not an int) scans instead.
/// Both buffers are pruned eagerly whenever the watermark — the max
/// timestamp seen on either input — advances, so an idle opposite side no
/// longer pins stale state (state_size feeds the migration planner's cost
/// model).
class WindowJoinOp {
 public:
  struct Side {
    std::string alias;
    const Schema* schema = nullptr;
    WindowSpec window;
  };
  struct Options {
    /// Off forces the scanning probe everywhere, for equi and band
    /// predicates alike — the semantic oracle both index paths are
    /// differentially tested (and benched) against.
    bool use_hash_index = true;
  };

  WindowJoinOp(Side left, Side right, PredicatePtr predicate, Sink sink);
  WindowJoinOp(Side left, Side right, PredicatePtr predicate, Sink sink,
               Options options);

  void push_left(const Tuple& t);
  void push_right(const Tuple& t);

  /// Batch path: pushes every selected row of `batch` (in order) through
  /// the same probe-then-insert machinery, appending join outputs to `out`
  /// instead of invoking the sink. When `lift_append_ts` is set the rows
  /// are raw source rows one column narrower than the side schema, whose
  /// lifted form appends the row timestamp — the plan's lift, fused into
  /// the join's own materialization.
  void push_batch_left(const runtime::TupleBatch& batch,
                       const std::vector<std::uint32_t>* sel,
                       bool lift_append_ts, runtime::TupleBatch& out);
  void push_batch_right(const runtime::TupleBatch& batch,
                        const std::vector<std::uint32_t>* sel,
                        bool lift_append_ts, runtime::TupleBatch& out);

  /// Advances the watermark (max input timestamp seen so far) and prunes
  /// both windows against it. Called implicitly by every push; exposed so
  /// an external clock can expire state on idle inputs too.
  void advance_watermark(Timestamp watermark);

  /// Serializable snapshot of the operator's live state: the watermark and
  /// both window buffers in arrival (== timestamp) order. This is the
  /// payload a migration ships; the hash index, band-key order and sequence
  /// counters are derived state that import_state rebuilds by replaying the
  /// insert path, so export → import on an identically-constructed operator
  /// reproduces bit-identical future behavior.
  struct State {
    Timestamp watermark = INT64_MIN;
    std::vector<Tuple> left;
    std::vector<Tuple> right;
  };
  [[nodiscard]] State export_state() const;
  /// Replaces all live state with `state`. Tuples must be in the order
  /// export_state produced (arrival order); nothing is re-pruned here.
  void import_state(State state);

  [[nodiscard]] std::size_t left_state_size() const noexcept {
    return left_rt_.buf.size();
  }
  [[nodiscard]] std::size_t right_state_size() const noexcept {
    return right_rt_.buf.size();
  }
  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }
  /// Buffered tuples the probes examined (window check and predicate),
  /// summed over all probes: emitted() over this is the probe hit rate.
  [[nodiscard]] std::size_t candidates() const noexcept { return candidates_; }
  /// Number of extracted equality conjuncts (0 = no hash path).
  [[nodiscard]] std::size_t equi_key_count() const noexcept {
    return keys_.size();
  }

 private:
  struct SideRuntime {
    std::deque<Tuple> buf;        ///< arrival order == timestamp order
    std::uint64_t first_seq = 0;  ///< seq of buf.front()
    std::uint64_t next_seq = 0;   ///< seq the next insert receives
    /// Equi-key hash -> ascending seqs of buffered tuples with that hash.
    std::unordered_map<std::size_t, std::deque<std::uint64_t>> index;
    /// Band path: the last inserted band key, and the lowest seq from
    /// which buffered band keys are known non-decreasing (a range probe
    /// needs ordered_from <= first_seq).
    std::int64_t last_key = INT64_MIN;
    std::uint64_t ordered_from = 0;
  };

  void push_one(Tuple t, bool is_left, runtime::TupleBatch* batch_out);
  void push_batch_side(const runtime::TupleBatch& batch,
                       const std::vector<std::uint32_t>* sel,
                       bool lift_append_ts, bool is_left,
                       runtime::TupleBatch& out);
  void insert(SideRuntime& s, Tuple t, bool is_left);
  void probe(const Tuple& incoming, bool incoming_is_left,
             runtime::TupleBatch* batch_out);
  /// The band range probe; false (nothing examined) when the other side's
  /// keys are not ordered or the incoming key is unreadable.
  bool probe_band(const Tuple& incoming, bool incoming_is_left,
                  runtime::TupleBatch* batch_out);
  void emit(const Tuple& lt, const Tuple& rt, runtime::TupleBatch* batch_out);
  void prune_side(SideRuntime& s, const WindowSpec& window, bool is_left);
  [[nodiscard]] std::size_t key_hash(const Tuple& t, bool of_left) const;
  /// Reads `t`'s band operand into `out`; false unless it is an int.
  [[nodiscard]] bool band_key(const Tuple& t, bool of_left,
                              std::int64_t& out) const noexcept;

  Side left_;
  Side right_;
  PredicatePtr predicate_;
  Sink sink_;
  Options options_;
  std::vector<EquiKey> keys_;
  std::optional<BandKey> band_;  ///< set iff the band range path is on
  /// Probe programs per incoming direction (bindings [incoming, other]):
  /// the full predicate for the scanning probe, and the residual of the
  /// index path in use (the predicate minus the equi keys or the band).
  CompiledPredicate full_left_in_;
  CompiledPredicate full_right_in_;
  CompiledPredicate residual_left_in_;
  CompiledPredicate residual_right_in_;
  bool hash_enabled_ = false;
  Timestamp watermark_ = INT64_MIN;
  SideRuntime left_rt_;
  SideRuntime right_rt_;
  std::vector<Value> row_scratch_;  ///< reused per emitted row
  std::size_t emitted_ = 0;
  std::size_t candidates_ = 0;
};

}  // namespace cosmos::stream
