#include "stream/operators.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "runtime/tuple_batch.h"

namespace cosmos::stream {
namespace {

/// Value a slot reads from a materialized tuple (side implied by caller);
/// `scratch` backs timestamp slots.
const Value& slot_value(const Tuple& t, const FieldSlot& s, Value& scratch) {
  if (s.col == FieldSlot::kTsCol) {
    scratch = Value{static_cast<std::int64_t>(t.ts)};
    return scratch;
  }
  return t.values.at(s.col);
}

}  // namespace

FilterOp::FilterOp(std::string alias, const Schema* schema,
                   PredicatePtr predicate, Sink sink,
                   std::size_t virtual_ts_col)
    : alias_(std::move(alias)),
      schema_(schema),
      predicate_(std::move(predicate)),
      sink_(std::move(sink)) {
  if (schema_ == nullptr || predicate_ == nullptr || !sink_) {
    throw std::invalid_argument{"FilterOp: null schema/predicate/sink"};
  }
  compiled_ = CompiledPredicate::compile(
      predicate_, {{alias_, schema_, virtual_ts_col}});
}

void FilterOp::push(const Tuple& t) {
  ++seen_;
  if (compiled_.eval(t)) {
    ++passed_;
    sink_(t);
  }
}

void FilterOp::push_batch(const runtime::TupleBatch& batch,
                          const std::vector<std::uint32_t>* sel,
                          std::vector<std::uint32_t>& out) {
  seen_ += sel != nullptr ? sel->size() : batch.size();
  const std::size_t before = out.size();
  compiled_.filter_batch(batch, sel, out);
  passed_ += out.size() - before;
}

ProjectOp::ProjectOp(std::vector<std::size_t> keep_indices, Sink sink,
                     std::size_t virtual_ts_col)
    : keep_(std::move(keep_indices)),
      sink_(std::move(sink)),
      virtual_ts_col_(virtual_ts_col) {
  if (!sink_) throw std::invalid_argument{"ProjectOp: null sink"};
}

void ProjectOp::push(const Tuple& t) {
  Tuple out;
  out.ts = t.ts;
  out.values.reserve(keep_.size());
  for (const std::size_t i : keep_) out.values.push_back(t.at(i));
  sink_(out);
}

void ProjectOp::push_batch(const runtime::TupleBatch& batch,
                           const std::vector<std::uint32_t>* sel,
                           runtime::TupleBatch& out) {
  const std::size_t width = batch.width();
  const Value* values = batch.values_data();
  const auto project_row = [&](std::uint32_t r) {
    if (r >= batch.size()) {
      throw std::out_of_range{"ProjectOp: selected row " + std::to_string(r) +
                              " out of range"};
    }
    const Timestamp ts = batch.ts_data()[r];
    // push_row move-iterates the elements out but leaves the vector (and
    // its capacity) behind, so the scratch row costs no per-row alloc.
    row_scratch_.clear();
    row_scratch_.reserve(keep_.size());
    const Value* row = values + std::size_t{r} * width;
    for (const std::size_t k : keep_) {
      if (k == virtual_ts_col_) {
        row_scratch_.emplace_back(static_cast<std::int64_t>(ts));
      } else if (k < width) {
        row_scratch_.push_back(row[k]);
      } else {
        throw std::out_of_range{"ProjectOp: column " + std::to_string(k) +
                                " out of range"};
      }
    }
    out.push_row(ts, std::move(row_scratch_));
  };
  if (sel == nullptr) {
    for (std::uint32_t r = 0; r < batch.size(); ++r) project_row(r);
  } else {
    for (const std::uint32_t r : *sel) project_row(r);
  }
}

WindowJoinOp::WindowJoinOp(Side left, Side right, PredicatePtr predicate,
                           Sink sink)
    : WindowJoinOp(std::move(left), std::move(right), std::move(predicate),
                   std::move(sink), Options{}) {}

WindowJoinOp::WindowJoinOp(Side left, Side right, PredicatePtr predicate,
                           Sink sink, Options options)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)),
      sink_(std::move(sink)),
      options_(options) {
  if (left_.schema == nullptr || right_.schema == nullptr ||
      predicate_ == nullptr || !sink_) {
    throw std::invalid_argument{"WindowJoinOp: null argument"};
  }
  // Compile-time plan: resolve every field, pick the access path (hash on
  // equality conjuncts, else range on a time band, else scan), and build
  // one probe program per incoming direction (the evaluation env is
  // [incoming side, other side], so the binding order flips with the
  // direction).
  const std::vector<BindingSpec> lr{{left_.alias, left_.schema, SIZE_MAX},
                                    {right_.alias, right_.schema, SIZE_MAX}};
  const std::vector<BindingSpec> rl{{right_.alias, right_.schema, SIZE_MAX},
                                    {left_.alias, left_.schema, SIZE_MAX}};
  full_left_in_ = CompiledPredicate::compile(predicate_, lr);
  full_right_in_ = CompiledPredicate::compile(predicate_, rl);
  JoinSplit split = split_equi_conjuncts(predicate_, lr);
  keys_ = std::move(split.keys);
  hash_enabled_ = options_.use_hash_index && !keys_.empty();
  PredicatePtr residual = std::move(split.residual);
  if (options_.use_hash_index && !hash_enabled_) {
    BandSplit band = split_band_conjunct(predicate_, lr);
    band_ = band.band;
    residual = std::move(band.residual);
  }
  if (hash_enabled_ || band_) {
    residual_left_in_ = CompiledPredicate::compile(residual, lr);
    residual_right_in_ = CompiledPredicate::compile(residual, rl);
  }
}

void WindowJoinOp::push_left(const Tuple& t) {
  push_one(t, /*is_left=*/true, nullptr);
}

void WindowJoinOp::push_right(const Tuple& t) {
  push_one(t, /*is_left=*/false, nullptr);
}

void WindowJoinOp::push_batch_left(const runtime::TupleBatch& batch,
                                   const std::vector<std::uint32_t>* sel,
                                   bool lift_append_ts,
                                   runtime::TupleBatch& out) {
  push_batch_side(batch, sel, lift_append_ts, /*is_left=*/true, out);
}

void WindowJoinOp::push_batch_right(const runtime::TupleBatch& batch,
                                    const std::vector<std::uint32_t>* sel,
                                    bool lift_append_ts,
                                    runtime::TupleBatch& out) {
  push_batch_side(batch, sel, lift_append_ts, /*is_left=*/false, out);
}

void WindowJoinOp::push_batch_side(const runtime::TupleBatch& batch,
                                   const std::vector<std::uint32_t>* sel,
                                   bool lift_append_ts, bool is_left,
                                   runtime::TupleBatch& out) {
  const auto one = [&](std::uint32_t r) {
    Tuple t = batch.row(r);
    if (lift_append_ts) {
      t.values.emplace_back(static_cast<std::int64_t>(t.ts));
    }
    push_one(std::move(t), is_left, &out);
  };
  if (sel == nullptr) {
    for (std::uint32_t r = 0; r < batch.size(); ++r) one(r);
  } else {
    for (const std::uint32_t r : *sel) one(r);
  }
}

void WindowJoinOp::advance_watermark(Timestamp watermark) {
  if (watermark <= watermark_) return;
  watermark_ = watermark;
  prune_side(left_rt_, left_.window, /*is_left=*/true);
  prune_side(right_rt_, right_.window, /*is_left=*/false);
}

WindowJoinOp::State WindowJoinOp::export_state() const {
  State s;
  s.watermark = watermark_;
  s.left.assign(left_rt_.buf.begin(), left_rt_.buf.end());
  s.right.assign(right_rt_.buf.begin(), right_rt_.buf.end());
  return s;
}

void WindowJoinOp::import_state(State state) {
  watermark_ = state.watermark;
  const auto load = [this](std::vector<Tuple>&& tuples, SideRuntime& rt,
                           bool is_left) {
    rt.buf.clear();
    rt.index.clear();
    rt.first_seq = 0;
    rt.next_seq = 0;
    rt.last_key = INT64_MIN;
    rt.ordered_from = 0;
    // Same insert path as push_one, sans probe: buckets end up holding
    // ascending seqs, which prune_side's pop-front relies on, and the
    // band-key order is tracked exactly as live inserts track it.
    for (Tuple& t : tuples) insert(rt, std::move(t), is_left);
  };
  load(std::move(state.left), left_rt_, /*is_left=*/true);
  load(std::move(state.right), right_rt_, /*is_left=*/false);
}

void WindowJoinOp::prune_side(SideRuntime& s, const WindowSpec& window,
                              bool is_left) {
  while (!s.buf.empty() && !window.contains(s.buf.front().ts, watermark_)) {
    if (hash_enabled_) {
      // The evicted tuple is the globally oldest buffered one, so its seq
      // is the front of its bucket.
      const auto it = s.index.find(key_hash(s.buf.front(), is_left));
      it->second.pop_front();
      if (it->second.empty()) s.index.erase(it);
    }
    s.buf.pop_front();
    ++s.first_seq;
  }
}

std::size_t WindowJoinOp::key_hash(const Tuple& t, bool of_left) const {
  std::size_t h = 0x9e3779b97f4a7c15ull;
  Value scratch;
  for (const EquiKey& k : keys_) {
    const Value& v = slot_value(t, of_left ? k.left : k.right, scratch);
    // Cross-type numeric equality (int 3 == double 3.0) must hash equal:
    // numerics hash through their double view, strings through the bytes.
    const std::size_t hv =
        v.type() == ValueType::kString
            ? std::hash<std::string>{}(v.as_string())
            : std::hash<double>{}(v.as_double());
    h ^= hv + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

bool WindowJoinOp::band_key(const Tuple& t, bool of_left,
                            std::int64_t& out) const noexcept {
  const FieldSlot& slot = of_left ? band_->left : band_->right;
  if (slot.col == FieldSlot::kTsCol) {
    out = t.ts;
    return true;
  }
  if (slot.col >= t.values.size()) return false;
  const Value& v = t.values[slot.col];
  if (v.type() != ValueType::kInt) return false;
  out = v.as_int();
  return true;
}

void WindowJoinOp::insert(SideRuntime& s, Tuple t, bool is_left) {
  if (hash_enabled_) s.index[key_hash(t, is_left)].push_back(s.next_seq);
  if (band_) {
    std::int64_t k = 0;
    if (!band_key(t, is_left, k)) {
      // An unreadable key orders with nothing: range probes wait until
      // this tuple itself is pruned.
      s.ordered_from = s.next_seq + 1;
      s.last_key = INT64_MIN;
    } else {
      if (k < s.last_key) s.ordered_from = s.next_seq;
      s.last_key = k;
    }
  }
  ++s.next_seq;
  s.buf.push_back(std::move(t));
}

void WindowJoinOp::push_one(Tuple t, bool is_left,
                            runtime::TupleBatch* batch_out) {
  advance_watermark(t.ts);
  probe(t, is_left, batch_out);
  insert(is_left ? left_rt_ : right_rt_, std::move(t), is_left);
}

void WindowJoinOp::probe(const Tuple& incoming, bool incoming_is_left,
                         runtime::TupleBatch* batch_out) {
  SideRuntime& other = incoming_is_left ? right_rt_ : left_rt_;
  const Side& other_side = incoming_is_left ? right_ : left_;
  if (other.buf.empty()) return;

  if (hash_enabled_) {
    const auto it = other.index.find(key_hash(incoming, incoming_is_left));
    if (it == other.index.end()) return;
    const CompiledPredicate& residual =
        incoming_is_left ? residual_left_in_ : residual_right_in_;
    Value sa;
    Value sb;
    for (const std::uint64_t seq : it->second) {
      ++candidates_;
      const Tuple& cand =
          other.buf[static_cast<std::size_t>(seq - other.first_seq)];
      if (!other_side.window.contains(cand.ts, incoming.ts)) continue;
      // Re-check key equality: the bucket only guarantees equal hashes.
      bool keys_equal = true;
      for (const EquiKey& k : keys_) {
        const FieldSlot& own_slot = incoming_is_left ? k.left : k.right;
        const FieldSlot& other_slot = incoming_is_left ? k.right : k.left;
        if (!(slot_value(incoming, own_slot, sa) ==
              slot_value(cand, other_slot, sb))) {
          keys_equal = false;
          break;
        }
      }
      if (!keys_equal) continue;
      if (!residual.eval(incoming, cand)) continue;
      emit(incoming_is_left ? incoming : cand,
           incoming_is_left ? cand : incoming, batch_out);
    }
    return;
  }

  if (band_ && probe_band(incoming, incoming_is_left, batch_out)) return;

  const CompiledPredicate& full =
      incoming_is_left ? full_left_in_ : full_right_in_;
  candidates_ += other.buf.size();
  for (const Tuple& cand : other.buf) {
    if (!other_side.window.contains(cand.ts, incoming.ts)) continue;
    if (!full.eval(incoming, cand)) continue;
    emit(incoming_is_left ? incoming : cand,
         incoming_is_left ? cand : incoming, batch_out);
  }
}

bool WindowJoinOp::probe_band(const Tuple& incoming, bool incoming_is_left,
                              runtime::TupleBatch* batch_out) {
  const SideRuntime& other = incoming_is_left ? right_rt_ : left_rt_;
  std::int64_t k = 0;
  if (other.ordered_from > other.first_seq ||
      !band_key(incoming, incoming_is_left, k)) {
    return false;
  }
  // Candidate keys o satisfy 0 <= newer - older <= band: o in [k - band, k]
  // when the incoming side is newer, o in [k, k + band] otherwise, with
  // the bounds saturated instead of overflowing.
  const std::int64_t band = band_->band_ms;
  std::int64_t lo = k;
  std::int64_t hi = k;
  if (incoming_is_left == band_->left_is_newer) {
    lo = k < INT64_MIN + band ? INT64_MIN : k - band;
  } else {
    hi = k > INT64_MAX - band ? INT64_MAX : k + band;
  }
  // Every buffered key was readable and they are non-decreasing, so the
  // range is one contiguous run of the buffer.
  const FieldSlot& slot = incoming_is_left ? band_->right : band_->left;
  const auto key_of = [&slot](const Tuple& c) {
    return slot.col == FieldSlot::kTsCol ? std::int64_t{c.ts}
                                         : c.values[slot.col].as_int();
  };
  const WindowSpec& window = incoming_is_left ? right_.window : left_.window;
  const CompiledPredicate& residual =
      incoming_is_left ? residual_left_in_ : residual_right_in_;
  for (auto it = std::partition_point(
           other.buf.begin(), other.buf.end(),
           [&](const Tuple& c) { return key_of(c) < lo; });
       it != other.buf.end() && key_of(*it) <= hi; ++it) {
    ++candidates_;
    const Tuple& cand = *it;
    if (!window.contains(cand.ts, incoming.ts)) continue;
    if (!residual.eval(incoming, cand)) continue;
    emit(incoming_is_left ? incoming : cand,
         incoming_is_left ? cand : incoming, batch_out);
  }
  return true;
}

void WindowJoinOp::emit(const Tuple& lt, const Tuple& rt,
                        runtime::TupleBatch* batch_out) {
  ++emitted_;
  const Timestamp ts = std::max(lt.ts, rt.ts);
  if (batch_out != nullptr) {
    // Scratch row reused across emits: push_row drains the elements but
    // the vector keeps its capacity.
    row_scratch_.clear();
    row_scratch_.reserve(lt.values.size() + rt.values.size());
    row_scratch_.insert(row_scratch_.end(), lt.values.begin(),
                        lt.values.end());
    row_scratch_.insert(row_scratch_.end(), rt.values.begin(),
                        rt.values.end());
    batch_out->push_row(ts, std::move(row_scratch_));
    return;
  }
  Tuple out;
  out.ts = ts;
  out.values.reserve(lt.values.size() + rt.values.size());
  out.values.insert(out.values.end(), lt.values.begin(), lt.values.end());
  out.values.insert(out.values.end(), rt.values.begin(), rt.values.end());
  sink_(out);
}

}  // namespace cosmos::stream
