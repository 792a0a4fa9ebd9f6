#include "stream/engine.h"

#include <stdexcept>

#include "runtime/tuple_batch.h"

namespace cosmos::stream {
namespace {

[[noreturn]] void throw_out_of_order(const std::string& name, Timestamp got,
                                     Timestamp last) {
  throw std::invalid_argument{
      "Engine: out-of-order tuple on stream " + name + ": ts " +
      std::to_string(got) + " after ts " + std::to_string(last) +
      " (ordering is per-stream; equal timestamps are allowed, including "
      "across streams)"};
}

}  // namespace

void Engine::register_stream(const std::string& name, Schema schema) {
  if (streams_.contains(name)) {
    throw std::invalid_argument{"Engine: duplicate stream " + name};
  }
  StreamState st;
  st.schema = std::move(schema);
  streams_.emplace(name, std::move(st));
}

const Schema& Engine::schema(const std::string& name) const {
  const auto it = streams_.find(name);
  if (it == streams_.end()) {
    throw std::out_of_range{"Engine: unknown stream " + name};
  }
  return it->second.schema;
}

Engine::StreamState& Engine::state(const std::string& name) {
  const auto it = streams_.find(name);
  if (it == streams_.end()) {
    throw std::out_of_range{"Engine: unknown stream " + name};
  }
  return it->second;
}

std::size_t Engine::attach(const std::string& name, Tap tap) {
  if (!tap) throw std::invalid_argument{"Engine: null tap"};
  auto& st = state(name);
  const std::size_t id = st.next_tap_id++;
  auto taps = std::make_shared<TapList>(*st.taps);
  taps->push_back({id, std::move(tap), nullptr});
  st.taps = std::move(taps);
  return id;
}

std::size_t Engine::attach(const std::string& name, BatchTap batch,
                           Tap scalar) {
  if (!batch || !scalar) {
    throw std::invalid_argument{"Engine: null batch/scalar tap"};
  }
  auto& st = state(name);
  const std::size_t id = st.next_tap_id++;
  auto taps = std::make_shared<TapList>(*st.taps);
  taps->push_back({id, std::move(scalar), std::move(batch)});
  st.taps = std::move(taps);
  return id;
}

void Engine::detach(const std::string& name, std::size_t tap_id) {
  auto& st = state(name);
  auto taps = std::make_shared<TapList>(*st.taps);
  std::erase_if(*taps, [tap_id](const auto& e) { return e.id == tap_id; });
  st.taps = std::move(taps);
}

void Engine::publish(const std::string& name, const Tuple& t) {
  auto& st = state(name);
  if (t.ts < st.last_ts) throw_out_of_order(name, t.ts, st.last_ts);
  st.last_ts = t.ts;
  ++st.published;
  // Pin the current tap list: a tap may attach/detach while we iterate (a
  // query result published downstream may register new consumers).
  const auto taps = st.taps;
  for (const auto& e : *taps) e.scalar(t);
}

void Engine::publish_batch(const std::string& name,
                           const runtime::TupleBatch& batch) {
  // Validate even for empty batches: a misrouted batch should fail loudly
  // whether or not it happens to carry rows.
  if (batch.stream() != name) {
    throw std::invalid_argument{"Engine: batch for stream " + batch.stream() +
                                " published on " + name};
  }
  auto& st = state(name);
  if (batch.empty()) return;
  if (!batch.timestamps_ordered()) {
    throw std::invalid_argument{"Engine: batch on stream " + name +
                                " is not timestamp-ordered"};
  }
  if (batch.first_ts() < st.last_ts) {
    throw_out_of_order(name, batch.first_ts(), st.last_ts);
  }
  st.last_ts = batch.last_ts();
  st.published += batch.size();
  // One pinned tap list for the whole batch.
  const auto taps = st.taps;
  // Batch-aware taps take the whole batch with zero materialization; rows
  // are only materialized if a scalar-only tap remains.
  bool any_scalar_only = false;
  for (const auto& e : *taps) {
    if (e.batch) {
      e.batch(batch);
    } else {
      any_scalar_only = true;
    }
  }
  if (!any_scalar_only) return;
  Tuple scratch;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.materialize(i, scratch);
    for (const auto& e : *taps) {
      if (!e.batch) e.scalar(scratch);
    }
  }
}

std::size_t Engine::published_count(const std::string& name) const {
  const auto it = streams_.find(name);
  if (it == streams_.end()) {
    throw std::out_of_range{"Engine: unknown stream " + name};
  }
  return it->second.published;
}

}  // namespace cosmos::stream
