// In-process stream engine: a registry of named streams with schemas and a
// tuple bus. Query plans (built in src/query) subscribe taps to input
// streams and publish result tuples to derived streams.
//
// This is the stand-in for the GSN engine the paper deploys on PlanetLab.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/schema.h"

namespace cosmos::runtime {
class TupleBatch;
}

namespace cosmos::stream {

class Engine {
 public:
  using Tap = std::function<void(const Tuple&)>;
  /// Batch-aware consumer: receives a whole TupleBatch at once.
  using BatchTap = std::function<void(const runtime::TupleBatch&)>;

  /// Registers a stream; throws std::invalid_argument on duplicate name.
  void register_stream(const std::string& name, Schema schema);

  [[nodiscard]] bool has_stream(const std::string& name) const noexcept {
    return streams_.contains(name);
  }
  /// Throws std::out_of_range for unknown streams.
  [[nodiscard]] const Schema& schema(const std::string& name) const;

  /// Attaches a consumer to a stream; returns a tap id usable in detach().
  std::size_t attach(const std::string& name, Tap tap);
  /// Attaches a dual-mode consumer under one tap id: publish() feeds
  /// `scalar` per tuple, publish_batch() feeds `batch` once per batch with
  /// no per-row materialization — the batch-at-a-time operator pipelines
  /// of query plans enter here. Both callbacks must be non-null.
  std::size_t attach(const std::string& name, BatchTap batch, Tap scalar);
  void detach(const std::string& name, std::size_t tap_id);

  /// Pushes a tuple to every tap of the stream (the taps attached when the
  /// call starts; attach/detach from inside a tap shows from the next
  /// publish). Ordering is per-stream:
  /// tuples on one stream must arrive in non-decreasing timestamp order
  /// (window semantics depend on it), and violations throw
  /// std::invalid_argument naming the stream and both timestamps. Streams
  /// are independent — equal or interleaved timestamps across different
  /// streams never throw.
  void publish(const std::string& name, const Tuple& t);

  /// Batched fast path: publishes every row of `batch` (whose stream name
  /// must equal `name`) with one stream lookup, one ordering check against
  /// the previous publish, and one tap-list snapshot for the whole batch —
  /// so a tap attached mid-batch first sees the next batch. Rows must be
  /// timestamp-ordered within the batch (per-stream rule above).
  /// Batch-aware taps each receive the whole batch (in attach order,
  /// before any scalar tap); scalar taps then see the rows materialized
  /// one by one. Each tap still observes its rows in batch order, so
  /// per-consumer sequences are identical to size() publish() calls.
  void publish_batch(const std::string& name,
                     const runtime::TupleBatch& batch);

  /// Total tuples published per stream (for tests and stats).
  [[nodiscard]] std::size_t published_count(const std::string& name) const;

 private:
  struct TapEntry {
    std::size_t id = 0;
    Tap scalar;     ///< always present
    BatchTap batch; ///< null for scalar-only taps
  };
  using TapList = std::vector<TapEntry>;
  struct StreamState {
    Schema schema;
    Timestamp last_ts = INT64_MIN;
    std::size_t published = 0;
    std::size_t next_tap_id = 0;
    /// Copy-on-write: attach/detach swap in a new list, and a publish pins
    /// the list current at its start, so taps that attach or detach
    /// mid-publish take effect from the next publish — without copying
    /// the taps per publish.
    std::shared_ptr<const TapList> taps = std::make_shared<const TapList>();
  };
  StreamState& state(const std::string& name);
  std::unordered_map<std::string, StreamState> streams_;
};

}  // namespace cosmos::stream
