// One stream's slice of the broker network: the subscription index, the
// per-tuple matching, the overlay routing + traffic accounting for exactly
// one advertised stream.
//
// Partitions are the unit of parallelism for subscription matching: every
// stream's routing state (its advert, the subscriptions interested in it,
// and its traffic counters) is independent of every other stream's, so a
// partition can be driven by whatever thread currently owns it — in
// Cosmos::run() that is the runtime shard owning the stream's publishing
// engine — with no locks at all. The ownership protocol is the runtime's
// drain discipline: at most one thread calls into a partition at a time,
// and ownership hand-offs (engine migration, driver-side result delivery)
// happen only across a shard drain, which establishes the happens-before
// edge. (The per-batch scratch buffers below rely on the same discipline.)
//
// Matching is sublinear in subscription count: subscriptions live in
// stable slots whose compiled filters are decomposed into a
// SubscriptionIndex (subscription_index.h) — per-column constant hash
// probes and sorted-interval stabs produce per-row candidate sets, and
// only candidates run their compiled residual. Constructing the partition
// with use_index = false forces the linear scan over every slot instead;
// the two paths produce byte-identical deliveries and traffic on
// schema-conforming rows (the differential oracle the pubsub churn test
// and bench_match_scale drive).
//
// Traffic accounting does no string or set work per row. Each slot's
// projection is compiled once, at subscribe time, into a column mask over
// the partition schema (64-bit words, any width; unprojected = every
// column). Per overlay link a routed row ORs the masks of the subscribers
// behind that link and sizes the message from the mask — message_bytes()'s
// header and fields, summed in the same field order, so the same doubles.
// Link latencies come from the overlay's per-edge table, and each directed
// tree edge accumulates into its own slot; traffic() folds the slots into
// the per-link map.
//
// The BrokerNetwork facade builds partitions, routes subscribe/unsubscribe
// updates into them, and merges their traffic stats back into one view.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/latency_matrix.h"
#include "pubsub/subscription.h"
#include "pubsub/subscription_index.h"
#include "runtime/tuple_batch.h"
#include "stream/compiled_predicate.h"

namespace cosmos::pubsub {

/// Traffic of one directed overlay link (accounted on the from->to hop).
struct LinkTraffic {
  double bytes = 0.0;
  double weighted_cost = 0.0;  ///< bytes * link latency (byte*ms)
  std::size_t messages_sent = 0;

  friend bool operator==(const LinkTraffic&, const LinkTraffic&) = default;
};

struct TrafficStats {
  double bytes = 0.0;
  double weighted_cost = 0.0;  ///< sum of bytes * link latency (byte*ms)
  std::size_t messages_sent = 0;
  /// Per directed overlay link (from, to) breakdown of the totals — what
  /// link-level tests assert and hot-link analysis reads.
  std::map<std::pair<NodeId, NodeId>, LinkTraffic> links;

  /// Accumulates `other` into this (the facade's partition merge).
  void merge(const TrafficStats& other);

  friend bool operator==(const TrafficStats&, const TrafficStats&) = default;
};

/// Batched delivery: the rows of a published batch one subscription
/// matched, as ascending indices into the source batch (select() them to
/// materialize the subscriber's view).
struct BatchDelivery {
  const Subscription* sub = nullptr;
  const runtime::TupleBatch* source = nullptr;
  std::vector<std::uint32_t> rows;
};

/// Immutable overlay shared by every partition: the latency-minimal
/// spanning tree over the participants and its routing tables. Built once
/// by the BrokerNetwork constructor; read-only afterwards, so concurrent
/// partitions never contend on it.
struct Overlay {
  std::vector<NodeId> participants;
  std::unordered_map<NodeId, std::size_t> index;
  const net::LatencyMatrix* lat = nullptr;
  std::vector<std::vector<std::size_t>> adj;       ///< tree adjacency
  std::vector<std::vector<std::size_t>> next_hop;  ///< routing table
  /// Parallel to adj: latency of the directed link u -> adj[u][k], read
  /// from `lat` once per edge at construction.
  std::vector<std::vector<double>> adj_latency;
  /// Dense id of the directed link u -> adj[u][k] is link_base[u] + k;
  /// link_base[participants.size()] is the number of directed links.
  std::vector<std::size_t> link_base;

  /// Index of `n`; throws std::invalid_argument for non-participants.
  [[nodiscard]] std::size_t index_of(NodeId n) const;
};

class BrokerPartition {
 public:
  using DeliveryCallback =
      std::function<void(const Subscription&, const Message&)>;

  /// `use_index` = false keeps every subscription on the linear scan path
  /// — the differential oracle configuration.
  BrokerPartition(const Overlay& overlay, std::string stream, NodeId publisher,
                  stream::Schema schema, bool use_index = true);

  // index_ resolves filters against &schema_: the partition must stay at
  // one address for its whole life (BrokerNetwork holds it by unique_ptr).
  BrokerPartition(const BrokerPartition&) = delete;
  BrokerPartition& operator=(const BrokerPartition&) = delete;

  [[nodiscard]] const std::string& stream() const noexcept { return stream_; }
  [[nodiscard]] NodeId publisher() const noexcept { return publisher_; }
  [[nodiscard]] const stream::Schema& schema() const noexcept {
    return schema_;
  }

  /// Facade bookkeeping: (de)registers a subscription interested in this
  /// stream. `sub` must stay valid while registered. The subscription's
  /// filter is compiled against the partition schema here — once per
  /// subscribe — so matching never resolves a field by string again; a
  /// filter referencing attributes this stream lacks compiles leniently
  /// and matches nothing, exactly like the interpreted fallback. The
  /// filter is also decomposed into the attribute-predicate index (unless
  /// use_index is off); slots of removed subscriptions are reused, and
  /// index maintenance is incremental in both directions.
  void add_subscription(const Subscription* sub);
  void remove_subscription(SubscriptionId id);
  [[nodiscard]] std::size_t subscription_count() const noexcept {
    return live_count_;
  }
  /// Index placement diagnostics (tests and bench_match_scale).
  [[nodiscard]] const SubscriptionIndex& index() const noexcept {
    return index_;
  }

  /// Scalar path: matches one tuple against the index, routes one copy per
  /// overlay link toward the matched subscribers (attributes pruned to the
  /// union of their projections), accounts the traffic, and delivers via
  /// `callback` at each subscriber's home broker.
  void match(const stream::Tuple& tuple, const DeliveryCallback& callback);

  /// Batched path: per-row matching and link accounting identical to
  /// size() scalar match() calls, but one BatchDelivery per matching
  /// subscription slot carrying all of its rows at once (appended to
  /// `deliveries` in first-match order). Rows must be timestamp-ordered;
  /// violations throw std::invalid_argument naming the stream and both
  /// timestamps before any row is matched or accounted.
  void match_batch(const runtime::TupleBatch& batch,
                   std::vector<BatchDelivery>& deliveries);

  /// Totals plus the per-link map of every link that carried a message.
  [[nodiscard]] TrafficStats traffic() const;
  void reset_traffic() noexcept;

 private:
  struct MatchedSub {
    const Subscription* sub = nullptr;  ///< nullptr = free slot
    std::size_t home = 0;
    /// Filter compiled against the partition schema (single "" binding).
    stream::CompiledPredicate filter;
  };

  [[nodiscard]] static bool filter_matches(
      const MatchedSub& entry, const stream::CompiledPredicate::Row& row);
  /// Stage 1 of match_batch: fills rows_of_[slot] for every live slot with
  /// the ascending row ids its filter matched, and active_ with the slots
  /// that matched anything (ascending).
  void match_rows(const runtime::TupleBatch& batch);
  /// Forwards message_ from overlay node `at` toward every matched_ slot,
  /// accounting one copy per link; `callback` (nullable) fires at each
  /// subscriber's home broker.
  void route(std::size_t at, std::size_t came_from,
             const DeliveryCallback* callback);
  /// Allocates link_traffic_ on the first routed row, so partitions that
  /// never route (e.g. result streams of superseded unit versions) stay
  /// small.
  void reserve_link_slots();
  /// message_bytes() of message_ restricted to the columns in route_mask_.
  [[nodiscard]] double masked_bytes() const;

  const Overlay* overlay_;
  std::string stream_;
  NodeId publisher_;
  std::size_t publisher_idx_;
  stream::Schema schema_;
  bool use_index_;
  /// Per schema column: 1 = string (sized by length), 0 = 8-byte numeric.
  std::vector<char> string_column_;
  /// 64-bit words per projection mask: ceil(schema width / 64).
  std::size_t mask_words_;
  /// Subscription slot table: stable slot ids (freed slots are reused, not
  /// erased) so the index can reference subscriptions by position.
  std::vector<MatchedSub> subs_;
  /// Projection mask of slot s: words [s * mask_words_, (s+1) * mask_words_).
  std::vector<std::uint64_t> masks_;
  std::vector<SubscriptionIndex::Slot> free_slots_;
  /// id -> live slot(s); multimap because direct partition driving does
  /// not enforce the facade's id uniqueness.
  std::unordered_multimap<SubscriptionId, SubscriptionIndex::Slot> slot_of_;
  std::size_t live_count_ = 0;
  SubscriptionIndex index_;
  /// Traffic totals (links left empty) and one slot per directed overlay
  /// link, indexed by Overlay::link_base (empty until the first route).
  TrafficStats totals_;
  std::vector<LinkTraffic> link_traffic_;

  // Per-call scratch (a partition is driven by one thread at a time; see
  // the ownership note above). Buffers are reused across rows and batches
  // instead of reallocated per row.
  Message message_;  ///< the row being routed (stream/schema set once)
  std::vector<std::vector<std::uint32_t>> cand_rows_;   ///< per slot
  std::vector<std::vector<std::uint32_t>> rows_of_;     ///< per slot
  std::vector<std::vector<SubscriptionIndex::Slot>> row_subs_;  ///< per row
  /// Per slot: this batch's delivery index, or SIZE_MAX.
  std::vector<std::size_t> delivery_of_;
  std::vector<SubscriptionIndex::Slot> touched_;
  std::vector<SubscriptionIndex::Slot> active_;
  std::vector<SubscriptionIndex::Slot> matched_;  ///< the routed row's slots
  std::vector<std::uint64_t> route_mask_;  ///< projection union of one link
};

}  // namespace cosmos::pubsub
