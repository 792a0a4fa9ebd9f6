// A distributed content-based publish/subscribe substrate (Siena-style,
// Section 1.2), simulated in-process over an overlay tree.
//
// Brokers sit on every participant node; the overlay is the latency-minimal
// spanning tree of the participants. Publishers advertise streams; the
// advertisement floods the tree so every broker knows which neighbor leads
// to each stream's source. Subscriptions propagate from the subscriber
// toward the advertisers, installing per-link routing state; covered
// subscriptions are absorbed (not forwarded). Messages then flow along the
// reverse subscription paths: one copy per link regardless of how many
// downstream subscriptions want it, with attributes pruned to the union of
// downstream projections (early projection + filtering).
//
// Since PR 3, BrokerNetwork is a thin facade over per-stream
// pubsub::BrokerPartition objects (broker_partition.h): each advertised
// stream's subscription index, matching and traffic accounting live in its
// own lock-free partition, so matching can run inside the runtime shard
// that owns the stream's publishing engine while the facade merely builds
// partitions, applies subscription updates, and merges their traffic
// stats. All link traffic is accounted as bytes and as byte*ms (the
// weighted communication cost the prototype study reports), per directed
// link and in total.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/latency_matrix.h"
#include "pubsub/broker_partition.h"
#include "pubsub/subscription.h"
#include "runtime/tuple_batch.h"

namespace cosmos::pubsub {

class BrokerNetwork {
 public:
  using DeliveryCallback = BrokerPartition::DeliveryCallback;

  struct Options {
    /// Decompose subscription filters into each partition's
    /// attribute-predicate index (sublinear matching). Off = linear scan
    /// over every subscription per row — the differential oracle
    /// bench_match_scale and the pubsub churn test compare against.
    bool use_index = true;
  };

  /// Builds the overlay spanning tree over `participants` using latencies
  /// from `lat` (all participants must be members of `lat`).
  BrokerNetwork(std::vector<NodeId> participants,
                const net::LatencyMatrix& lat, Options options);
  BrokerNetwork(std::vector<NodeId> participants,
                const net::LatencyMatrix& lat)
      : BrokerNetwork(std::move(participants), lat, Options{}) {}

  // Partitions hold pointers into overlay_ and subscriptions_ (and shards
  // hold partition pointers during run()): the network must stay at one
  // address for its whole life.
  BrokerNetwork(const BrokerNetwork&) = delete;
  BrokerNetwork& operator=(const BrokerNetwork&) = delete;

  /// Declares that `publisher` emits `stream` with the given schema;
  /// creates the stream's partition (indexing any already-installed
  /// subscriptions interested in it).
  void advertise(const std::string& stream, NodeId publisher,
                 stream::Schema schema);

  /// Installs a subscription at its subscriber node; returns its id.
  SubscriptionId subscribe(Subscription sub);
  /// Installs a subscription under the id it already carries (federation
  /// nodes replicate driver-assigned subscriptions, and match responses
  /// reference those ids on the wire). Throws std::invalid_argument if the
  /// id is invalid or taken; future subscribe() ids are bumped past it.
  void subscribe_as(Subscription sub);
  void unsubscribe(SubscriptionId id);

  /// The installed subscription with this id, or nullptr.
  [[nodiscard]] const Subscription* subscription(
      SubscriptionId id) const noexcept;

  /// Publishes a tuple from the stream's advertised publisher. Matching
  /// subscriptions receive it via `callback`; link traffic is accounted.
  void publish(const std::string& stream, const stream::Tuple& tuple,
               const DeliveryCallback& callback);

  using BatchDeliveryCallback = std::function<void(const BatchDelivery&)>;

  /// Batched forwarding: publishes every row of `batch` with per-tuple
  /// matching and link accounting identical to N publish() calls, but one
  /// delivery per matching subscription carrying all of its rows at once
  /// (callbacks fire after the whole batch is routed, in first-match
  /// order). This is what lets the runtime hand whole batches to shard
  /// engines instead of crossing the queue per tuple. Rows must be
  /// timestamp-ordered (std::invalid_argument otherwise).
  void publish_batch(const std::string& stream,
                     const runtime::TupleBatch& batch,
                     const BatchDeliveryCallback& callback);

  /// Partition owning `stream`, or nullptr if unadvertised. The runtime
  /// path uses this to run match_batch() inside shards; a partition must be
  /// driven by at most one thread at a time (see broker_partition.h).
  [[nodiscard]] BrokerPartition* partition(const std::string& stream) noexcept;
  /// All partitions, ordered by stream name (deterministic).
  [[nodiscard]] std::vector<BrokerPartition*> partitions();

  /// Traffic merged across every partition. Only meaningful while no other
  /// thread is driving a partition (quiescent points: outside run(), or on
  /// the driver after a drain).
  [[nodiscard]] TrafficStats traffic() const;
  void reset_traffic() noexcept;

  [[nodiscard]] const stream::Schema& schema(const std::string& stream) const;

  /// Participants in construction order (what a federation driver ships as
  /// topology so remote brokers rebuild the identical overlay tree).
  [[nodiscard]] const std::vector<NodeId>& participants() const noexcept {
    return overlay_.participants;
  }
  /// The latency matrix this network was built over.
  [[nodiscard]] const net::LatencyMatrix& latency_matrix() const noexcept {
    return *overlay_.lat;
  }

  /// Overlay neighbors of a node (for tests).
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId n) const;

 private:
  void install(Subscription sub);

  Overlay overlay_;
  /// stream name -> partition; std::map keeps partitions() deterministic,
  /// unique_ptr keeps partition addresses stable across inserts (shards
  /// hold raw pointers while the facade may advertise more streams).
  /// Invariant: partitions are never erased — callers cache
  /// BrokerPartition pointers for the network's lifetime and rely on it.
  std::map<std::string, std::unique_ptr<BrokerPartition>> partitions_;
  std::unordered_map<SubscriptionId, Subscription> subscriptions_;
  /// stream name -> interested subscriptions (also for streams that are
  /// not advertised yet; advertise() replays these into the partition).
  std::unordered_map<std::string, std::vector<SubscriptionId>> by_stream_;
  SubscriptionId::value_type next_sub_id_ = 0;
  Options options_;
};

}  // namespace cosmos::pubsub
