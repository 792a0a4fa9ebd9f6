// Content-based subscriptions (Section 2.1).
//
// A subscription carries the three parts the paper's p1/p2 subscriptions
// have: S — the streams of interest, P — the attributes to project (the
// broker network prunes the rest as early as possible), and F — a filter
// predicate evaluated against each message's tuple.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>

#include "common/ids.h"
#include "stream/predicate.h"
#include "stream/schema.h"

namespace cosmos::pubsub {

struct Subscription {
  SubscriptionId id;
  NodeId subscriber;
  /// Stream names of interest (the S part).
  std::set<std::string> streams;
  /// Attribute names to deliver; empty set means all (the P part).
  std::set<std::string> projection;
  /// Filter over the message tuple (the F part).
  stream::PredicatePtr filter = stream::Predicate::always_true();

  [[nodiscard]] bool wants_stream(const std::string& stream) const noexcept {
    return streams.contains(stream);
  }
  /// True if the tuple passes the filter (schema = message schema).
  [[nodiscard]] bool matches(const stream::Schema& schema,
                             const stream::Tuple& tuple) const;
};

/// A published message: a tuple on a named stream with a known schema.
struct Message {
  std::string stream;
  const stream::Schema* schema = nullptr;
  stream::Tuple tuple;
};

/// Fixed per-message header of the traffic model.
inline constexpr double kMessageHeaderBytes = 16.0;

/// Serialized size in bytes of the tuple restricted to `attrs` (empty =
/// all): 8 bytes per numeric, string length for strings, plus a fixed
/// header. This is the traffic model; BrokerPartition applies it through
/// precompiled column masks, summing the same fields in the same order.
[[nodiscard]] double message_bytes(const Message& message,
                                   const std::set<std::string>& attrs);

/// True if subscription `a` covers `b`: any message matching `b` also
/// matches `a` (sound, not complete — used for routing-table compaction).
[[nodiscard]] bool covers(const Subscription& a, const Subscription& b);

}  // namespace cosmos::pubsub
