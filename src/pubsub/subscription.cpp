#include "pubsub/subscription.h"

#include <algorithm>

namespace cosmos::pubsub {

bool Subscription::matches(const stream::Schema& schema,
                           const stream::Tuple& tuple) const {
  const std::vector<stream::Binding> env{{"", &schema, &tuple}};
  try {
    return filter->eval(env);
  } catch (const std::invalid_argument&) {
    return false;  // filter references attributes this message lacks
  }
}

double message_bytes(const Message& message,
                     const std::set<std::string>& attrs) {
  double bytes = kMessageHeaderBytes;
  for (std::size_t i = 0; i < message.schema->size(); ++i) {
    const auto& field = message.schema->field(i);
    if (!attrs.empty() && !attrs.contains(field.name)) continue;
    if (field.type == stream::ValueType::kString) {
      bytes += static_cast<double>(
          message.tuple.at(i).as_string().size());
    } else {
      bytes += 8.0;
    }
  }
  return bytes;
}

namespace {

/// Conjuncts of a filter, or nullopt if not a pure conjunction.
std::optional<std::vector<stream::PredicatePtr>> conjuncts(
    const stream::PredicatePtr& p) {
  std::vector<stream::PredicatePtr> out;
  if (!stream::collect_conjuncts(p, out)) return std::nullopt;
  return out;
}

}  // namespace

bool covers(const Subscription& a, const Subscription& b) {
  // Stream coverage.
  if (!std::includes(a.streams.begin(), a.streams.end(), b.streams.begin(),
                     b.streams.end())) {
    return false;
  }
  // Projection coverage (empty = all attributes).
  if (!a.projection.empty()) {
    if (b.projection.empty()) return false;
    if (!std::includes(a.projection.begin(), a.projection.end(),
                       b.projection.begin(), b.projection.end())) {
      return false;
    }
  }
  // Filter coverage: every conjunct of a must appear in b (a is weaker).
  const auto ca = conjuncts(a.filter);
  const auto cb = conjuncts(b.filter);
  if (!ca || !cb) return false;
  std::set<std::string> b_set;
  for (const auto& p : *cb) b_set.insert(p->to_string());
  for (const auto& p : *ca) {
    if (!b_set.contains(p->to_string())) return false;
  }
  return true;
}

}  // namespace cosmos::pubsub
