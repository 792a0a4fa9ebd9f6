#include "pubsub/broker_partition.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace cosmos::pubsub {

void TrafficStats::merge(const TrafficStats& other) {
  bytes += other.bytes;
  weighted_cost += other.weighted_cost;
  messages_sent += other.messages_sent;
  for (const auto& [link, t] : other.links) {
    auto& row = links[link];
    row.bytes += t.bytes;
    row.weighted_cost += t.weighted_cost;
    row.messages_sent += t.messages_sent;
  }
}

std::size_t Overlay::index_of(NodeId n) const {
  const auto it = index.find(n);
  if (it == index.end()) {
    throw std::invalid_argument{"BrokerNetwork: not a participant"};
  }
  return it->second;
}

BrokerPartition::BrokerPartition(const Overlay& overlay, std::string stream,
                                 NodeId publisher, stream::Schema schema,
                                 bool use_index)
    : overlay_(&overlay),
      stream_(std::move(stream)),
      publisher_(publisher),
      publisher_idx_(overlay.index_of(publisher)),
      schema_(std::move(schema)),
      use_index_(use_index),
      mask_words_((schema_.size() + 63) / 64),
      index_(&schema_),
      message_{stream_, &schema_, {}},
      route_mask_(mask_words_) {
  string_column_.reserve(schema_.size());
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    string_column_.push_back(
        schema_.field(i).type == stream::ValueType::kString ? 1 : 0);
  }
}

void BrokerPartition::reserve_link_slots() {
  if (link_traffic_.empty()) link_traffic_.resize(overlay_->link_base.back());
}

TrafficStats BrokerPartition::traffic() const {
  TrafficStats out = totals_;
  if (link_traffic_.empty()) return out;
  for (std::size_t u = 0; u < overlay_->adj.size(); ++u) {
    for (std::size_t k = 0; k < overlay_->adj[u].size(); ++k) {
      const LinkTraffic& t = link_traffic_[overlay_->link_base[u] + k];
      if (t.messages_sent == 0) continue;
      out.links.emplace(
          std::pair{overlay_->participants[u],
                    overlay_->participants[overlay_->adj[u][k]]},
          t);
    }
  }
  return out;
}

void BrokerPartition::reset_traffic() noexcept {
  totals_ = {};
  std::fill(link_traffic_.begin(), link_traffic_.end(), LinkTraffic{});
}

void BrokerPartition::add_subscription(const Subscription* sub) {
  // Compile once per subscribe. Lenient: a filter referencing attributes
  // this stream lacks throws std::invalid_argument per evaluated row, which
  // filter_matches turns into "no match" — the interpreter's contract
  // (Subscription::matches) row for row.
  MatchedSub entry{sub, overlay_->index_of(sub->subscriber),
                   stream::CompiledPredicate::compile_lenient(
                       sub->filter, {{"", &schema_, SIZE_MAX}})};
  SubscriptionIndex::Slot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    subs_[slot] = std::move(entry);
  } else {
    slot = static_cast<SubscriptionIndex::Slot>(subs_.size());
    subs_.push_back(std::move(entry));
    masks_.resize(subs_.size() * mask_words_);
    delivery_of_.push_back(SIZE_MAX);
  }
  // Projection mask: the columns message_bytes() would count for this
  // subscriber alone (attributes the stream lacks select nothing).
  std::uint64_t* mask = masks_.data() + slot * mask_words_;
  std::fill(mask, mask + mask_words_, std::uint64_t{0});
  for (std::size_t i = 0; i < schema_.size(); ++i) {
    if (sub->projection.empty() ||
        sub->projection.contains(schema_.field(i).name)) {
      mask[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  slot_of_.emplace(sub->id, slot);
  ++live_count_;
  if (use_index_) index_.add(slot, sub->filter, subs_[slot].filter);
}

void BrokerPartition::remove_subscription(SubscriptionId id) {
  const auto [first, last] = slot_of_.equal_range(id);
  for (auto it = first; it != last; ++it) {
    const auto slot = it->second;
    if (use_index_) index_.remove(slot);
    subs_[slot] = {};
    free_slots_.push_back(slot);
    --live_count_;
  }
  slot_of_.erase(first, last);
}

bool BrokerPartition::filter_matches(
    const MatchedSub& entry, const stream::CompiledPredicate::Row& row) {
  // A filter referencing attributes this message lacks matches nothing —
  // the interpreter's contract (Subscription::matches), evaluated without
  // a per-row exception unwind.
  return entry.filter.eval_unresolved_false(&row);
}

void BrokerPartition::match(const stream::Tuple& tuple,
                            const DeliveryCallback& callback) {
  if (live_count_ == 0) return;
  const stream::CompiledPredicate::Row row{tuple.ts, tuple.values.data(),
                                           tuple.values.size()};
  matched_.clear();
  if (use_index_) {
    index_.probe(row, matched_);
    // Candidates owe their residual; the anchor itself already held.
    std::erase_if(matched_, [this, &row](SubscriptionIndex::Slot s) {
      const auto* res = index_.residual(s);
      return res != nullptr && !res->eval(&row);
    });
    for (const auto slot : index_.scan_slots()) {
      if (filter_matches(subs_[slot], row)) matched_.push_back(slot);
    }
    // Deliveries fire in slot order, exactly like the linear scan.
    std::sort(matched_.begin(), matched_.end());
  } else {
    for (std::size_t s = 0; s < subs_.size(); ++s) {
      if (subs_[s].sub != nullptr && filter_matches(subs_[s], row)) {
        matched_.push_back(static_cast<SubscriptionIndex::Slot>(s));
      }
    }
  }
  if (matched_.empty()) return;
  reserve_link_slots();
  message_.tuple = tuple;
  route(publisher_idx_, SIZE_MAX, &callback);
}

void BrokerPartition::match_rows(const runtime::TupleBatch& batch) {
  const std::size_t slots = subs_.size();
  if (rows_of_.size() < slots) rows_of_.resize(slots);
  active_.clear();
  if (use_index_) {
    if (cand_rows_.size() < slots) cand_rows_.resize(slots);
    touched_.clear();
    index_.probe_batch(batch, cand_rows_, touched_);
    for (const auto slot : touched_) {
      auto& cand = cand_rows_[slot];
      if (const auto* res = index_.residual(slot)) {
        res->filter_batch(batch, &cand, rows_of_[slot]);
      } else {
        std::swap(rows_of_[slot], cand);
      }
      cand.clear();
      if (!rows_of_[slot].empty()) active_.push_back(slot);
    }
    for (const auto slot : index_.scan_slots()) {
      subs_[slot].filter.filter_batch_unresolved_false(batch, nullptr,
                                                       rows_of_[slot]);
      if (!rows_of_[slot].empty()) active_.push_back(slot);
    }
    std::sort(active_.begin(), active_.end());
    return;
  }
  // Linear oracle: every live slot's compiled filter over the whole batch.
  for (std::size_t s = 0; s < slots; ++s) {
    const MatchedSub& entry = subs_[s];
    if (entry.sub == nullptr) continue;
    entry.filter.filter_batch_unresolved_false(batch, nullptr, rows_of_[s]);
    if (!rows_of_[s].empty()) {
      active_.push_back(static_cast<SubscriptionIndex::Slot>(s));
    }
  }
}

void BrokerPartition::match_batch(const runtime::TupleBatch& batch,
                                  std::vector<BatchDelivery>& deliveries) {
  if (batch.empty()) return;
  // Validate ordering up front, before any matching or accounting: a batch
  // violating the per-stream timestamp rule must fail atomically, not after
  // half of its rows already generated traffic.
  if (!batch.timestamps_ordered()) {
    for (std::size_t r = 1; r < batch.size(); ++r) {
      if (batch.ts(r) < batch.ts(r - 1)) {
        throw std::invalid_argument{
            "BrokerPartition: out-of-order batch on stream " + stream_ +
            ": ts " + std::to_string(batch.ts(r)) + " after ts " +
            std::to_string(batch.ts(r - 1))};
      }
    }
  }
  // No subscriptions: nothing can match, route, or be accounted — skip the
  // per-row materialization entirely (as the scalar path does).
  if (live_count_ == 0) return;

  // Stage 1 — candidate generation + residual (index path) or full-filter
  // evaluation (scan list, linear oracle), producing one ascending row
  // list per matched slot. Those lists are also exactly the BatchDelivery
  // row sets.
  match_rows(batch);
  if (active_.empty()) return;

  // Stage 2 — invert the per-slot row lists into per-row matched-slot
  // lists (one pass over the matches, not a per-row scan of every
  // subscription), then route and account row by row, identical to
  // row-count scalar match() calls: deliveries appear in first-match
  // order, rows no subscription matched are never materialized.
  const std::size_t first_delivery = deliveries.size();
  reserve_link_slots();
  if (row_subs_.size() < batch.size()) row_subs_.resize(batch.size());
  for (const auto slot : active_) {  // ascending => per-row lists ascending
    for (const auto r : rows_of_[slot]) row_subs_[r].push_back(slot);
  }
  for (std::uint32_t row = 0; row < batch.size(); ++row) {
    auto& here = row_subs_[row];
    if (here.empty()) continue;
    for (const auto slot : here) {
      std::size_t& d = delivery_of_[slot];
      if (d == SIZE_MAX) {
        d = deliveries.size() - first_delivery;
        deliveries.push_back({subs_[slot].sub, &batch, {}});
      }
      deliveries[first_delivery + d].rows.push_back(row);
    }
    matched_.swap(here);
    here.clear();
    batch.materialize(row, message_.tuple);
    route(publisher_idx_, SIZE_MAX, nullptr);
  }
  for (const auto slot : active_) {
    rows_of_[slot].clear();
    delivery_of_[slot] = SIZE_MAX;
  }
}

double BrokerPartition::masked_bytes() const {
  double bytes = kMessageHeaderBytes;
  for (std::size_t w = 0; w < mask_words_; ++w) {
    for (std::uint64_t bits = route_mask_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + std::countr_zero(bits);
      bytes += string_column_[i] != 0
                   ? static_cast<double>(
                         message_.tuple.at(i).as_string().size())
                   : 8.0;
    }
  }
  return bytes;
}

void BrokerPartition::route(std::size_t at, std::size_t came_from,
                            const DeliveryCallback* callback) {
  // Local delivery.
  if (callback != nullptr) {
    for (const auto slot : matched_) {
      if (subs_[slot].home == at) (*callback)(*subs_[slot].sub, message_);
    }
  }
  // Forward to each neighbor leading to at least one interested
  // subscription, with attributes pruned to the union of their projections
  // (early projection; one copy per link regardless of fan-out behind it).
  // route_mask_ is consumed (masked_bytes) before the recursive call below
  // reuses it.
  const auto& adj = overlay_->adj[at];
  const auto& next_hop = overlay_->next_hop[at];
  for (std::size_t k = 0; k < adj.size(); ++k) {
    const std::size_t nb = adj[k];
    if (nb == came_from) continue;
    bool any = false;
    std::fill(route_mask_.begin(), route_mask_.end(), std::uint64_t{0});
    for (const auto slot : matched_) {
      const std::size_t home = subs_[slot].home;
      if (home == at || next_hop[home] != nb) continue;
      any = true;
      const std::uint64_t* mask = masks_.data() + slot * mask_words_;
      for (std::size_t w = 0; w < mask_words_; ++w) route_mask_[w] |= mask[w];
    }
    if (!any) continue;
    const double bytes = masked_bytes();
    const double weighted = bytes * overlay_->adj_latency[at][k];
    totals_.bytes += bytes;
    totals_.weighted_cost += weighted;
    ++totals_.messages_sent;
    LinkTraffic& link = link_traffic_[overlay_->link_base[at] + k];
    link.bytes += bytes;
    link.weighted_cost += weighted;
    ++link.messages_sent;
    route(nb, at, callback);
  }
}

}  // namespace cosmos::pubsub
