#include "pubsub/broker_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "net/topology.h"
#include "sim/sensor_trace.h"

namespace cosmos::pubsub {
namespace {

struct Fixture {
  net::Topology topo{4};
  std::vector<NodeId> all{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};
  net::LatencyMatrix lat;

  Fixture() {
    // Line 0 -10- 1 -100- 2 -10- 3.
    topo.add_edge(NodeId{0}, NodeId{1}, 10.0);
    topo.add_edge(NodeId{1}, NodeId{2}, 100.0);
    topo.add_edge(NodeId{2}, NodeId{3}, 10.0);
    lat = net::LatencyMatrix{topo, all};
  }

  static stream::Tuple reading(stream::Timestamp ts, double height) {
    return {ts,
            {stream::Value{height}, stream::Value{-3.0},
             stream::Value{std::int64_t{0}}, stream::Value{ts}}};
  }
};

TEST(BrokerNetwork, DeliversToMatchingSubscriber) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  Subscription sub;
  sub.subscriber = NodeId{3};
  sub.streams = {"S"};
  sub.filter = stream::Predicate::cmp({"", "snowHeight"}, stream::CmpOp::kGe,
                                      stream::Value{10.0});
  net.subscribe(std::move(sub));

  int delivered = 0;
  net.publish("S", Fixture::reading(1, 20.0),
              [&](const Subscription&, const Message&) { ++delivered; });
  net.publish("S", Fixture::reading(2, 5.0),
              [&](const Subscription&, const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 1);  // early filtering dropped the second tuple
}

TEST(BrokerNetwork, FilteredTuplesGenerateNoTraffic) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  Subscription sub;
  sub.subscriber = NodeId{3};
  sub.streams = {"S"};
  sub.filter = stream::Predicate::cmp({"", "snowHeight"}, stream::CmpOp::kGe,
                                      stream::Value{10.0});
  net.subscribe(std::move(sub));
  net.publish("S", Fixture::reading(1, 5.0),
              [](const Subscription&, const Message&) {});
  EXPECT_EQ(net.traffic().bytes, 0.0);
}

TEST(BrokerNetwork, SharedLinkCountedOnce) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  for (const NodeId n : {NodeId{2}, NodeId{3}}) {
    Subscription sub;
    sub.subscriber = n;
    sub.streams = {"S"};
    net.subscribe(std::move(sub));
  }
  int delivered = 0;
  net.publish("S", Fixture::reading(1, 20.0),
              [&](const Subscription&, const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 2);
  // Links used: 0-1, 1-2, 2-3 = exactly 3 messages (not 5 as unicast).
  EXPECT_EQ(net.traffic().messages_sent, 3u);
}

TEST(BrokerNetwork, ProjectionShrinksTraffic) {
  Fixture f;
  BrokerNetwork net1{f.all, f.lat};
  net1.advertise("S", NodeId{0}, sim::sensor_schema());
  Subscription all_attrs;
  all_attrs.subscriber = NodeId{3};
  all_attrs.streams = {"S"};
  net1.subscribe(std::move(all_attrs));
  net1.publish("S", Fixture::reading(1, 20.0),
               [](const Subscription&, const Message&) {});

  BrokerNetwork net2{f.all, f.lat};
  net2.advertise("S", NodeId{0}, sim::sensor_schema());
  Subscription one_attr;
  one_attr.subscriber = NodeId{3};
  one_attr.streams = {"S"};
  one_attr.projection = {"snowHeight"};
  net2.subscribe(std::move(one_attr));
  net2.publish("S", Fixture::reading(1, 20.0),
               [](const Subscription&, const Message&) {});
  EXPECT_LT(net2.traffic().bytes, net1.traffic().bytes);
}

TEST(BrokerNetwork, UnsubscribeStopsDelivery) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  Subscription sub;
  sub.subscriber = NodeId{2};
  sub.streams = {"S"};
  const auto id = net.subscribe(std::move(sub));
  net.unsubscribe(id);
  int delivered = 0;
  net.publish("S", Fixture::reading(1, 20.0),
              [&](const Subscription&, const Message&) { ++delivered; });
  EXPECT_EQ(delivered, 0);
}

TEST(BrokerNetwork, RejectsUnknowns) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  EXPECT_THROW(net.publish("nope", Fixture::reading(1, 1.0),
                           [](const Subscription&, const Message&) {}),
               std::invalid_argument);
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  EXPECT_THROW(net.advertise("S", NodeId{1}, sim::sensor_schema()),
               std::invalid_argument);
  EXPECT_THROW(net.schema("other"), std::out_of_range);
}

TEST(Subscription, CoversRelation) {
  Subscription wide;
  wide.streams = {"A", "B"};
  wide.filter = stream::Predicate::cmp({"", "x"}, stream::CmpOp::kGt,
                                       stream::Value{1});
  Subscription narrow;
  narrow.streams = {"A"};
  narrow.filter = stream::Predicate::conj(
      {stream::Predicate::cmp({"", "x"}, stream::CmpOp::kGt,
                              stream::Value{1}),
       stream::Predicate::cmp({"", "y"}, stream::CmpOp::kLt,
                              stream::Value{5})});
  EXPECT_TRUE(covers(wide, narrow));
  EXPECT_FALSE(covers(narrow, wide));
  EXPECT_TRUE(covers(wide, wide));
}

// --- publish_batch edge cases -----------------------------------------
// The batched path must be indistinguishable from N scalar publishes in
// both deliveries and per-link traffic accounting (the invariant the
// runtime's shard-side matching relies on).

runtime::TupleBatch make_batch(
    const std::vector<std::pair<stream::Timestamp, double>>& rows) {
  runtime::TupleBatch batch{"S"};
  for (const auto& [ts, height] : rows) {
    batch.push_back(Fixture::reading(ts, height));
  }
  return batch;
}

Subscription height_sub(NodeId home, double min_height) {
  Subscription sub;
  sub.subscriber = home;
  sub.streams = {"S"};
  sub.filter = stream::Predicate::cmp({"", "snowHeight"}, stream::CmpOp::kGe,
                                      stream::Value{min_height});
  return sub;
}

TEST(BrokerNetworkBatch, EmptyBatchIsANoOp) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  net.subscribe(height_sub(NodeId{3}, 0.0));
  std::size_t deliveries = 0;
  net.publish_batch("S", runtime::TupleBatch{"S"},
                    [&](const BatchDelivery&) { ++deliveries; });
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(net.traffic().bytes, 0.0);
  EXPECT_EQ(net.traffic().messages_sent, 0u);
}

TEST(BrokerNetworkBatch, SingleRowBatchEqualsScalarPublishPerLink) {
  Fixture f;
  const auto tuple = Fixture::reading(7, 25.0);

  BrokerNetwork scalar{f.all, f.lat};
  scalar.advertise("S", NodeId{0}, sim::sensor_schema());
  scalar.subscribe(height_sub(NodeId{3}, 10.0));
  std::size_t scalar_deliveries = 0;
  scalar.publish("S", tuple,
                 [&](const Subscription&, const Message&) {
                   ++scalar_deliveries;
                 });

  BrokerNetwork batched{f.all, f.lat};
  batched.advertise("S", NodeId{0}, sim::sensor_schema());
  batched.subscribe(height_sub(NodeId{3}, 10.0));
  std::size_t rows_delivered = 0;
  batched.publish_batch("S", make_batch({{7, 25.0}}),
                        [&](const BatchDelivery& d) {
                          rows_delivered += d.rows.size();
                        });

  EXPECT_EQ(scalar_deliveries, 1u);
  EXPECT_EQ(rows_delivered, 1u);
  // Full per-link equality, not just the totals.
  EXPECT_EQ(batched.traffic(), scalar.traffic());
  EXPECT_FALSE(batched.traffic().links.empty());
}

TEST(BrokerNetworkBatch, ZeroMatchingSubscriptionsProduceNothing) {
  Fixture f;
  // Case 1: subscriptions exist but reject every row.
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  net.subscribe(height_sub(NodeId{2}, 1000.0));  // nothing is that high
  std::size_t deliveries = 0;
  net.publish_batch("S", make_batch({{1, 5.0}, {2, 9.0}, {3, 12.0}}),
                    [&](const BatchDelivery&) { ++deliveries; });
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(net.traffic().bytes, 0.0);
  EXPECT_TRUE(net.traffic().links.empty());

  // Case 2: no subscriptions at all (the early-out path).
  BrokerNetwork bare{f.all, f.lat};
  bare.advertise("S", NodeId{0}, sim::sensor_schema());
  bare.publish_batch("S", make_batch({{1, 5.0}}),
                     [&](const BatchDelivery&) { ++deliveries; });
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(bare.traffic().messages_sent, 0u);
}

TEST(BrokerNetworkBatch, RejectsOutOfOrderTimestampsAtomically) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  net.advertise("S", NodeId{0}, sim::sensor_schema());
  net.subscribe(height_sub(NodeId{3}, 0.0));
  std::size_t deliveries = 0;
  try {
    net.publish_batch("S", make_batch({{5, 20.0}, {3, 21.0}}),
                      [&](const BatchDelivery&) { ++deliveries; });
    FAIL() << "out-of-order batch must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("S"), std::string::npos);
    EXPECT_NE(what.find("3"), std::string::npos);
    EXPECT_NE(what.find("5"), std::string::npos);
  }
  // The failure is atomic: no row was matched, delivered, or accounted.
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(net.traffic().bytes, 0.0);
  EXPECT_EQ(net.traffic().messages_sent, 0u);
}

TEST(BrokerNetworkBatch, TrafficAccountingEquivalentToScalarPerLink) {
  Fixture f;
  // Mixed subscription population: different homes, filters, projections
  // — shared links, projection unions and partial matches all in play.
  const auto populate = [&](BrokerNetwork& net) {
    net.advertise("S", NodeId{0}, sim::sensor_schema());
    net.subscribe(height_sub(NodeId{3}, 10.0));
    net.subscribe(height_sub(NodeId{2}, 20.0));
    Subscription projected = height_sub(NodeId{1}, 0.0);
    projected.projection = {"snowHeight"};
    net.subscribe(std::move(projected));
  };
  const std::vector<std::pair<stream::Timestamp, double>> rows{
      {1, 5.0}, {2, 15.0}, {3, 25.0}, {4, 8.0}, {5, 30.0}};

  BrokerNetwork scalar{f.all, f.lat};
  populate(scalar);
  std::vector<std::string> scalar_deliveries;
  for (const auto& [ts, height] : rows) {
    scalar.publish("S", Fixture::reading(ts, height),
                   [&](const Subscription& sub, const Message& m) {
                     scalar_deliveries.push_back(
                         std::to_string(sub.id.value()) + "@" +
                         std::to_string(m.tuple.ts));
                   });
  }

  BrokerNetwork batched{f.all, f.lat};
  populate(batched);
  std::vector<std::string> batch_deliveries;
  batched.publish_batch("S", make_batch(rows), [&](const BatchDelivery& d) {
    for (const auto row : d.rows) {
      batch_deliveries.push_back(std::to_string(d.sub->id.value()) + "@" +
                                 std::to_string(d.source->ts(row)));
    }
  });

  // Same (subscription, row) delivery set...
  std::sort(scalar_deliveries.begin(), scalar_deliveries.end());
  std::sort(batch_deliveries.begin(), batch_deliveries.end());
  EXPECT_EQ(batch_deliveries, scalar_deliveries);
  ASSERT_FALSE(batch_deliveries.empty());
  // ...and byte-identical accounting on every directed link.
  const auto st = scalar.traffic();
  const auto bt = batched.traffic();
  EXPECT_EQ(bt, st);
  ASSERT_FALSE(bt.links.empty());
  for (const auto& [link, t] : st.links) {
    const auto it = bt.links.find(link);
    ASSERT_NE(it, bt.links.end());
    EXPECT_DOUBLE_EQ(it->second.bytes, t.bytes);
    EXPECT_DOUBLE_EQ(it->second.weighted_cost, t.weighted_cost);
    EXPECT_EQ(it->second.messages_sent, t.messages_sent);
  }
}

// --- per-link accounting pinned to message_bytes --------------------------
// Each directed link must carry exactly message_bytes() of the union of the
// projections of the subscribers behind it (byte-identical doubles),
// computed here by hand from attribute names, independent of the routing
// code's column masks.

/// Appends one routed copy of `bytes` on from->to to `t`, the way the
/// broker accounts a hop.
void add_hop(TrafficStats& t, const net::LatencyMatrix& lat, NodeId from,
             NodeId to, double bytes) {
  const double weighted = bytes * lat.latency(from, to);
  t.bytes += bytes;
  t.weighted_cost += weighted;
  ++t.messages_sent;
  auto& link = t.links[{from, to}];
  link.bytes += bytes;
  link.weighted_cost += weighted;
  ++link.messages_sent;
}

Subscription projected_sub(NodeId home, std::set<std::string> projection) {
  Subscription sub;
  sub.subscriber = home;
  sub.streams = {"T"};
  sub.projection = std::move(projection);
  return sub;
}

stream::Schema labelled_schema() {
  return stream::Schema{{{"label", stream::ValueType::kString},
                         {"a", stream::ValueType::kDouble},
                         {"b", stream::ValueType::kInt},
                         {"c", stream::ValueType::kDouble}}};
}

stream::Tuple labelled(stream::Timestamp ts, std::string label) {
  return {ts,
          {stream::Value{std::move(label)}, stream::Value{1.5},
           stream::Value{std::int64_t{2}}, stream::Value{3.5}}};
}

TEST(BrokerNetworkTraffic, LinksCarryMessageBytesOfProjectionUnion) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  const auto schema = labelled_schema();
  net.advertise("T", NodeId{0}, schema);
  // Behind 0->1 and 1->2: all three; behind 2->3: the two homed at 3.
  // Disjoint projections, one naming only an attribute T lacks.
  net.subscribe(projected_sub(NodeId{3}, {"a"}));
  net.subscribe(projected_sub(NodeId{2}, {"label"}));
  net.subscribe(projected_sub(NodeId{3}, {"absent"}));

  TrafficStats expected;
  const std::set<std::string> upstream{"a", "label", "absent"};
  const std::set<std::string> last{"a", "absent"};
  for (const auto& [ts, label] :
       std::vector<std::pair<stream::Timestamp, std::string>>{
           {1, "short"}, {2, "a considerably longer label"}, {3, ""}}) {
    const auto tuple = labelled(ts, label);
    net.publish("T", tuple, [](const Subscription&, const Message&) {});
    const Message m{"T", &schema, tuple};
    add_hop(expected, f.lat, NodeId{0}, NodeId{1}, message_bytes(m, upstream));
    add_hop(expected, f.lat, NodeId{1}, NodeId{2}, message_bytes(m, upstream));
    add_hop(expected, f.lat, NodeId{2}, NodeId{3}, message_bytes(m, last));
  }
  EXPECT_EQ(net.traffic(), expected);
  // The string column's length is what varies between the rows.
  EXPECT_DOUBLE_EQ(expected.links.at({NodeId{0}, NodeId{1}}).bytes,
                   3 * (16.0 + 8.0) + 5 + 27 + 0);
  // Only the absent attribute and `a` cross 2->3: header + one double.
  EXPECT_DOUBLE_EQ(expected.links.at({NodeId{2}, NodeId{3}}).bytes,
                   3 * (16.0 + 8.0));

  // An unprojected subscriber behind the same links widens every union to
  // the whole message.
  net.subscribe(projected_sub(NodeId{3}, {}));
  const auto tuple = labelled(4, "wide");
  net.publish("T", tuple, [](const Subscription&, const Message&) {});
  const Message m{"T", &schema, tuple};
  for (const auto& [from, to] :
       {std::pair{NodeId{0}, NodeId{1}}, std::pair{NodeId{1}, NodeId{2}},
        std::pair{NodeId{2}, NodeId{3}}}) {
    add_hop(expected, f.lat, from, to, message_bytes(m, {}));
  }
  EXPECT_EQ(net.traffic(), expected);
}

TEST(BrokerNetworkTraffic, SchemaWiderThan64ColumnsUsesEveryMaskWord) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  std::vector<stream::Field> fields;
  for (int i = 0; i < 150; ++i) {
    fields.push_back({"c" + std::to_string(i), i % 7 == 3
                                                   ? stream::ValueType::kString
                                                   : stream::ValueType::kInt});
  }
  const stream::Schema schema{fields};
  net.advertise("T", NodeId{0}, schema);
  // Columns in the first, second and third mask word; c66 and c129 are
  // strings.
  net.subscribe(projected_sub(NodeId{3}, {"c1", "c66", "c129"}));
  net.subscribe(projected_sub(NodeId{2}, {"c63", "c64", "c128", "c149"}));

  stream::Tuple tuple{7, {}};
  for (int i = 0; i < 150; ++i) {
    if (i % 7 == 3) {
      tuple.values.emplace_back(std::string(static_cast<std::size_t>(i), 'x'));
    } else {
      tuple.values.emplace_back(std::int64_t{i});
    }
  }
  net.publish("T", tuple, [](const Subscription&, const Message&) {});

  const Message m{"T", &schema, tuple};
  const std::set<std::string> upstream{"c1",  "c66",  "c129", "c63",
                                       "c64", "c128", "c149"};
  TrafficStats expected;
  add_hop(expected, f.lat, NodeId{0}, NodeId{1}, message_bytes(m, upstream));
  add_hop(expected, f.lat, NodeId{1}, NodeId{2}, message_bytes(m, upstream));
  add_hop(expected, f.lat, NodeId{2}, NodeId{3},
          message_bytes(m, {"c1", "c66", "c129"}));
  EXPECT_EQ(net.traffic(), expected);
  EXPECT_DOUBLE_EQ(expected.links.at({NodeId{2}, NodeId{3}}).bytes,
                   16.0 + 8.0 + 66 + 129);
}

TEST(BrokerNetworkTraffic, ResetMidTraceRestartsEveryLinkFromZero) {
  Fixture f;
  BrokerNetwork net{f.all, f.lat};
  const auto schema = labelled_schema();
  net.advertise("T", NodeId{0}, schema);
  net.subscribe(projected_sub(NodeId{3}, {"label", "b"}));
  net.subscribe(projected_sub(NodeId{1}, {}));

  net.publish("T", labelled(1, "before the reset"),
              [](const Subscription&, const Message&) {});
  ASSERT_FALSE(net.traffic().links.empty());
  net.reset_traffic();
  EXPECT_EQ(net.traffic(), TrafficStats{});

  TrafficStats expected;
  for (const auto& [ts, label] :
       std::vector<std::pair<stream::Timestamp, std::string>>{{2, "after"},
                                                              {3, "again"}}) {
    const auto tuple = labelled(ts, label);
    net.publish("T", tuple, [](const Subscription&, const Message&) {});
    const Message m{"T", &schema, tuple};
    add_hop(expected, f.lat, NodeId{0}, NodeId{1}, message_bytes(m, {}));
    add_hop(expected, f.lat, NodeId{1}, NodeId{2},
            message_bytes(m, {"label", "b"}));
    add_hop(expected, f.lat, NodeId{2}, NodeId{3},
            message_bytes(m, {"label", "b"}));
  }
  EXPECT_EQ(net.traffic(), expected);
  EXPECT_EQ(net.traffic().links.at({NodeId{0}, NodeId{1}}).messages_sent, 2u);
}

TEST(Subscription, MessageBytes) {
  const auto schema = sim::sensor_schema();
  Message m{"S", &schema, Fixture::reading(1, 20.0)};
  EXPECT_DOUBLE_EQ(message_bytes(m, {}), 16.0 + 4 * 8.0);
  EXPECT_DOUBLE_EQ(message_bytes(m, {"snowHeight"}), 16.0 + 8.0);
}

}  // namespace
}  // namespace cosmos::pubsub
