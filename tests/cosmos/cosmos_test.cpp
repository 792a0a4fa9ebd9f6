// End-to-end middleware tests: submission, merging, p1/p2 subscription
// wiring, traffic accounting.
#include "cosmos/cosmos.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cql/parser.h"
#include "net/topology.h"
#include "sim/sensor_trace.h"

namespace cosmos::middleware {
namespace {

struct Fixture {
  net::Topology topo{5};
  std::vector<NodeId> all{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3},
                          NodeId{4}};
  net::LatencyMatrix lat;

  Fixture() {
    topo.add_edge(NodeId{0}, NodeId{1}, 10.0);
    topo.add_edge(NodeId{1}, NodeId{2}, 100.0);
    topo.add_edge(NodeId{2}, NodeId{3}, 5.0);
    topo.add_edge(NodeId{2}, NodeId{4}, 5.0);
    lat = net::LatencyMatrix{topo, all};
  }

  std::unique_ptr<Cosmos> make(bool share = true) {
    auto sys = std::make_unique<Cosmos>(all, lat, share);
    sys->register_source("Station1", sim::sensor_schema(), NodeId{0});
    sys->register_source("Station2", sim::sensor_schema(), NodeId{0});
    return sys;
  }

  void feed(Cosmos& sys, std::size_t readings, std::uint64_t seed) {
    sim::SensorTraceParams p;
    p.stations = 2;
    p.readings_per_station = readings;
    Rng rng{seed};
    for (const auto& r : sim::make_sensor_trace(p, rng)) {
      sys.push(sim::station_stream_name(r.station), r.tuple);
    }
  }

  static query::QuerySpec q3(NodeId proxy) {
    return cql::parse_query(
        "SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 "
        "WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10",
        QueryId{3}, proxy);
  }
  static query::QuerySpec q4(NodeId proxy) {
    return cql::parse_query(
        "SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp "
        "FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2 "
        "WHERE S1.snowHeight > S2.snowHeight",
        QueryId{4}, proxy);
  }
};

TEST(Cosmos, SingleQueryDeliversResults) {
  Fixture f;
  auto sys = f.make();
  std::size_t results = 0;
  sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
             [&](QueryId q, const stream::Tuple& t) {
               EXPECT_EQ(q, QueryId{3});
               EXPECT_EQ(t.values.size(), 4u);  // S2.* has 4 columns
               ++results;
             });
  f.feed(*sys, 100, 8);
  EXPECT_GT(results, 0u);
  EXPECT_GT(sys->traffic().bytes, 0.0);
}

TEST(Cosmos, MergesOverlappingQueriesOnSameHost) {
  Fixture f;
  auto sys = f.make();
  sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
             [](QueryId, const stream::Tuple&) {});
  sys->submit(Fixture::q4(NodeId{4}), NodeId{1},
             [](QueryId, const stream::Tuple&) {});
  EXPECT_EQ(sys->submitted_queries(), 2u);
  EXPECT_EQ(sys->deployed_units(), 1u);  // folded into Q5
}

TEST(Cosmos, DoesNotMergeAcrossHosts) {
  Fixture f;
  auto sys = f.make();
  sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
             [](QueryId, const stream::Tuple&) {});
  sys->submit(Fixture::q4(NodeId{4}), NodeId{2},
             [](QueryId, const stream::Tuple&) {});
  EXPECT_EQ(sys->deployed_units(), 2u);
}

TEST(Cosmos, MergedResultsMatchUnmergedResults) {
  Fixture f;
  std::size_t shared3 = 0, shared4 = 0, solo3 = 0, solo4 = 0;
  {
    auto sys = f.make(true);
    sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
               [&](QueryId, const stream::Tuple&) { ++shared3; });
    sys->submit(Fixture::q4(NodeId{4}), NodeId{1},
               [&](QueryId, const stream::Tuple&) { ++shared4; });
    ASSERT_EQ(sys->deployed_units(), 1u);
    f.feed(*sys, 120, 8);
  }
  {
    auto sys = f.make(false);
    sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
               [&](QueryId, const stream::Tuple&) { ++solo3; });
    sys->submit(Fixture::q4(NodeId{4}), NodeId{1},
               [&](QueryId, const stream::Tuple&) { ++solo4; });
    ASSERT_EQ(sys->deployed_units(), 2u);
    f.feed(*sys, 120, 8);
  }
  EXPECT_GT(solo3, 0u);
  EXPECT_EQ(shared3, solo3);
  EXPECT_EQ(shared4, solo4);
}

TEST(Cosmos, SharingReducesTraffic) {
  Fixture f;
  auto shared = f.make(true);
  auto solo = f.make(false);
  for (auto* sys : {shared.get(), solo.get()}) {
    sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
                [](QueryId, const stream::Tuple&) {});
    sys->submit(Fixture::q4(NodeId{4}), NodeId{1},
                [](QueryId, const stream::Tuple&) {});
    f.feed(*sys, 120, 8);
  }
  EXPECT_LT(shared->traffic().bytes, solo->traffic().bytes);
}

TEST(Cosmos, RejectsDuplicateIds) {
  Fixture f;
  auto sys = f.make();
  sys->submit(Fixture::q3(NodeId{3}), NodeId{1},
             [](QueryId, const stream::Tuple&) {});
  EXPECT_THROW(sys->submit(Fixture::q3(NodeId{3}), NodeId{2},
                          [](QueryId, const stream::Tuple&) {}),
               std::invalid_argument);
}

// A result callback that re-enters Cosmos (here: pushes a tuple whose
// result reaches another query, nested inside this delivery) must still
// see its own projected tuple intact when the nested delivery returns.
TEST(Cosmos, ReentrantCallbackKeepsItsOwnResultTuple) {
  Fixture f;
  auto sys = f.make();
  const auto reading = [](stream::Timestamp ts, double height) {
    return stream::Tuple{ts,
                         {stream::Value{height}, stream::Value{-3.0},
                          stream::Value{std::int64_t{7}}, stream::Value{ts}}};
  };
  std::vector<stream::Tuple> nested;
  sys->submit(cql::parse_query("SELECT S2.* FROM Station2 [Now] S2",
                               QueryId{2}, NodeId{4}),
              NodeId{2}, [&](QueryId, const stream::Tuple& t) {
                nested.push_back(t);
              });
  std::size_t outer = 0;
  sys->submit(cql::parse_query("SELECT S1.snowHeight FROM Station1 [Now] S1 "
                               "WHERE S1.snowHeight >= 0",
                               QueryId{1}, NodeId{3}),
              NodeId{1}, [&](QueryId q, const stream::Tuple& t) {
                EXPECT_EQ(q, QueryId{1});
                const stream::Tuple before = t;
                sys->push("Station2",
                          reading(t.ts, 100.0 + static_cast<double>(t.ts)));
                ASSERT_EQ(t.values.size(), before.values.size());
                EXPECT_EQ(t.ts, before.ts);
                for (std::size_t i = 0; i < t.values.size(); ++i) {
                  EXPECT_EQ(t.values[i], before.values[i]);
                }
                ++outer;
              });
  for (stream::Timestamp ts = 1; ts <= 3; ++ts) {
    sys->push("Station1", reading(ts, static_cast<double>(ts)));
  }
  EXPECT_EQ(outer, 3u);
  ASSERT_EQ(nested.size(), 3u);
  EXPECT_EQ(nested[2].values.size(), 4u);
  EXPECT_EQ(nested[2].values[0], stream::Value{103.0});
}

}  // namespace
}  // namespace cosmos::middleware
