// Multi-process federation differential: a driver plus N real cosmos_noded
// worker processes over Unix-domain sockets must deliver byte-identical
// per-query result sequences to the synchronous push() mode — across
// worker counts, in-flight windows, worker shard counts, and scripted live
// migrations (which must ship real serialized state over the wire). Plus
// the fault path: a worker killed mid-run surfaces as a clean throw, never
// a hang.
//
// Workloads are the same seeded random ones the in-process differential
// uses (tests/support/random_workload.h), so any divergence here is
// attributable to the wire path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "cosmos/cosmos.h"
#include "cql/parser.h"
#include "node/spawn.h"
#include "sim/sensor_trace.h"
#include "support/random_workload.h"

namespace cosmos::middleware {
namespace {

using testsupport::ResultLog;
using testsupport::build_system;
using testsupport::make_workload;

struct Fleet {
  std::vector<node::NodeProcess> procs;
  std::vector<std::string> endpoints;
};

Fleet spawn_fleet(std::size_t n, const std::string& tag) {
  static int counter = 0;
  Fleet fleet;
  const std::string noded = node::default_noded_path();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string endpoint = "unix:/tmp/cosmos_fedtest_" + tag + "_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(counter++) + ".sock";
    fleet.procs.push_back(node::spawn_noded(noded, endpoint));
    fleet.endpoints.push_back(endpoint);
  }
  return fleet;
}

TEST(Federation, MatchesPushAcrossWorkerCountsAndWindows) {
  std::uint64_t only_seed = 0;
  if (const char* s = std::getenv("COSMOS_DIFF_SEED")) {
    only_seed = std::strtoull(s, nullptr, 10);
  }

  std::size_t total_results = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    if (only_seed != 0 && seed != only_seed) continue;
    const auto w = make_workload(seed);

    ResultLog push_log;
    {
      auto sys = build_system(w, push_log);
      for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
    }
    for (const auto& [q, lines] : push_log) total_results += lines.size();

    struct Config {
      std::size_t workers;
      std::size_t inflight;
      std::size_t shards;
      std::size_t batch;
    };
    for (const Config cfg : {Config{2, 1, 1, 64}, Config{2, 4, 2, 16},
                             Config{4, 4, 1, 64}}) {
      auto fleet = spawn_fleet(cfg.workers, "diff");
      ResultLog fed_log;
      auto sys = build_system(w, fed_log);
      Cosmos::FederationOptions opts;
      opts.workers = fleet.endpoints;
      opts.batch_size = cfg.batch;
      opts.max_inflight_chunks = cfg.inflight;
      opts.worker_shards = cfg.shards;
      opts.queue_capacity = 8;  // small: exercise channel backpressure
      opts.tick_ms = 20 * 60'000;
      const auto report = sys->run_federated(w.events, opts);

      EXPECT_EQ(report.tuples, w.events.size());
      EXPECT_EQ(report.federation.workers, cfg.workers);
      ASSERT_EQ(report.federation.links.size(), cfg.workers);
      for (const auto& link : report.federation.links) {
        EXPECT_GT(link.frames_sent, 0u);
        EXPECT_GT(link.bytes_sent, link.frames_sent * 12);
      }
      ASSERT_EQ(fed_log, push_log)
          << "federation mismatch: seed=" << seed
          << " workers=" << cfg.workers << " inflight=" << cfg.inflight
          << " shards=" << cfg.shards << " batch=" << cfg.batch
          << "  (replay: COSMOS_DIFF_SEED=" << seed << ")";

      for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
    }
  }
  EXPECT_GT(total_results, 0u);
}

TEST(Federation, TrafficAccountingMatchesInProcess) {
  const auto w = make_workload(3);
  ResultLog in_log;
  double in_bytes = 0.0;
  {
    auto sys = build_system(w, in_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
    in_bytes = sys->traffic().bytes;
  }
  ASSERT_GT(in_bytes, 0.0);

  auto fleet = spawn_fleet(2, "traffic");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);
  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  const auto report = sys->run_federated(w.events, opts);
  // Worker p1 shares + driver p2 share must reproduce the in-process
  // broker's totals exactly (same matching, same accounting code).
  EXPECT_DOUBLE_EQ(report.federation.matched_traffic.bytes, in_bytes);
}

TEST(Federation, ScriptedMigrationShipsStateAndPreservesResults) {
  // Seeds chosen so the workload has windowed joins with live state; the
  // migration moves every deployed engine in turn mid-trace.
  for (const std::uint64_t seed : {2, 7}) {
    const auto w = make_workload(seed);

    ResultLog push_log;
    {
      auto sys = build_system(w, push_log);
      for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
    }

    auto fleet = spawn_fleet(2, "mig");
    ResultLog fed_log;
    auto sys = build_system(w, fed_log);

    // Schedule a mid-trace migration of every unit host to the opposite
    // worker. Host nodes come from the workload's query placements.
    const stream::Timestamp mid =
        w.events[w.events.size() / 2].tuple.ts;
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = 32;
    std::set<NodeId::value_type> hosts;
    for (const auto& [text, host, proxy] : w.queries) {
      hosts.insert(host.value());
    }
    for (const auto hv : hosts) {
      Cosmos::FederationOptions::Migration m;
      m.at_ms = mid;
      m.engine = NodeId{hv};
      m.to_worker = (hv % 2) + 1;  // flip to the other worker
      opts.migrations.push_back(m);
    }
    const auto report = sys->run_federated(w.events, opts);

    EXPECT_GT(report.federation.migrations, 0u);
    // The tentpole guarantee: migrated state is real serialized bytes on
    // the wire, not a modeled estimate.
    EXPECT_GT(report.federation.state_bytes_migrated, 0u);
    ASSERT_EQ(fed_log, push_log)
        << "migration differential mismatch: seed=" << seed;
    for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
  }
}

TEST(Federation, TracingAndStatsSamplingPreserveResultsAndMergeTraces) {
  // Observability across the wire must be a pure observer: with span
  // tracing and periodic worker stats sampling on, the federated result
  // log stays byte-identical to push(), worker registry samples arrive,
  // and the merged Chrome trace holds both driver (pid 0) and worker
  // (pid >= 1) spans.
  const auto w = make_workload(5);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  const std::string trace_path = ::testing::TempDir() + "fed_trace_" +
                                 std::to_string(::getpid()) + ".json";
  auto fleet = spawn_fleet(2, "trace");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);
  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 32;
  opts.tick_ms = 20 * 60'000;
  opts.trace_path = trace_path;
  opts.stats_sample_every_ms = 60 * 60'000;
  const auto report = sys->run_federated(w.events, opts);

  ASSERT_EQ(fed_log, push_log) << "tracing perturbed the result stream";
  EXPECT_GT(report.e2e_latency.count, 0u);

  // Every worker shipped at least its final flush-time sample, and the
  // samples carry the node-side shard counters.
  ASSERT_FALSE(report.federation.samples.empty());
  std::set<std::size_t> sampled_workers;
  std::uint64_t sampled_tuples = 0;
  for (const auto& s : report.federation.samples) {
    sampled_workers.insert(s.worker);
    if (const auto* tuples = s.metrics.counter("shard.tuples")) {
      sampled_tuples += *tuples;
    }
  }
  EXPECT_EQ(sampled_workers.size(), 2u);
  EXPECT_GT(sampled_tuples, 0u);

  for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);

  std::ifstream in{trace_path};
  ASSERT_TRUE(in.good()) << trace_path;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  std::remove(trace_path.c_str());
  // Driver pipeline spans and worker-side shard spans share the file,
  // re-homed to per-process lanes.
  for (const char* needle :
       {"\"match_wait\"", "\"deliver\"", "\"task\"", "\"pid\":1",
        "\"pid\":2", "\"worker 0\"", "\"worker 1\"", "\"ph\":\"M\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(Federation, DeadWorkerMidRunThrowsCleanly) {
  const auto w = make_workload(4);
  auto fleet = spawn_fleet(2, "dead");
  ResultLog log;
  auto sys = build_system(w, log);
  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 8;

  // Kill worker 0 after the driver has connected but while the trace is
  // replaying: every wait in the protocol is fault-aware, so the run must
  // throw (mentioning the worker), not hang.
  std::thread killer{[&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    fleet.procs[0].kill();
  }};
  try {
    (void)sys->run_federated(w.events, opts);
    // A tiny trace can legitimately finish before the kill lands.
  } catch (const std::exception& e) {
    // Either the reader reported the dead peer ("worker N (...)") or a
    // send into the dead channel failed — both are clean throws.
    EXPECT_FALSE(std::string{e.what()}.empty());
  }
  killer.join();
}

/// A 12-station sensor trace — readings interleave across stations, so a
/// chunk cuts into about one one-row run per tuple — with sources spread
/// over four publisher nodes (both workers own streams) and a seeded mix
/// of selections and joins hosted across the non-source nodes.
struct InterleavedWorkload {
  testsupport::RandomWorkload base = make_workload(2);
  std::vector<runtime::TraceEvent> events;
  std::vector<std::tuple<std::string, NodeId, NodeId>> queries;

  InterleavedWorkload() {
    sim::SensorTraceParams p;
    p.stations = 12;
    p.readings_per_station = 40;
    Rng rng{2026};
    for (const auto& r : sim::make_sensor_trace(p, rng)) {
      events.push_back({testsupport::station(r.station), r.tuple});
    }
    // Hosts and proxies cycle through the non-source nodes (2..n-1).
    const auto n = static_cast<NodeId::value_type>(base.nodes.size());
    const auto node = [n](NodeId::value_type k) {
      return NodeId{static_cast<NodeId::value_type>(2 + k % (n - 2))};
    };
    for (NodeId::value_type q = 0; q < 10; ++q) {
      queries.emplace_back(testsupport::random_query_text(rng, 12), node(q),
                           node(q + 1));
    }
  }

  std::unique_ptr<Cosmos> build(ResultLog& log) const {
    auto sys = std::make_unique<Cosmos>(base.nodes, base.lat);
    for (std::size_t st = 0; st < 12; ++st) {
      sys->register_source(testsupport::station(st), sim::sensor_schema(),
                           base.nodes[st % 4]);
    }
    QueryId::value_type qid = 0;
    for (const auto& [text, host, proxy] : queries) {
      sys->submit(cql::parse_query(text, QueryId{qid++}, proxy), host,
                  [&log](QueryId q, const stream::Tuple& t) {
                    std::string line = std::to_string(t.ts);
                    for (const auto& v : t.values) line += "|" + v.to_string();
                    log[q].push_back(std::move(line));
                  });
    }
    return sys;
  }
};

TEST(Federation, DataFramesAreChunkGranular) {
  // Frames per chunk must not scale with the runs a chunk holds: the driver
  // sends each worker at most one match request, one route decision and
  // one watermark per chunk (plus the occasional fleet-wide floor flush),
  // and each owner ships at most one execute frame per other worker.
  const InterleavedWorkload w;
  ResultLog push_log;
  {
    auto sys = w.build(push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }
  std::size_t total_results = 0;
  for (const auto& [q, lines] : push_log) total_results += lines.size();
  ASSERT_GT(total_results, 0u);

  constexpr std::size_t kWorkers = 2;
  struct Frames {
    std::uint64_t driver = 0;
    std::uint64_t peer = 0;
    std::size_t chunks = 0;
  };
  const auto run = [&](std::size_t batch, bool with_data) {
    auto fleet = spawn_fleet(kWorkers, "gran");
    ResultLog fed_log;
    auto sys = w.build(fed_log);
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = batch;
    opts.tick_ms = 20 * 60'000;
    opts.liveness.heartbeat_every_ms = 0;  // count data frames only
    const auto report = sys->run_federated(
        with_data ? w.events : std::vector<runtime::TraceEvent>{}, opts);
    if (with_data) EXPECT_EQ(fed_log, push_log) << "batch=" << batch;
    for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
    Frames f;
    for (const auto& link : report.federation.links) {
      f.driver += link.frames_sent;
    }
    f.peer = report.federation.peer_frames;
    f.chunks = report.chunks;
    EXPECT_EQ(report.federation.driver_execute_bytes, 0u);
    return f;
  };
  // Registration, barrier and shutdown frames alone: a run with no data.
  const Frames control = run(16, false);
  ASSERT_EQ(control.chunks, 0u);

  for (const std::size_t batch : {16, 128}) {
    const Frames f = run(batch, true);
    ASSERT_GT(f.chunks, 0u);
    ASSERT_GE(f.driver, control.driver);
    // At most one match request, one route decision and one watermark per
    // worker per chunk, plus the floor flushes: bounded by 4 per worker,
    // however many runs the chunk was cut into.
    const double per_chunk = static_cast<double>(f.driver - control.driver) /
                             static_cast<double>(f.chunks);
    EXPECT_LE(per_chunk, 4.0 * kWorkers)
        << "batch=" << batch << ": driver frames grow with runs per chunk";
    // Each (owner, other worker) pair carries at most one execute frame per
    // chunk, plus one kPeerHello per dialed link.
    EXPECT_LE(f.peer, f.chunks * kWorkers * (kWorkers - 1) +
                          kWorkers * (kWorkers - 1))
        << "batch=" << batch << ", " << f.chunks << " chunks";
    EXPECT_GT(f.peer, 0u);
  }
}

TEST(Federation, RegistrationFramesDoNotGrowWithMerges) {
  // Every merge into a unit supersedes its result stream, and the broker
  // keeps the superseded partition. Workers only match source streams, so
  // the driver registers exactly those: a run's registration traffic must
  // not grow with the number of merges behind its units.
  const auto w = make_workload(1);
  const auto frames_sent = [&](int queries) {
    auto fleet = spawn_fleet(2, "merge");
    ResultLog log;
    Cosmos sys{w.nodes, w.lat};
    for (std::size_t st = 0; st < w.stations; ++st) {
      sys.register_source(testsupport::station(st), sim::sensor_schema(),
                          w.nodes[st % 2]);
    }
    for (int q = 0; q < queries; ++q) {
      const std::string text = "SELECT S.snowHeight, S.timestamp FROM " +
                               testsupport::station(0) +
                               " [Now] S WHERE S.snowHeight > " +
                               std::to_string(10 + q);
      const QueryId id{static_cast<QueryId::value_type>(q)};
      sys.submit(cql::parse_query(text, id, w.nodes[3]), w.nodes[2],
                 [](QueryId, const stream::Tuple&) {});
    }
    EXPECT_EQ(sys.deployed_units(), 1u) << queries << " queries";
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.liveness.heartbeat_every_ms = 0;
    const auto report = sys.run_federated(w.events, opts);
    for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);
    std::uint64_t frames = 0;
    for (const auto& link : report.federation.links) {
      frames += link.frames_sent;
    }
    return frames;
  };
  EXPECT_EQ(frames_sent(8), frames_sent(1));
}

TEST(Federation, RefusesEmptyWorkerList) {
  const auto w = make_workload(1);
  ResultLog log;
  auto sys = build_system(w, log);
  EXPECT_THROW((void)sys->run_federated(w.events, {}), std::invalid_argument);
}

}  // namespace
}  // namespace cosmos::middleware
