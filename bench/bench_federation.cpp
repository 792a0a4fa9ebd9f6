// Federation overhead: the multi-process federated mode (driver + N
// cosmos_noded workers over Unix-domain sockets) vs. the in-process
// sharded run() on the same sensor-station join workload. The federated
// path pays frame encode/decode and socket hops for every chunk, so the
// interesting numbers are end-to-end tuples/s, the federated/in-process
// ratio, and wire bytes per tuple — with the usual identity gate: every
// configuration must produce identical per-query result counts.
//
// --smoke runs a scaled-down trace (the CI gate). Absolute tuples/s are
// hardware-dependent and gate against the previous run's artifact only
// (check_bench.py --fallback); on first introduction the gate records.
// fed_tuples_per_sent_frame_2w — tuples over every frame sent on driver
// and peer links — counts frames, not time, so it is gated against the
// committed baseline (bench/baselines/BENCH_federation.json).
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cosmos/cosmos.h"
#include "node/spawn.h"
#include "sim/sensor_trace.h"

using namespace cosmos;
using namespace cosmos::bench;

namespace {

/// Windowed two-station join (the runtime-throughput bench's query shape,
/// trimmed): nothing pushes below the join, so engine work is real.
query::QuerySpec make_query(QueryId id, NodeId proxy, std::size_t stations,
                            Rng& rng) {
  const std::size_t a = rng.next_below(stations);
  std::size_t b = rng.next_below(stations);
  while (b == a) b = rng.next_below(stations);
  query::QuerySpec spec;
  spec.id = id;
  spec.proxy = proxy;
  spec.sources = {
      {sim::station_stream_name(a), "S1",
       stream::WindowSpec::range_millis(
           static_cast<std::int64_t>(120 + rng.next_below(120)) * 60'000)},
      {sim::station_stream_name(b), "S2",
       stream::WindowSpec::range_millis(120'000)}};
  spec.select = {{"S1", "snowHeight"}, {"S2", "timestamp"}};
  spec.where = stream::Predicate::conj(
      {stream::Predicate::time_band({"S2", "timestamp"}, {"S1", "timestamp"},
                                    45'000),
       stream::Predicate::cmp(stream::FieldRef{"S1", "snowHeight"},
                              stream::CmpOp::kGt,
                              stream::FieldRef{"S2", "snowHeight"})});
  return spec;
}

struct Fleet {
  std::vector<node::NodeProcess> procs;
  std::vector<std::string> endpoints;
};

Fleet spawn_fleet(std::size_t n) {
  static int counter = 0;
  Fleet fleet;
  const std::string noded = node::default_noded_path();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string endpoint = "unix:/tmp/cosmos_bench_fed_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(counter++) + ".sock";
    fleet.procs.push_back(node::spawn_noded(noded, endpoint));
    fleet.endpoints.push_back(endpoint);
  }
  return fleet;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double scale = env_scale(smoke ? 0.1 : 1.0);
  const std::uint64_t seed = env_seed(42);
  const std::size_t kNodes = 20;
  const std::size_t kStations = 12;
  const std::size_t readings =
      std::max<std::size_t>(240, static_cast<std::size_t>(1440 * scale));
  const std::size_t nq =
      std::max<std::size_t>(40, static_cast<std::size_t>(300 * scale));

  Rng rng{seed};
  const auto topo = net::make_wide_area_mesh(kNodes, 6, rng);
  std::vector<NodeId> all;
  for (std::size_t i = 0; i < kNodes; ++i) {
    all.push_back(NodeId{static_cast<NodeId::value_type>(i)});
  }
  const net::LatencyMatrix lat{topo, all};

  sim::SensorTraceParams tp;
  tp.stations = kStations;
  tp.readings_per_station = readings;
  Rng trng{seed + 1};
  const auto trace = sim::make_sensor_trace(tp, trng);
  std::vector<runtime::TraceEvent> events;
  events.reserve(trace.size());
  for (const auto& r : trace) {
    events.push_back({sim::station_stream_name(r.station), r.tuple});
  }

  Rng qrng{seed + 2};
  std::vector<query::QuerySpec> specs;
  for (std::size_t i = 0; i < nq; ++i) {
    specs.push_back(make_query(
        QueryId{static_cast<QueryId::value_type>(i)},
        all[2 + qrng.next_below(kNodes - 2)], kStations, qrng));
  }

  const auto build = [&](std::map<QueryId, std::size_t>& per_query) {
    auto sys = std::make_unique<middleware::Cosmos>(all, lat);
    for (std::size_t st = 0; st < kStations; ++st) {
      sys->register_source(sim::station_stream_name(st), sim::sensor_schema(),
                           all[st % 2]);
    }
    Rng prng{seed + 3};
    for (const auto& spec : specs) {
      sys->submit(spec, all[2 + prng.next_below(kNodes - 2)],
                  [&per_query](QueryId q, const stream::Tuple&) {
                    ++per_query[q];
                  });
    }
    return sys;
  };

  std::printf("# federation bench (smoke=%d scale=%.2f seed=%llu "
              "stations=%zu queries=%zu tuples=%zu)\n",
              smoke ? 1 : 0, scale, static_cast<unsigned long long>(seed),
              kStations, nq, events.size());
  std::printf("%-12s %9s %12s %10s %14s\n", "config", "wall-s", "tup/s",
              "results", "wire-B/tuple");

  struct Row {
    std::string name;
    double wall_s = 0.0;
    std::map<QueryId, std::size_t> per_query;
    std::size_t results = 0;
    /// Total bytes moved: driver links plus worker-to-worker peer links.
    double wire_bytes_per_tuple = 0.0;
    /// Frames sent: driver links plus worker-to-worker peer links.
    std::uint64_t frames_sent = 0;
    double e2e_p50_us = 0.0;  ///< ingest->delivery latency (run/fed modes)
    double e2e_p99_us = 0.0;
  };
  std::vector<Row> rows;

  const auto fed_report = [&](Row& row,
                              const middleware::Cosmos::RunReport& report) {
    std::uint64_t wire_bytes = report.federation.peer_bytes;
    row.frames_sent = report.federation.peer_frames;
    for (const auto& link : report.federation.links) {
      wire_bytes += link.bytes_sent + link.bytes_received;
      row.frames_sent += link.frames_sent;
    }
    row.wire_bytes_per_tuple =
        static_cast<double>(wire_bytes) / static_cast<double>(events.size());
    row.e2e_p50_us = report.e2e_percentile_us(50.0);
    row.e2e_p99_us = report.e2e_percentile_us(99.0);
  };

  const auto finish = [&](Row row) {
    for (const auto& [q, n] : row.per_query) row.results += n;
    std::printf("%-12s %9.3f %12.0f %10zu %14.1f\n", row.name.c_str(),
                row.wall_s, static_cast<double>(events.size()) / row.wall_s,
                row.results, row.wire_bytes_per_tuple);
    std::fflush(stdout);
    rows.push_back(std::move(row));
  };

  {
    Row row;
    row.name = "push";
    auto sys = build(row.per_query);
    const Stopwatch watch;
    for (const auto& ev : events) sys->push(ev.stream, ev.tuple);
    row.wall_s = watch.seconds();
    finish(std::move(row));
  }

  {
    Row row;
    row.name = "run:2-shard";
    auto sys = build(row.per_query);
    middleware::Cosmos::RunOptions opts;
    opts.shards = 2;
    opts.batch_size = 256;
    opts.tick_ms = 30 * 60'000;
    const Stopwatch watch;
    const auto report = sys->run(events, opts);
    row.wall_s = watch.seconds();
    row.e2e_p50_us = report.e2e_percentile_us(50.0);
    row.e2e_p99_us = report.e2e_percentile_us(99.0);
    finish(std::move(row));
  }

  for (const std::size_t workers : {2, 4}) {
    Row row;
    row.name = "fed:" + std::to_string(workers) + "w";
    auto fleet = spawn_fleet(workers);
    auto sys = build(row.per_query);
    middleware::Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = 256;
    opts.tick_ms = 30 * 60'000;
    opts.max_inflight_chunks = 4;
    const Stopwatch watch;
    const auto report = sys->run_federated(events, opts);
    row.wall_s = watch.seconds();
    fed_report(row, report);
    // Execute batches travel worker-to-worker; the driver ships compact
    // route decisions only.
    if (report.federation.driver_execute_bytes != 0) {
      std::printf("!! fault-free run shipped execute bytes from the driver\n");
    }
    finish(std::move(row));
    for (auto& p : fleet.procs) {
      if (p.wait() != 0) std::printf("!! worker exited non-zero\n");
    }
  }

  double journal_bytes_per_tuple = 0.0;
  {
    // Durable run journal on (default fsync-on-commit policy, periodic
    // checkpoints): the overhead row for docs/durability.md. Every routed
    // execute is journaled, so the cost scales with data volume.
    Row row;
    row.name = "fed:2w-journal";
    char jdir[] = "/tmp/cosmos_bench_journal_XXXXXX";
    if (::mkdtemp(jdir) == nullptr) {
      std::printf("!! mkdtemp failed, skipping journal config\n");
      return 1;
    }
    auto fleet = spawn_fleet(2);
    auto sys = build(row.per_query);
    middleware::Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = 256;
    opts.tick_ms = 30 * 60'000;
    opts.max_inflight_chunks = 4;
    opts.journal.dir = jdir;
    opts.journal.checkpoint_every_ms = 60 * 60'000;
    const Stopwatch watch;
    const auto report = sys->run_federated(events, opts);
    row.wall_s = watch.seconds();
    journal_bytes_per_tuple =
        static_cast<double>(report.federation.journal_bytes) /
        static_cast<double>(events.size());
    fed_report(row, report);
    std::printf("journal: %.1f journal bytes/tuple, %llu fsyncs\n",
                journal_bytes_per_tuple,
                static_cast<unsigned long long>(report.federation.journal_fsyncs));
    finish(std::move(row));
    for (auto& p : fleet.procs) {
      if (p.wait() != 0) std::printf("!! worker exited non-zero\n");
    }
    std::error_code ec;
    std::filesystem::remove_all(jdir, ec);
  }
  bool identical = true;
  for (const auto& row : rows) {
    if (row.per_query != rows[0].per_query) {
      identical = false;
      std::printf("!! per-query result mismatch: %s vs push\n",
                  row.name.c_str());
    }
  }
  std::printf("per-query result counts identical across configs: %s\n",
              identical ? "yes" : "NO");

  const double tuples = static_cast<double>(events.size());
  const Row& run2 = rows[1];
  const Row& fed2 = rows[2];
  const Row& fed4 = rows[3];
  const Row& fedj = rows[4];
  std::printf("federated 2w vs in-process 2-shard: %.2fx wall "
              "(%.1f wire bytes/tuple)\n",
              run2.wall_s / fed2.wall_s, fed2.wire_bytes_per_tuple);
  std::printf("e2e latency p50/p99: run-2shard %.0f/%.0fus, fed-2w "
              "%.0f/%.0fus\n",
              run2.e2e_p50_us, run2.e2e_p99_us, fed2.e2e_p50_us,
              fed2.e2e_p99_us);

  write_bench_json(
      "federation",
      {{"tuples", tuples},
       {"push_tuples_per_s", tuples / rows[0].wall_s},
       {"run_tuples_per_s_2shard", tuples / run2.wall_s},
       {"fed_tuples_per_s_2w", tuples / fed2.wall_s},
       {"fed_tuples_per_s_4w", tuples / fed4.wall_s},
       {"fed_vs_run_wall_ratio_2w", run2.wall_s / fed2.wall_s},
       {"wire_bytes_per_tuple_2w", fed2.wire_bytes_per_tuple},
       {"fed_tuples_per_sent_frame_2w",
        tuples / static_cast<double>(
                     std::max<std::uint64_t>(fed2.frames_sent, 1))},
       {"fed_journal_tuples_per_s_2w", tuples / fedj.wall_s},
       {"fed_journal_bytes_per_tuple_2w", journal_bytes_per_tuple},
       {"fed_journal_vs_plain_wall_ratio_2w", fed2.wall_s / fedj.wall_s},
       {"e2e_p50_us_run_2shard", run2.e2e_p50_us},
       {"e2e_p99_us_run_2shard", run2.e2e_p99_us},
       {"fed_e2e_p50_us_2w", fed2.e2e_p50_us},
       {"fed_e2e_p99_us_2w", fed2.e2e_p99_us},
       {"results_identical", identical ? 1.0 : 0.0}});
  return identical ? 0 : 1;
}
