// In-memory retention boundedness: the driver's replay data log must not
// grow with the trace, with no option set. A floor is a fleet-wide flush
// ack: once every worker has applied execute seq s, entries below s can
// never be replayed and are pruned — the driver takes one every few
// in-flight windows by itself, and with worker recovery on its checkpoints
// truncate instead. The differential half of each case proves pruning
// never changes delivered results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cosmos/cosmos.h"
#include "node/spawn.h"
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
    const std::string endpoint = "unix:/tmp/cosmos_rettest_" + tag + "_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(counter++) + ".sock";
    fleet.procs.push_back(node::spawn_noded(noded, endpoint));
    fleet.endpoints.push_back(endpoint);
  }
  return fleet;
}

TEST(FederationRetention, FloorsBoundTheDataLog) {
  const auto w = make_workload(3);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  // Recovery, journal and faults stay off: the data log is still the
  // replay source for peer-link fallback and kSeqGap repair, so the
  // driver's own floors are all that bound it. Small chunks and a
  // one-chunk window make the trace span several floor periods.
  auto fleet = spawn_fleet(2, "floor");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);
  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 4;
  opts.tick_ms = 20 * 60'000;
  opts.max_inflight_chunks = 1;
  const auto report = sys->run_federated(w.events, opts);
  for (auto& p : fleet.procs) EXPECT_EQ(p.wait(), 0);

  ASSERT_EQ(fed_log, push_log) << "retention pruning changed results";
  const auto& fed = report.federation;
  ASSERT_GT(fed.data_log_appended, 0u);
  EXPECT_LT(fed.data_log_peak_entries, fed.data_log_appended)
      << "the driver never pruned the data log";
  // One prune splits the appends in two, and the larger half is held at
  // once before it is pruned or the run ends — so a peak below half the
  // appends proves the log was pruned at least twice mid-run.
  EXPECT_LT(2 * fed.data_log_peak_entries, fed.data_log_appended);
}

TEST(FederationRetention, FloorsComposeWithWorkerRecovery) {
  // Recovery needs the data log *from the last checkpoint*, not forever:
  // with recovery on, checkpoints own the truncation (the driver takes no
  // floors of its own), the log stays bounded, and a mid-trace worker kill
  // must still replay correctly.
  const auto w = make_workload(6);
  ResultLog push_log;
  {
    auto sys = build_system(w, push_log);
    for (const auto& ev : w.events) sys->push(ev.stream, ev.tuple);
  }

  auto fleet = spawn_fleet(2, "recov");
  ResultLog fed_log;
  auto sys = build_system(w, fed_log);
  Cosmos::FederationOptions opts;
  opts.workers = fleet.endpoints;
  opts.batch_size = 16;
  opts.tick_ms = 20 * 60'000;
  opts.recovery.enabled = true;
  opts.recovery.noded_path = node::default_noded_path();
  opts.recovery.checkpoint_every_ms = 20 * 60'000;
  bool killed = false;
  opts.on_chunk = [&](std::size_t chunk) {
    if (chunk == 3 && !killed) {
      fleet.procs[1].kill();
      killed = true;
    }
  };
  const auto report = sys->run_federated(w.events, opts);

  ASSERT_TRUE(killed) << "trace too short to land the kill";
  EXPECT_EQ(report.federation.recoveries, 1u);
  ASSERT_EQ(fed_log, push_log)
      << "retention + recovery differential mismatch";
  EXPECT_LT(report.federation.data_log_peak_entries,
            report.federation.data_log_appended)
      << "checkpoints never truncated the data log";
}

}  // namespace
}  // namespace cosmos::middleware
