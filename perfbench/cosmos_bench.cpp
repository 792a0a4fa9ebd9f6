// The COSMOS benchmark driver: one workload, one seed, every ingest mode.
//
//   cosmos_bench --workload band-join|fanout|churn --seed N --seconds S
//                --trace 0|1 [--tmp DIR] [--trace-out DIR]
//
// Each workload is a closed-loop trace replay: the calling thread feeds the
// whole generated trace as fast as the system accepts it (bounded queues
// apply backpressure), so throughput is work completed per second at the
// stated input size. One pass replays the trace through four modes, each
// on a freshly built Cosmos instance:
//   push     single-threaded baseline and result reference
//   run      in-process runtime, 2 shards
//   fed      2 cosmos_noded workers over Unix sockets, star routing
//   durable  fed plus the run journal (default fsync policy)
// After a warm-up over a prefix of the trace, passes repeat until
// --seconds is used up; every timing is a median over passes.
//
// Timings leave out what the shared host takes away. Work on the calling
// thread that never blocks (push replays, set-up, submit calls) is timed
// in thread CPU time and multiplied by a fixed memory-and-ALU kernel's
// nominal time over its time on the same thread, which follows the core's
// speed. Work whose threads and processes wait on each other (run, fed,
// durable) is timed in wall time and multiplied by the share of its
// vCPUs' runnable time that the hypervisor did not steal, read from
// /proc/stat in the background. The raw figures go to stderr.
//
// Results are checked per (query, mode): every delivered tuple is folded
// into an order-sensitive digest. Selection workloads are also checked
// against an oracle that evaluates each query's predicate on the trace
// directly, from the query's submit point on, independent of the parser,
// planner, broker and operators.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced passes, times the benchmark's own calls into single modules
// and writes one merged Chrome trace per traced mode; trace_reduce.py
// turns those into per-module self times (run.py merges both).
//
// The last stdout line is one JSON object; lines starting with '#' are the
// provenance header.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "cosmos/cosmos.h"
#include "cql/parser.h"
#include "net/latency_matrix.h"
#include "net/topology.h"
#include "node/spawn.h"
#include "obs/trace.h"
#include "runtime/driver.h"
#include "sim/sensor_trace.h"
#include "wire/codec.h"

#ifndef COSMOS_BENCH_BUILD_TYPE
#define COSMOS_BENCH_BUILD_TYPE "unknown"
#endif

using namespace cosmos;
using middleware::Cosmos;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Fixed deployment and mode settings. The host network is part of the
// system under test, not of the workload: it is built from a constant seed
// so that --seed varies only the trace and the query population.

constexpr std::size_t kNodes = 20;       ///< participants (2 publishers)
constexpr std::size_t kFirstHost = 2;    ///< processors are nodes 2..19
constexpr std::size_t kStations = 12;
constexpr std::uint64_t kDeploymentSeed = 7;
constexpr std::size_t kShards = 2;       ///< run mode
constexpr std::size_t kWorkers = 2;      ///< fed / durable modes
constexpr std::size_t kBatch = 256;
constexpr stream::Timestamp kTickMs = 30 * 60'000;
constexpr std::size_t kInflight = 4;
constexpr stream::Timestamp kCheckpointMs = 30 * 60'000;
constexpr stream::Timestamp kSampleMs = 10 * 60'000;  ///< traced fed passes
/// Time each mode replays per pass at least: push and run are the short
/// ones, so they replay until their medians rest on many windows.
constexpr double kMinModeSeconds[] = {1.0, 1.0, 0.0, 0.0};
constexpr std::size_t kPushProbeEvery = 128;   ///< tuples per inline probe
constexpr std::size_t kSubmitProbeEvery = 64;  ///< submits per inline probe

NodeId node(std::size_t i) {
  return NodeId{static_cast<NodeId::value_type>(i)};
}

double cpu_seconds(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

/// CPU time of the calling thread. Work that runs on the calling thread
/// and never blocks (push, submit) is timed with it: on a free core it
/// equals the wall time, and it leaves out the time the hypervisor gave
/// the vCPU to another guest or the scheduler gave the core to another
/// thread.
double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Host speed.

/// The probe kernel, in two parts shaped like the system's hot paths:
/// three filtering scans over 1 MiB of fixed 32-byte rows (a value
/// comparison, a time-band test and a key test per row, as in window scans
/// and predicate checks), then a chain of dependent reads through an 8 MiB
/// random cycle (as in walking heap-allocated tuples and subscriptions),
/// which the last-level cache and memory path decide. Returns the thread
/// CPU seconds it took, so that a slower core and a contended cache show,
/// as they do in the measured work's CPU time. The kernel shares no code
/// with the system under test, so a change to the system cannot move it;
/// a change in core speed moves both.
double probe_kernel() {
  struct Row {
    double value;
    std::int64_t ts;
    double other;
    std::int64_t key;
  };
  thread_local const std::vector<Row> rows = [] {
    std::vector<Row> r(std::size_t{1} << 15);
    for (std::size_t i = 0; i < r.size(); ++i) {
      const auto n = static_cast<std::int64_t>(i);
      r[i] = {static_cast<double>(n % 97), n * 60'000,
              static_cast<double>(n % 13), n % 12};
    }
    return r;
  }();
  // One cycle through every slot (Sattolo's shuffle, fixed seed).
  thread_local const std::vector<std::uint32_t> cycle = [] {
    std::vector<std::uint32_t> c(std::size_t{1} << 21);
    for (std::size_t i = 0; i < c.size(); ++i) c[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    for (std::size_t i = c.size() - 1; i > 0; --i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(c[i], c[(x >> 33) % i]);
    }
    return c;
  }();
  thread_local std::uint64_t sink = 0;
  thread_local std::uint32_t at = 0;
  const double t0 = thread_cpu_seconds();
  std::uint64_t hits = 0;
  for (std::int64_t k = 0; k < 3; ++k) {
    const double floor = 40.0 + static_cast<double>(k);
    const std::int64_t t = 1'000'000 + k * 7;
    for (const auto& r : rows) {
      if (r.value > floor && std::llabs(r.ts - t) <= 4'500'000 && r.key != 3) {
        ++hits;
      }
    }
  }
  for (int i = 0; i < 800; ++i) at = cycle[at];
  sink += hits + at;
  return thread_cpu_seconds() - t0;
}

/// Kernel time at the reference speed (close to this host's usual one).
constexpr double kNominalKernelS = 250e-6;

/// One speed sample: the kernel runs twice and only the second run is
/// timed, so that what the measured work left in the caches cannot make
/// the sample faster or slower.
double probe_sample() {
  (void)probe_kernel();
  return probe_kernel();
}

/// Samples the host in the background every kPeriod, for work spread over
/// several threads or processes (run, fed, durable):
/// - the guest's CPU counters in /proc/stat. On a shared host the
///   hypervisor gives part of the guest's CPU time to other guests
///   (steal) in spells of seconds to minutes; a replay that overlaps one
///   runs up to 3x slower while no thread of it does more work.
/// - the probe kernel on its own thread, wherever the scheduler puts it,
///   for the core speed that the work's CPU time moves with.
/// METRICS.md has the numbers.
class HostProbe {
 public:
  /// A window shorter than this is widened around its middle, so that
  /// every factor rests on several samples.
  static constexpr double kMinWindowS = 0.5;

  HostProbe() : thread_([this] { loop(); }) {}
  ~HostProbe() {
    stop_.store(true);
    thread_.join();
  }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// The factor that rescales a wall time measured over [a, b] to a host
  /// that steals nothing: the share of the vCPUs' runnable time (busy plus
  /// stolen ticks) that was not stolen. Call it, and core_factor, once the
  /// window is over by kMinWindowS / 2.
  [[nodiscard]] double unstolen_share(TimePoint a, TimePoint b) const {
    widen(a, b);
    std::lock_guard lock{mu_};
    if (samples_.empty()) return 1.0;
    // From the last sample at or before `a` to the first at or after `b`.
    const Sample* lo = &samples_.front();
    const Sample* hi = &samples_.back();
    for (const auto& s : samples_) {
      if (s.at <= a) lo = &s;
      if (s.at >= b) {
        hi = &s;
        break;
      }
    }
    return 1.0 - stolen(*lo, *hi, false);
  }

  /// The factor that rescales a CPU time measured over [a, b] to the
  /// reference core speed: the kernel's nominal time over its mean time
  /// within [a, b].
  [[nodiscard]] double core_factor(TimePoint a, TimePoint b) const {
    widen(a, b);
    std::lock_guard lock{mu_};
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& s : samples_) {
      if (s.at >= a && s.at <= b) {
        sum += s.kernel_s;
        ++n;
      }
    }
    return n == 0 ? 1.0 : kNominalKernelS * static_cast<double>(n) / sum;
  }

  /// The share of the guest's whole CPU time stolen over the run so far,
  /// and the kernel's mean time (provenance).
  [[nodiscard]] double run_steal_share() const {
    std::lock_guard lock{mu_};
    if (samples_.size() < 2) return 0.0;
    return stolen(samples_.front(), samples_.back(), true);
  }
  [[nodiscard]] double mean_kernel_s() const {
    std::lock_guard lock{mu_};
    double sum = 0.0;
    for (const auto& s : samples_) sum += s.kernel_s;
    return samples_.empty() ? 0.0 : sum / static_cast<double>(samples_.size());
  }

 private:
  static constexpr auto kPeriod = std::chrono::milliseconds{20};

  struct Sample {
    TimePoint at;
    double kernel_s;  ///< probe kernel, thread CPU time
    double steal;     ///< cumulative /proc/stat ticks of all CPUs
    double busy;      ///< user, nice, system, irq and softirq
    double idle;      ///< idle and iowait
  };

  static void widen(TimePoint& a, TimePoint& b) {
    const auto half = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kMinWindowS / 2));
    if (b - a < 2 * half) {
      const TimePoint mid = a + (b - a) / 2;
      a = mid - half;
      b = mid + half;
    }
  }

  /// Stolen ticks between two samples over busy plus stolen ticks, with
  /// idle ticks added to the whole when `with_idle`.
  static double stolen(const Sample& lo, const Sample& hi, bool with_idle) {
    const double steal = hi.steal - lo.steal;
    const double all =
        steal + hi.busy - lo.busy + (with_idle ? hi.idle - lo.idle : 0.0);
    return all > 0 ? steal / all : 0.0;
  }

  /// The CPU counters now (zeros when /proc/stat is unreadable).
  static Sample read_counters() {
    unsigned long long v[8] = {};
    if (FILE* f = std::fopen("/proc/stat", "r")) {
      if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
        std::fill(std::begin(v), std::end(v), 0ull);
      }
      std::fclose(f);
    }
    const auto sum = [&](std::initializer_list<int> i) {
      double total = 0.0;
      for (const int k : i) total += static_cast<double>(v[k]);
      return total;
    };
    return {Clock::now(), 0.0, sum({7}), sum({0, 1, 2, 5, 6}), sum({3, 4})};
  }

  void loop() {
    while (!stop_.load()) {
      Sample s = read_counters();
      s.kernel_s = probe_sample();
      {
        std::lock_guard lock{mu_};
        samples_.push_back(s);
      }
      std::this_thread::sleep_for(kPeriod);
    }
  }

  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The probe kernel run on the measuring thread itself, between units of
/// single-threaded work (push replays, set-up): it samples the very core
/// the work runs on, at the moments it runs.
class InlineProbe {
 public:
  explicit InlineProbe(std::size_t every) : every_{every} {}

  /// Counts one unit of work; every `every` units runs the kernel.
  void tick() {
    if (++n_ % every_ != 0) return;
    const double t0 = thread_cpu_seconds();
    kernel_s_ += probe_sample();
    ++runs_;
    spent_s_ += thread_cpu_seconds() - t0;
  }
  /// CPU seconds spent in the kernel, to leave out of the work's time.
  [[nodiscard]] double spent_s() const { return spent_s_; }
  /// The factor that rescales the work's time to the reference speed
  /// (0 when the kernel never ran).
  [[nodiscard]] double factor() const {
    return runs_ == 0 ? 0.0 : kNominalKernelS * static_cast<double>(runs_) / kernel_s_;
  }

 private:
  std::size_t every_;
  std::size_t n_ = 0;
  std::size_t runs_ = 0;
  double kernel_s_ = 0.0;  ///< timed kernel runs
  double spent_s_ = 0.0;   ///< every kernel run, warm-ups included
};

/// A value measured over [a, b]: seconds or a rate derived from them.
struct Timed {
  TimePoint a;
  TimePoint b;
  double v = 0.0;
  double f = 0.0;  ///< InlineProbe factor; 0: the HostProbe's over [a, b]
};

/// How a sample without an inline factor is rescaled: a wall time by the
/// unstolen share of its window, a CPU time by the core speed over it.
enum class Measured { kWall, kCpu };

/// Median of `samples`, each rescaled to the reference host: durations
/// times the factor (`per_second` false), rates divided by it.
double scaled_median(const HostProbe& probe, const std::vector<Timed>& samples,
                     bool per_second, Measured how) {
  std::vector<double> v;
  for (const auto& s : samples) {
    double f = s.f;
    if (f <= 0) {
      f = how == Measured::kWall ? probe.unstolen_share(s.a, s.b)
                                 : probe.core_factor(s.a, s.b);
    }
    v.push_back(per_second ? s.v / f : s.v * f);
  }
  return median(v);
}

double raw_median(const std::vector<Timed>& samples) {
  std::vector<double> v;
  for (const auto& s : samples) v.push_back(s.v);
  return median(v);
}

// ---------------------------------------------------------------------------
// Result digests.

/// Order-sensitive fold of one query's delivered tuples.
struct Digest {
  std::uint64_t h = 0x84222325cbf29ce4ull;
  std::uint64_t n = 0;

  void mix(std::uint64_t x) {
    h = (h ^ x) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  }
  void add(const stream::Tuple& t) {
    ++n;
    mix(static_cast<std::uint64_t>(t.ts));
    mix(t.values.size());
    for (const auto& v : t.values) {
      switch (v.type()) {
        case stream::ValueType::kInt:
          mix(1);
          mix(static_cast<std::uint64_t>(v.as_int()));
          break;
        case stream::ValueType::kDouble: {
          const double d = v.as_double();
          std::uint64_t bits = 0;
          std::memcpy(&bits, &d, sizeof bits);
          mix(2);
          mix(bits);
          break;
        }
        case stream::ValueType::kString:
          mix(3);
          mix(std::hash<std::string>{}(v.as_string()));
          break;
      }
    }
  }
  friend bool operator==(const Digest&, const Digest&) = default;
};

// ---------------------------------------------------------------------------
// Workloads.

/// One range conjunct of a selection query: `S.<field> > c` or `< c`.
struct Cond {
  std::size_t field = 0;  ///< index into sim::sensor_schema()
  bool greater = true;
  double c = 0.0;
};

struct BenchQuery {
  query::QuerySpec spec;  ///< join queries; selections are parsed at submit
  NodeId host;
  std::string text;  ///< CQL text (selection queries only)
  /// Selection queries: station and conjuncts, for the oracle.
  std::size_t station = 0;
  std::vector<Cond> conds;
  /// Index of the trace event before which push() submits this query
  /// (0: submitted during set-up).
  std::size_t arrival = 0;
};

struct Workload {
  std::string name;
  std::vector<runtime::TraceEvent> events;
  /// Query ids are indices; queries [0, initial) are submitted during
  /// set-up and the rest arrive online, in id order.
  std::vector<BenchQuery> queries;
  std::size_t initial = 0;
  /// End indices of the segments run/fed/durable replay, one call each;
  /// queries arriving within a segment are submitted after it.
  std::vector<std::size_t> phase_ends;
  bool selection = false;  ///< oracle-checkable selection queries
  /// Trace prefix the traced pass replays: short enough that no thread's
  /// span ring (8192 events, drained once per run) overflows.
  std::size_t traced_events = 0;

  /// Events of phase `p`.
  [[nodiscard]] std::vector<runtime::TraceEvent> phase(std::size_t p) const {
    const std::size_t lo = p == 0 ? 0 : phase_ends[p - 1];
    return {events.begin() + static_cast<std::ptrdiff_t>(lo),
            events.begin() + static_cast<std::ptrdiff_t>(phase_ends[p])};
  }
  /// Where each query starts seeing the trace in push (`phased` false)
  /// or in the segment-wise modes.
  [[nodiscard]] std::vector<std::size_t> starts(bool phased) const {
    std::vector<std::size_t> s;
    for (const auto& q : queries) {
      if (!phased || q.arrival == 0) {
        s.push_back(q.arrival);
        continue;
      }
      s.push_back(*std::lower_bound(phase_ends.begin(), phase_ends.end(),
                                    q.arrival));
    }
    return s;
  }
};

std::vector<runtime::TraceEvent> sensor_events(std::size_t readings,
                                               std::uint64_t seed) {
  sim::SensorTraceParams tp;
  tp.stations = kStations;
  tp.readings_per_station = readings;
  Rng rng{seed};
  std::vector<runtime::TraceEvent> events;
  for (auto& r : sim::make_sensor_trace(tp, rng)) {
    events.push_back({sim::station_stream_name(r.station), std::move(r.tuple)});
  }
  return events;
}

// band-join exists because nothing pushes below a non-equi two-station
// join, so WindowJoinOp::probe does most of the work while broker matching
// and result delivery stay light: an operator or probe change should show
// here and a broker or delivery change should not.
Workload make_band_join(std::uint64_t seed) {
  constexpr std::size_t kReadings = 360;
  constexpr std::size_t kQueries = 240;
  Workload w;
  w.name = "band-join";
  w.events = sensor_events(kReadings, seed);
  w.phase_ends = {w.events.size()};
  w.traced_events = 720;
  // Stratified rather than i.i.d.: every station leads as many queries,
  // every host runs as many, and window lengths cover 120..239 min evenly,
  // so the seed changes which pairs and windows meet, not how much work
  // there is.
  Rng rng{seed + 2};
  std::vector<std::size_t> windows_min(kQueries);
  std::vector<std::size_t> hosts(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    windows_min[i] = 120 + i * 120 / kQueries;
    hosts[i] = kFirstHost + i % (kNodes - kFirstHost);
  }
  rng.shuffle(windows_min);
  rng.shuffle(hosts);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const std::size_t a = i % kStations;
    const std::size_t b = (a + 1 + rng.next_below(kStations - 1)) % kStations;
    BenchQuery q;
    q.host = node(hosts[i]);
    auto& spec = q.spec;
    spec.id = QueryId{static_cast<QueryId::value_type>(i)};
    spec.proxy = q.host;
    spec.sources = {
        {sim::station_stream_name(a), "S1",
         stream::WindowSpec::range_millis(
             static_cast<std::int64_t>(windows_min[i]) * 60'000)},
        {sim::station_stream_name(b), "S2",
         stream::WindowSpec::range_millis(120'000)}};
    spec.select = {{"S1", "snowHeight"}, {"S2", "timestamp"}};
    spec.where = stream::Predicate::conj(
        {stream::Predicate::time_band({"S2", "timestamp"},
                                      {"S1", "timestamp"}, 45'000),
         stream::Predicate::cmp(stream::FieldRef{"S1", "snowHeight"},
                                stream::CmpOp::kGt,
                                stream::FieldRef{"S2", "snowHeight"})});
    w.queries.push_back(std::move(q));
  }
  w.initial = w.queries.size();
  return w;
}

/// `n` ranks in Zipf proportions, in shuffled order: the skew itself is
/// fixed, the seed only decides which query gets which rank.
std::vector<std::size_t> zipf_ranks(std::size_t n, std::size_t ranks,
                                    double theta, Rng& rng) {
  const ZipfDistribution zipf{ranks, theta};
  std::vector<std::size_t> out;
  double cumulative = 0.0;
  for (std::size_t r = 0; r < ranks; ++r) {
    cumulative += zipf.pmf(r) * static_cast<double>(n);
    while (static_cast<double>(out.size()) + 0.5 < cumulative) out.push_back(r);
  }
  out.resize(n, ranks - 1);
  rng.shuffle(out);
  return out;
}

/// `n` Zipf-skewed single-stream CQL selections over one trace: station,
/// host and threshold level all favour low ranks, so same-host queries on
/// one station merge. Rank counts are stratified (zipf_ranks), and the
/// thresholds are quantiles of the station's own readings rounded to
/// multiples of 0.5 (so the CQL text and the oracle hold bit-identical
/// doubles): unit structure and result volume depend on the skew, not on
/// the seed's draws or on where its random walk wandered.
class SelectionGen {
 public:
  SelectionGen(const std::vector<runtime::TraceEvent>& events, std::size_t n,
               Rng& rng)
      : station_(zipf_ranks(n, kStations, 0.8, rng)),
        host_(zipf_ranks(n, kNodes - kFirstHost, 0.8, rng)),
        level_(zipf_ranks(3 * n, 24, 0.9, rng)),
        shape_(n),
        snow_(kStations),
        temp_(kStations) {
    // Shape: conjunct count 1..3 and the temperature comparison's
    // direction, each value equally often.
    for (std::size_t i = 0; i < n; ++i) shape_[i] = i % 6;
    rng.shuffle(shape_);
    for (const auto& ev : events) {
      const auto st = static_cast<std::size_t>(ev.tuple.values[2].as_int());
      snow_[st].push_back(ev.tuple.values[0].as_double());
      temp_[st].push_back(ev.tuple.values[1].as_double());
    }
    for (auto& v : snow_) std::sort(v.begin(), v.end());
    for (auto& v : temp_) std::sort(v.begin(), v.end());
  }

  /// The next query's CQL text and oracle terms; its spec is parsed from
  /// the text when it is submitted.
  BenchQuery next() {
    const std::size_t i = next_++;
    BenchQuery q;
    q.station = station_.at(i);
    q.host = node(kFirstHost + host_.at(i));
    const auto level = [&](std::size_t k) {
      return 0.03 * static_cast<double>(level_.at(3 * i + k));
    };
    const std::size_t conjuncts = 1 + shape_[i] % 3;
    const double low = level(0);
    q.conds.push_back({0, true, at(snow_[q.station], low)});
    if (conjuncts >= 2) {
      q.conds.push_back({1, shape_[i] < 3, at(temp_[q.station], 0.1 + level(1))});
    }
    if (conjuncts >= 3) {
      q.conds.push_back({0, false, at(snow_[q.station], low + 0.25 + level(2))});
    }
    std::string text = "SELECT S.snowHeight, S.temperature, S.timestamp FROM " +
                       sim::station_stream_name(q.station) + " [Now] S WHERE ";
    for (std::size_t k = 0; k < q.conds.size(); ++k) {
      const auto& c = q.conds[k];
      char buf[96];
      std::snprintf(buf, sizeof buf, "%sS.%s %s %.1f", k == 0 ? "" : " AND ",
                    c.field == 0 ? "snowHeight" : "temperature",
                    c.greater ? ">" : "<", c.c);
      text += buf;
    }
    q.text = text;
    return q;
  }

 private:
  /// The q-quantile of sorted `v`, rounded to a multiple of 0.5.
  static double at(const std::vector<double>& v, double q) {
    const auto i = static_cast<std::size_t>(
        std::min(q, 1.0) * static_cast<double>(v.size() - 1));
    return std::round(v[i] * 2.0) / 2.0;
  }

  std::vector<std::size_t> station_;
  std::vector<std::size_t> host_;
  std::vector<std::size_t> level_;  ///< three per query
  std::vector<std::size_t> shape_;
  std::vector<std::vector<double>> snow_;  ///< per station, sorted
  std::vector<std::vector<double>> temp_;
  std::size_t next_ = 0;
};

/// A selection workload of `initial` set-up queries plus one arrival every
/// `every` tuples (0: none), over `readings` readings per station.
Workload make_selections(const std::string& name, std::uint64_t seed,
                         std::size_t readings, std::size_t initial,
                         std::size_t every) {
  Workload w;
  w.name = name;
  w.selection = true;
  w.events = sensor_events(readings, seed);
  const std::size_t n = w.events.size();
  const std::size_t arrivals = every == 0 ? 0 : n / every - 1;
  Rng rng{seed + 2};
  SelectionGen gen{w.events, initial + arrivals, rng};
  for (std::size_t i = 0; i < initial + arrivals; ++i) {
    w.queries.push_back(gen.next());
    if (i >= initial) w.queries.back().arrival = (i - initial + 1) * every;
  }
  w.initial = initial;
  return w;
}

// fanout exists because thousands of single-stream selections with
// Zipf-skewed stations and constants merge into shared units: query
// merging, pub/sub matching and the driver's p2 delivery leg carry the
// load and join work is near zero, so a probe change should not move it.
// Federated traffic is led by Execute frames (matched rows shipped to
// every unit), with Result frames second.
Workload make_fanout(std::uint64_t seed) {
  Workload w = make_selections("fanout", seed, 480, 2000, 0);
  w.phase_ends = {w.events.size()};
  w.traced_events = 480;
  return w;
}

// churn exists to replay the Fig 8 online-arrival scenario: a fanout-style
// population, then one new query every 8 source tuples while the trace
// flows, so subscription-index and unit maintenance (writes) interleave
// with matching (reads). A change that speeds matching up by making
// maintenance costlier shows in submit_p99_us here. push takes each
// arrival at its tuple; run, fed and durable replay the trace in four
// segments, one call each, and submit the arrivals between them.
Workload make_churn(std::uint64_t seed) {
  constexpr std::size_t kEvery = 8;
  Workload w = make_selections("churn", seed, 360, 1000, kEvery);
  const std::size_t n = w.events.size();
  w.phase_ends = {n / 4, n / 2, 3 * n / 4, n};
  w.traced_events = 480;  // within the first segment
  return w;
}

/// The first `n` events of `w` and the queries that arrive within them.
Workload prefix_of(const Workload& w, std::size_t n) {
  Workload p = w;
  p.events.resize(std::min(n, w.events.size()));
  n = p.events.size();
  while (p.queries.size() > p.initial && p.queries.back().arrival >= n) {
    p.queries.pop_back();
  }
  p.phase_ends.clear();
  for (const std::size_t e : w.phase_ends) {
    if (e < n) p.phase_ends.push_back(e);
  }
  p.phase_ends.push_back(n);
  return p;
}

/// The independent reference for selection workloads: each query's
/// conjuncts evaluated on the raw trace from its start index on, folded in
/// the projection order of its SELECT list.
std::vector<Digest> oracle(const Workload& w, bool phased) {
  const auto starts = w.starts(phased);
  std::vector<Digest> out(w.queries.size());
  for (std::size_t id = 0; id < w.queries.size(); ++id) {
    const auto& q = w.queries[id];
    const std::string stream = sim::station_stream_name(q.station);
    for (std::size_t i = starts[id]; i < w.events.size(); ++i) {
      const auto& ev = w.events[i];
      if (ev.stream != stream) continue;
      bool pass = true;
      for (const auto& c : q.conds) {
        const double v = ev.tuple.values[c.field].as_double();
        if (c.greater ? !(v > c.c) : !(v < c.c)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      stream::Tuple t;
      t.ts = ev.tuple.ts;
      t.values = {ev.tuple.values[0], ev.tuple.values[1], ev.tuple.values[3]};
      out[id].add(t);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// System set-up.

struct Deployment {
  std::vector<NodeId> nodes;
  net::LatencyMatrix lat;
};

Deployment make_deployment() {
  Rng rng{kDeploymentSeed};
  const auto topo = net::make_wide_area_mesh(kNodes, 6, rng);
  Deployment d;
  for (std::size_t i = 0; i < kNodes; ++i) d.nodes.push_back(node(i));
  d.lat = net::LatencyMatrix{topo, d.nodes};
  return d;
}

/// Set-up timings of every instance a run builds.
struct SetupSamples {
  std::vector<Timed> setup_s;  ///< register_source + every initial submit
  /// Every submit call's CPU time of one instance, in microseconds, and
  /// the inline factor to rescale them with.
  struct Submits {
    double f = 0.0;
    std::vector<double> us;
  };
  std::vector<Submits> submits;
};

/// Every submit call of a run, each rescaled with its instance's inline
/// factor.
std::vector<double> scaled_submits(const std::vector<SetupSamples::Submits>& all) {
  std::vector<double> v;
  for (const auto& s : all) {
    for (const double us : s.us) v.push_back(us * (s.f > 0 ? s.f : 1.0));
  }
  return v;
}

/// Submits query `id` of `w` as a client would: selections are parsed
/// from their CQL text. Returns the call's CPU time in microseconds.
double submit(Cosmos& sys, const Workload& w, std::size_t id,
              std::vector<Digest>& dig) {
  const auto& q = w.queries[id];
  const double t0 = thread_cpu_seconds();
  const auto qid = QueryId{static_cast<QueryId::value_type>(id)};
  sys.submit(q.text.empty() ? q.spec : cql::parse_query(q.text, qid, q.host),
             q.host, [&dig](QueryId got, const stream::Tuple& t) {
               dig[got.value()].add(t);
             });
  return (thread_cpu_seconds() - t0) * 1e6;
}

/// One instance: built with the workload's initial queries, timing each
/// submit; `arrive` submits online arrivals and times them too. An inline
/// probe between submits rescales the set-up and submit timings.
class Instance {
 public:
  Instance(const Deployment& dep, const Workload& w, std::vector<Digest>& dig,
           std::size_t queries)
      : w_{w}, dig_{dig} {
    const double cpu0 = thread_cpu_seconds();
    dig.assign(w.queries.size(), Digest{});
    sys_ = std::make_unique<Cosmos>(dep.nodes, dep.lat);
    for (std::size_t st = 0; st < kStations; ++st) {
      sys_->register_source(sim::station_stream_name(st), sim::sensor_schema(),
                            dep.nodes[st % 2]);
    }
    for (next_ = 0; next_ < queries; ++next_) {
      submit_us_.push_back(submit(*sys_, w, next_, dig));
      probe_.tick();
    }
    setup_s_ = thread_cpu_seconds() - cpu0 - probe_.spent_s();
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  Cosmos& operator*() { return *sys_; }
  Cosmos* operator->() { return sys_.get(); }

  /// Submits every not yet submitted query that arrives at or before
  /// event index `upto`.
  void arrive(std::size_t upto) {
    while (next_ < w_.queries.size() && w_.queries[next_].arrival <= upto) {
      submit_us_.push_back(submit(*sys_, w_, next_, dig_));
      probe_.tick();
      ++next_;
    }
  }

  /// Records set-up time and submit percentiles (over the whole instance
  /// life, arrivals included).
  void record(SetupSamples& s) const {
    const double f = probe_.factor();
    s.setup_s.push_back({{}, {}, setup_s_, f});
    s.submits.push_back({f, submit_us_});
  }

 private:
  const Workload& w_;
  std::vector<Digest>& dig_;
  double setup_s_ = 0.0;  ///< set-up CPU time minus probe time
  InlineProbe probe_{kSubmitProbeEvery};
  std::unique_ptr<Cosmos> sys_;
  std::size_t next_ = 0;
  std::vector<double> submit_us_;
};

// ---------------------------------------------------------------------------
// Worker fleets.

/// cosmos_noded: $COSMOS_NODED_PATH, else next to this executable.
std::string resolve_noded() {
  if (const char* env = std::getenv("COSMOS_NODED_PATH");
      env != nullptr && *env != '\0') {
    if (::access(env, X_OK) != 0) {
      throw std::runtime_error{std::string{"COSMOS_NODED_PATH is not an "
                                           "executable: "} + env};
    }
    return env;
  }
  std::error_code ec;
  const auto self = fs::read_symlink("/proc/self/exe", ec);
  const auto path = self.parent_path() / "cosmos_noded";
  if (ec || ::access(path.c_str(), X_OK) != 0) {
    throw std::runtime_error{"cosmos_noded not found: set COSMOS_NODED_PATH "
                             "or build it next to cosmos_bench"};
  }
  return path.string();
}

/// Unique scratch names per pass, all under one per-process directory that
/// the benchmark removes on exit.
class Scratch {
 public:
  explicit Scratch(const std::string& root) {
    dir_ = fs::path{root} / ("p" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~Scratch() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  [[nodiscard]] fs::path fresh(const std::string& stem) {
    return dir_ / (stem + std::to_string(next_++));
  }

 private:
  fs::path dir_;
  std::size_t next_ = 0;
};

struct Fleet {
  std::vector<node::NodeProcess> procs;
  std::vector<std::string> endpoints;
  std::vector<fs::path> sockets;

  /// Reaps every worker; returns how many exited non-zero. Removes the
  /// socket files either way.
  std::size_t reap() {
    std::size_t bad = 0;
    for (auto& p : procs) {
      if (p.running() && p.wait() != 0) ++bad;
    }
    for (const auto& s : sockets) {
      std::error_code ec;
      fs::remove(s, ec);
    }
    return bad;
  }
  ~Fleet() {
    for (auto& p : procs) {
      if (!p.exit_status()) p.terminate(200);
    }
    for (const auto& s : sockets) {
      std::error_code ec;
      fs::remove(s, ec);
    }
  }
};

// ---------------------------------------------------------------------------
// One pass over every mode.

enum Mode : std::size_t { kPush, kRun, kFed, kDurable, kModes };
constexpr const char* kModeName[kModes] = {"push", "run", "fed", "durable"};

/// What one mode of one pass measured.
struct ModeResult {
  bool ok = false;
  TimePoint a;             ///< the measured window
  TimePoint b;
  double factor = 0.0;     ///< push: its InlineProbe factor
  double wall_s = 0.0;     ///< ingest wall time (push: push calls only)
  /// push: thread CPU of the push calls, probe left out; run: process
  /// CPU; fed/durable: + workers
  double cpu_s = 0.0;
  double worker_cpu_s = 0.0;
  std::vector<Digest> digests;
  double comm_cost = 0.0;  ///< broker weighted_cost (push)
  std::size_t units = 0;
  std::size_t queries = 0;
  std::vector<Cosmos::RunReport> reports;  ///< one per phase
};

struct Bench {
  const Deployment& dep;
  const Workload& w;
  std::string noded;
  Scratch& scratch;
  SetupSamples samples;

  ModeResult push_mode() {
    ModeResult r;
    Instance sys{dep, w, r.digests, w.initial};
    r.a = Clock::now();
    // Time the push calls between arrivals only.
    InlineProbe probe{kPushProbeEvery};
    std::size_t i = 0;
    for (std::size_t q = w.initial; i < w.events.size(); ++q) {
      const std::size_t upto =
          q < w.queries.size() ? w.queries[q].arrival : w.events.size();
      const auto t0 = Clock::now();
      const double cpu0 = thread_cpu_seconds();
      for (; i < upto; ++i) {
        sys->push(w.events[i].stream, w.events[i].tuple);
        probe.tick();
      }
      r.cpu_s += thread_cpu_seconds() - cpu0;
      r.wall_s += seconds_since(t0);
      sys.arrive(i);
    }
    r.cpu_s -= probe.spent_s();
    r.factor = probe.factor();
    r.b = Clock::now();
    r.comm_cost = sys->traffic().weighted_cost;
    r.units = sys->deployed_units();
    r.queries = sys->submitted_queries();
    sys.record(samples);
    r.ok = true;
    return r;
  }

  ModeResult run_mode(const std::string& trace_path) {
    ModeResult r;
    Instance sys{dep, w, r.digests, w.initial};
    Cosmos::RunOptions opts;
    opts.shards = kShards;
    opts.batch_size = kBatch;
    opts.tick_ms = kTickMs;
    opts.trace_path = trace_path;
    r.a = Clock::now();
    for (std::size_t p = 0; p < w.phase_ends.size(); ++p) {
      const auto events = w.phase(p);
      const double cpu0 = cpu_seconds(RUSAGE_SELF);
      const auto t0 = Clock::now();
      r.reports.push_back(sys->run(events, opts));
      r.wall_s += seconds_since(t0);
      r.cpu_s += cpu_seconds(RUSAGE_SELF) - cpu0;
      sys.arrive(w.phase_ends[p]);
    }
    r.b = Clock::now();
    sys.record(samples);
    r.ok = true;
    return r;
  }

  ModeResult fed_mode(bool durable, const std::string& trace_path) {
    ModeResult r;
    Instance sys{dep, w, r.digests, w.initial};
    r.a = Clock::now();
    for (std::size_t p = 0; p < w.phase_ends.size(); ++p) {
      if (!fed_phase(*sys, p, durable, trace_path, r)) return r;
      sys.arrive(w.phase_ends[p]);
    }
    r.b = Clock::now();
    sys.record(samples);
    r.ok = true;
    return r;
  }

  /// One run_federated call over phase `p` with a fresh fleet (a worker
  /// serves one driver session). False when a worker exits non-zero.
  bool fed_phase(Cosmos& sys, std::size_t p, bool durable,
                 const std::string& trace_path, ModeResult& r) {
    const auto events = w.phase(p);
    Fleet fleet;
    const double children0 = cpu_seconds(RUSAGE_CHILDREN);
    for (std::size_t i = 0; i < kWorkers; ++i) {
      const auto sock = scratch.fresh("w").string() + ".sock";
      fleet.sockets.push_back(sock);
      fleet.endpoints.push_back("unix:" + sock);
      fleet.procs.push_back(node::spawn_noded(noded, fleet.endpoints.back()));
    }
    Cosmos::FederationOptions opts;
    opts.workers = fleet.endpoints;
    opts.batch_size = kBatch;
    opts.tick_ms = kTickMs;
    opts.max_inflight_chunks = kInflight;
    opts.trace_path = trace_path;
    // Traced workers drain their span rings into periodic samples.
    if (!trace_path.empty()) opts.stats_sample_every_ms = kSampleMs;
    fs::path journal;
    if (durable) {
      journal = scratch.fresh("j");
      fs::create_directories(journal);
      opts.journal.dir = journal.string();
      opts.journal.checkpoint_every_ms = kCheckpointMs;
    }
    const double cpu0 = cpu_seconds(RUSAGE_SELF);
    const auto t0 = Clock::now();
    r.reports.push_back(sys.run_federated(events, opts));
    r.wall_s += seconds_since(t0);
    const double driver_cpu = cpu_seconds(RUSAGE_SELF) - cpu0;
    const std::size_t bad = fleet.reap();
    const double worker_cpu = cpu_seconds(RUSAGE_CHILDREN) - children0;
    r.worker_cpu_s += worker_cpu;
    r.cpu_s += driver_cpu + worker_cpu;
    if (!journal.empty()) {
      std::error_code ec;
      fs::remove_all(journal, ec);
    }
    if (bad != 0) {
      std::fprintf(stderr, "cosmos_bench: %zu %s worker(s) exited non-zero\n",
                   bad, kModeName[durable ? kDurable : kFed]);
      return false;
    }
    return true;
  }

  /// Runs one mode; a throw is reported and counted as a failed mode.
  ModeResult mode(Mode m, const std::string& trace_path = "") {
    try {
      switch (m) {
        case kPush: return push_mode();
        case kRun: return run_mode(trace_path);
        case kFed: return fed_mode(false, trace_path);
        default: return fed_mode(true, trace_path);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cosmos_bench: %s mode threw: %s\n", kModeName[m],
                   e.what());
      return ModeResult{};
    }
  }
};

// ---------------------------------------------------------------------------
// Correctness accounting.

/// The references a pass is checked against. Selection workloads: the
/// oracle, from each query's push submit point and from its segment-wise
/// one. band-join: its own push, which is itself the reference.
struct Oracles {
  std::vector<Digest> push;
  std::vector<Digest> phased;

  Oracles() = default;
  explicit Oracles(const Workload& w) {
    if (!w.selection) return;
    push = oracle(w, false);
    phased = oracle(w, true);
  }
};

struct Check {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t results = 0;  ///< tuples delivered to push-mode callbacks

  /// One mode's result streams: each is one operation, compared with
  /// `ref` when there is one (band-join's push is itself the reference).
  void mode(Mode mode, std::size_t nq, const ModeResult& r,
            const std::vector<Digest>* ref) {
    attempted += nq;
    if (!r.ok) {
      failed += nq;
      return;
    }
    std::size_t bad = 0;
    for (std::size_t q = 0; q < nq && ref != nullptr; ++q) {
      if (!(r.digests[q] == (*ref)[q])) ++bad;
    }
    if (bad != 0) {
      std::fprintf(stderr, "cosmos_bench: %s: %zu of %zu query results "
                   "differ from the reference\n", kModeName[mode], bad, nq);
    }
    failed += bad;
  }

  /// The reference of `mode` in a pass whose push produced `push`.
  static const std::vector<Digest>* ref(const Workload& w, const Oracles& o,
                                        Mode mode, const ModeResult& push) {
    if (w.selection) return mode == kPush ? &o.push : &o.phased;
    return mode == kPush ? nullptr : &push.digests;
  }

  /// Every mode of one pass from `first` on (a traced pass reuses its
  /// untraced push).
  void pass(const Workload& w, const ModeResult (&m)[kModes], const Oracles& o,
            Mode first = kPush) {
    const std::size_t nq = w.queries.size();
    for (std::size_t i = first; i < kModes; ++i) {
      const auto mode = static_cast<Mode>(i);
      if (!w.selection && mode != kPush && !m[kPush].ok) {
        attempted += nq;  // nothing to compare with
        failed += nq;
        continue;
      }
      this->mode(mode, nq, m[mode], ref(w, o, mode, m[kPush]));
    }
    if (first == kPush && m[kPush].ok) {
      for (const auto& d : m[kPush].digests) results += d.n;
    }
  }
};

// ---------------------------------------------------------------------------
// Per-module timings of the benchmark's own calls (traced runs only).

struct LayerProbe {
  double parse_us_per_query = 0.0;
  double match_ns_per_tuple = 0.0;
  double deliveries_per_tuple = 0.0;
  double matched_rows_per_tuple = 0.0;
  double cut_ns_per_tuple = 0.0;
  double encode_ns_per_byte = 0.0;
  double decode_ns_per_byte = 0.0;
};

std::vector<runtime::Chunk> cut(const Workload& w) {
  std::vector<runtime::Chunk> chunks;
  runtime::Driver::replay(w.events, {kBatch, kTickMs},
                          [&](runtime::Chunk&& c) { chunks.push_back(std::move(c)); });
  return chunks;
}

LayerProbe probe_layers(const Deployment& dep, const Workload& w) {
  LayerProbe p;
  const double tuples = static_cast<double>(w.events.size());
  constexpr int kReps = 3;

  // cql: parse every selection query's text (band-join has none).
  std::vector<const std::string*> texts;
  for (const auto& q : w.queries) {
    if (!q.text.empty()) texts.push_back(&q.text);
  }
  std::vector<double> parse;
  for (int rep = 0; rep < kReps && !texts.empty(); ++rep) {
    const auto t0 = Clock::now();
    for (const auto* text : texts) (void)cql::parse_query(*text);
    parse.push_back(seconds_since(t0));
  }
  p.parse_us_per_query =
      texts.empty() ? 0.0 : median(parse) * 1e6 / static_cast<double>(texts.size());

  // runtime: chunk cutting alone, into a no-op sink.
  std::vector<double> cutting;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    runtime::Driver::replay(w.events, {kBatch, kTickMs}, [](runtime::Chunk&&) {});
    cutting.push_back(seconds_since(t0));
  }
  p.cut_ns_per_tuple = median(cutting) * 1e9 / tuples;

  // pubsub: the workload's chunks through broker().publish_batch on a
  // separately built instance holding every query (p1 matching only; no
  // engine executes).
  const auto chunks = cut(w);
  {
    std::vector<Digest> dig;
    Instance sys{dep, w, dig, w.queries.size()};
    std::vector<double> match;
    std::uint64_t deliveries = 0;
    std::uint64_t rows = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      deliveries = 0;
      rows = 0;
      const auto count = [&](const pubsub::BatchDelivery& d) {
        ++deliveries;
        rows += d.rows.size();
      };
      const auto t0 = Clock::now();
      for (const auto& c : chunks) {
        for (const auto& run : c.runs) {
          sys->broker().publish_batch(run.stream(), run, count);
        }
      }
      match.push_back(seconds_since(t0));
    }
    p.match_ns_per_tuple = median(match) * 1e9 / tuples;
    p.deliveries_per_tuple = static_cast<double>(deliveries) / tuples;
    p.matched_rows_per_tuple = static_cast<double>(rows) / tuples;
  }

  // wire: the batch codec on the workload's runs.
  std::vector<double> enc;
  std::vector<double> dec;
  std::size_t bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<std::vector<std::uint8_t>> bufs;
    const auto t0 = Clock::now();
    for (const auto& c : chunks) {
      for (const auto& run : c.runs) {
        wire::Writer wr;
        wire::encode_batch(wr, run);
        bufs.push_back(wr.take());
      }
    }
    enc.push_back(seconds_since(t0));
    bytes = 0;
    std::size_t rows = 0;
    const auto t1 = Clock::now();
    for (const auto& b : bufs) {
      wire::Reader rd{b};
      rows += wire::decode_batch(rd).size();
      rd.done();
      bytes += b.size();
    }
    dec.push_back(seconds_since(t1));
    if (rows != w.events.size()) {
      throw std::runtime_error{"wire: decoded row count differs from trace"};
    }
  }
  p.encode_ns_per_byte = median(enc) * 1e9 / static_cast<double>(bytes);
  p.decode_ns_per_byte = median(dec) * 1e9 / static_cast<double>(bytes);
  return p;
}

/// A mode's phase reports folded into one: additive counters summed,
/// latency histograms merged, peaks maximised.
struct Totals {
  double match_s = 0.0;
  std::map<std::uint64_t, double> engine_busy_s;  ///< busy minus match
  double results = 0.0;
  double chunks = 0.0;
  double shard_busy_max_s = 0.0;  ///< summed over phases (they are serial)
  double stall_s = 0.0;
  double drain_s = 0.0;
  double driver_cpu_s = 0.0;
  Cosmos::DriverBreakdown driver;
  obs::HistogramSnapshot e2e;
  double frames = 0.0;
  double frames_dropped = 0.0;
  double wire_bytes = 0.0;
  double journal_bytes = 0.0;
  double journal_fsyncs = 0.0;
  double data_log_peak = 0.0;

  explicit Totals(const std::vector<Cosmos::RunReport>& reports) {
    for (const auto& r : reports) {
      match_s += r.stats.total_match_seconds();
      for (const auto& e : r.stats.engines) {
        engine_busy_s[e.engine] += static_cast<double>(e.busy_ns - e.match_ns) * 1e-9;
      }
      results += static_cast<double>(r.results_delivered);
      chunks += static_cast<double>(r.chunks);
      shard_busy_max_s += r.stats.max_busy_seconds();
      stall_s += r.stats.total_stall_seconds();
      drain_s += r.drain_seconds;
      driver_cpu_s += r.driver_cpu_seconds;
      driver.match_wait_seconds += r.driver.match_wait_seconds;
      driver.route_cpu_seconds += r.driver.route_cpu_seconds;
      driver.dispatch_cpu_seconds += r.driver.dispatch_cpu_seconds;
      driver.deliver_cpu_seconds += r.driver.deliver_cpu_seconds;
      e2e.merge(r.e2e_latency);
      for (const auto& l : r.federation.links) {
        frames += static_cast<double>(l.frames_sent + l.frames_received);
        frames_dropped += static_cast<double>(l.frames_dropped);
        wire_bytes += static_cast<double>(l.bytes_sent + l.bytes_received);
      }
      journal_bytes += static_cast<double>(r.federation.journal_bytes);
      journal_fsyncs += static_cast<double>(r.federation.journal_fsyncs);
      data_log_peak = std::max(
          data_log_peak, static_cast<double>(r.federation.data_log_peak_entries));
    }
  }
  [[nodiscard]] double e2e_ms(double p) const {
    return static_cast<double>(e2e.percentile(p)) / 1e6;
  }
};

// ---------------------------------------------------------------------------
// Output.

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    field(key, "\"" + v + "\"");
  }
  void raw(const std::string& key, const std::string& v) { field(key, v); }
  void metric(const std::string& key, double v, const std::string& unit) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "{\"value\": %.17g, \"unit\": \"%s\"}", v,
                  unit.c_str());
    field(key, buf);
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + v;
  }
  std::string body_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp = ".bench_build/tmp";
  std::string trace_out;  ///< where traced runs leave their Chrome traces
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--tmp") a.tmp = v;
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument{"unknown argument " + k};
  }
  if (a.trace && a.trace_out.empty()) a.trace_out = a.tmp;
  if (a.workload.empty() || a.seconds <= 0) {
    throw std::invalid_argument{"usage: cosmos_bench --workload W --seed N "
                                "--seconds S --trace 0|1 [--tmp DIR] [--trace-out DIR]"};
  }
  return a;
}

int run(const Args& args) {
  Workload w;
  if (args.workload == "band-join") w = make_band_join(args.seed);
  else if (args.workload == "fanout") w = make_fanout(args.seed);
  else if (args.workload == "churn") w = make_churn(args.seed);
  else throw std::invalid_argument{"unknown workload " + args.workload};

  const Deployment dep = make_deployment();
  Scratch scratch{args.tmp};
  const std::string noded = resolve_noded();
  Bench bench{dep, w, noded, scratch, {}};
  const Workload pw = prefix_of(w, w.traced_events);
  Bench prefix_bench{dep, pw, noded, scratch, {}};
  const Oracles full_oracle{w};
  const Oracles prefix_oracle{pw};

  std::printf("# cosmos_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# trace: %zu tuples over %zu stations; queries: %zu at set-up, "
              "%zu arriving online; %zu segment(s) for run/fed/durable\n",
              w.events.size(), kStations, w.initial,
              w.queries.size() - w.initial, w.phase_ends.size());
  if (args.trace) {
    std::printf("# traced pass: first %zu tuples\n", pw.events.size());
  }
  std::printf("# modes: push; run shards=%zu; fed workers=%zu unix star; "
              "durable = fed + journal fsync=commit checkpoint=%lldms; "
              "batch=%zu tick=%lldms inflight=%zu\n", kShards, kWorkers,
              static_cast<long long>(kCheckpointMs), kBatch,
              static_cast<long long>(kTickMs), kInflight);
  std::printf("# host: nproc=%ld build=%s\n", ::sysconf(_SC_NPROCESSORS_ONLN),
              COSMOS_BENCH_BUILD_TYPE);
  std::fflush(stdout);

  const HostProbe probe;
  Check check;
  std::vector<Timed> tps[kModes];  ///< tuples per second, one per replay
  std::vector<Timed> cpu[kModes];  ///< CPU seconds per tuple
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
  ModeResult last[kModes];
  std::uint64_t spans_dropped = 0;
  std::map<std::string, std::string> trace_files;
  const double tuples = static_cast<double>(w.events.size());
  // push never blocks: its calls are timed in thread CPU time and
  // rescaled by its inline probe. The other modes' threads wait on each
  // other: their rates come from wall time, rescaled by the unstolen
  // share, and their CPU time is rescaled by the background kernel.
  const auto record = [&](Mode i, const ModeResult& r) {
    tps[i].push_back({r.a, r.b, tuples / (i == kPush ? r.cpu_s : r.wall_s), r.factor});
    cpu[i].push_back({r.a, r.b, r.cpu_s / tuples, 0.0});
  };

  const auto start = Clock::now();
  {
    // Warm-up over the prefix: allocator, page cache, worker binary and
    // sockets. Checked, not timed.
    ModeResult m[kModes];
    for (std::size_t i = 0; i < kModes; ++i) {
      m[i] = prefix_bench.mode(static_cast<Mode>(i));
    }
    check.pass(pw, m, prefix_oracle);
  }
  double last_pass = 0.0;
  std::size_t passes = 0;
  double peak_rss_mb = 0.0;
  do {
    const auto pass_start = Clock::now();
    ModeResult m[kModes];
    for (std::size_t i = 0; i < kModes; ++i) m[i] = bench.mode(static_cast<Mode>(i));
    check.pass(w, m, full_oracle);
    // Replay the short modes until the pass has timed kMinModeSeconds of
    // each, so that their medians rest on as many windows as the others'.
    for (const Mode mode : {kPush, kRun}) {
      // band-join has no oracle: a replay must match the pass's push.
      const bool checkable = w.selection || m[kPush].ok;
      for (double timed = m[mode].wall_s;
           checkable && m[mode].ok && timed < kMinModeSeconds[mode];) {
        const ModeResult again = bench.mode(mode);
        check.mode(mode, w.queries.size(), again,
                   Check::ref(w, full_oracle, mode, m[kPush]));
        if (!again.ok) break;
        record(mode, again);
        timed += again.wall_s;
      }
    }
    std::fprintf(stderr, "pass %zu:", passes);
    for (std::size_t i = 0; i < kModes; ++i) {
      if (!m[i].ok) continue;
      record(static_cast<Mode>(i), m[i]);
      // Wall, CPU, and the factors (inline kernel for push; unstolen
      // share and background kernel for the rest).
      std::fprintf(stderr, " %s %.3fs/%.3fcpu/f%.3f/k%.3f", kModeName[i], m[i].wall_s,
                   m[i].cpu_s,
                   m[i].factor > 0 ? m[i].factor : probe.unstolen_share(m[i].a, m[i].b),
                   probe.core_factor(m[i].a, m[i].b));
    }
    std::fprintf(stderr, "\n");
    if (args.trace) {
      // The prefix untraced, then its traced twin: same modes, one Chrome
      // trace each. Their wall-time ratio is the tracing overhead.
      ModeResult u[kModes];
      for (std::size_t i = 0; i < kModes; ++i) {
        u[i] = prefix_bench.mode(static_cast<Mode>(i));
      }
      check.pass(pw, u, prefix_oracle);
      ModeResult t[kModes];
      t[kPush] = u[kPush];
      double untraced = 0.0;
      double with_trace = 0.0;
      for (std::size_t i = kRun; i < kModes; ++i) {
        const auto path = (fs::path{args.trace_out} /
                           (w.name + "_" + kModeName[i] + ".json")).string();
        t[i] = prefix_bench.mode(static_cast<Mode>(i), path);
        untraced += u[i].wall_s;
        with_trace += t[i].wall_s;
        spans_dropped += obs::Tracer::instance().dropped();
        trace_files[kModeName[i]] = path;
      }
      check.pass(pw, t, prefix_oracle, kRun);
      traced_wall.push_back(with_trace);
      untraced_wall.push_back(untraced);
    }
    for (std::size_t i = 0; i < kModes; ++i) last[i] = std::move(m[i]);
    if (passes == 0) {
      // After the warm-up and one full pass: later passes would only add
      // allocator drift, and their number depends on the host's speed.
      rusage ru{};
      ::getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    ++passes;
    last_pass = seconds_since(pass_start);
  } while (seconds_since(start) + last_pass <= args.seconds);
  // Let the probe sample past the last window.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(HostProbe::kMinWindowS / 2 + 0.05));

  std::fprintf(stderr, "raw (unscaled) medians: setup_s %.6g", raw_median(bench.samples.setup_s));
  for (std::size_t i = 0; i < kModes; ++i) {
    std::fprintf(stderr, " %s.tuples_per_s %.6g", kModeName[i], raw_median(tps[i]));
  }
  std::fprintf(stderr, "\n");
  std::printf("# host: %.1f%% of the guest's CPU time stolen during the run; "
              "probe kernel %.1f us in the background (reference %.1f us)\n",
              probe.run_steal_share() * 100, probe.mean_kernel_s() * 1e6,
              kNominalKernelS * 1e6);
  std::uint64_t delivered = 0;
  for (const auto& d : last[kPush].digests) delivered += d.n;
  std::printf("# push: %llu results per replay (%.2f per tuple); %zu units "
              "for %zu queries\n", static_cast<unsigned long long>(delivered),
              static_cast<double>(delivered) / tuples, last[kPush].units,
              last[kPush].queries);

  const auto rate = [&](Mode m) {
    return scaled_median(probe, tps[m], true, Measured::kWall);
  };
  const auto submits = scaled_submits(bench.samples.submits);
  std::printf("# samples: %zu set-ups, %zu submit calls; replays push %zu, "
              "run %zu, fed %zu, durable %zu\n", bench.samples.setup_s.size(),
              submits.size(), tps[kPush].size(), tps[kRun].size(),
              tps[kFed].size(), tps[kDurable].size());
  const auto cpu_us = [&](Mode m) {
    return scaled_median(probe, cpu[m], false, Measured::kCpu) * 1e6;
  };

  JsonObject metrics;
  if (!args.trace) {
    const Totals fed{last[kFed].reports};
    const Totals dur{last[kDurable].reports};
    metrics.metric("setup_s",
                   scaled_median(probe, bench.samples.setup_s, false, Measured::kCpu),
                   "s");
    metrics.metric("submit_p50_us", percentile(submits, 50), "us");
    metrics.metric("submit_p99_us", percentile(submits, 99), "us");
    metrics.metric("comm_cost_per_tuple", last[kPush].comm_cost / tuples, "B.ms");
    metrics.metric("peak_rss_mb", peak_rss_mb, "MB");
    metrics.metric("push.tuples_per_s", rate(kPush), "1/s");
    metrics.metric("run.tuples_per_s", rate(kRun), "1/s");
    metrics.metric("run.cpu_us_per_tuple", cpu_us(kRun), "us");
    metrics.metric("fed.tuples_per_s", rate(kFed), "1/s");
    metrics.metric("fed.cpu_us_per_tuple", cpu_us(kFed), "us");
    metrics.metric("fed.wire_bytes_per_tuple", fed.wire_bytes / tuples, "B");
    metrics.metric("durable.tuples_per_s", rate(kDurable), "1/s");
    metrics.metric("durable.disk_bytes_per_tuple", dur.journal_bytes / tuples, "B");
  } else {
    const LayerProbe p = probe_layers(dep, w);
    const Totals run{last[kRun].reports};
    const Totals fed{last[kFed].reports};
    const Totals dur{last[kDurable].reports};
    metrics.metric("cql.parse_us_per_query", p.parse_us_per_query, "us");
    metrics.metric("query.units_per_query",
                   static_cast<double>(last[kPush].units) /
                       static_cast<double>(last[kPush].queries), "ratio");
    metrics.metric("pubsub.match_ns_per_tuple", p.match_ns_per_tuple, "ns");
    metrics.metric("pubsub.deliveries_per_tuple", p.deliveries_per_tuple, "count");
    metrics.metric("pubsub.matched_rows_per_tuple", p.matched_rows_per_tuple, "count");
    metrics.metric("pubsub.shard_match_s", run.match_s, "s");
    double engine_busy = 0.0;
    double hottest = 0.0;
    for (const auto& [id, busy] : run.engine_busy_s) {
      engine_busy += busy;
      hottest = std::max(hottest, busy);
    }
    metrics.metric("stream.engine_busy_s", engine_busy, "s");
    metrics.metric("stream.hottest_engine_share",
                   engine_busy > 0 ? hottest / engine_busy : 0.0, "ratio");
    metrics.metric("stream.results_per_tuple", run.results / tuples, "count");
    metrics.metric("runtime.cut_ns_per_tuple", p.cut_ns_per_tuple, "ns");
    metrics.metric("runtime.chunks", run.chunks, "count");
    metrics.metric("runtime.shard_busy_s_max", run.shard_busy_max_s, "s");
    metrics.metric("runtime.stall_s", run.stall_s, "s");
    metrics.metric("runtime.drain_s", run.drain_s, "s");
    for (const auto& [name, r] : {std::pair{"run", &run}, std::pair{"fed", &fed}}) {
      const std::string n = name;
      metrics.metric("cosmos.driver_cpu_s." + n, r->driver_cpu_s, "s");
      metrics.metric("cosmos.route_cpu_s." + n, r->driver.route_cpu_seconds, "s");
      metrics.metric("cosmos.dispatch_cpu_s." + n, r->driver.dispatch_cpu_seconds, "s");
      metrics.metric("cosmos.deliver_cpu_s." + n, r->driver.deliver_cpu_seconds, "s");
      metrics.metric("cosmos.match_wait_s." + n, r->driver.match_wait_seconds, "s");
      metrics.metric("cosmos.residency_p50_ms." + n, r->e2e_ms(50), "ms");
      metrics.metric("cosmos.residency_p99_ms." + n, r->e2e_ms(99), "ms");
    }
    const double covered = run.driver.route_cpu_seconds +
                           run.driver.dispatch_cpu_seconds +
                           run.driver.deliver_cpu_seconds;
    metrics.metric("cosmos.driver_cpu_covered_share",
                   run.driver_cpu_s > 0 ? covered / run.driver_cpu_s : 0.0, "ratio");
    metrics.metric("wire.frames_per_tuple", fed.frames / tuples, "count");
    metrics.metric("wire.frames_dropped", fed.frames_dropped, "count");
    metrics.metric("wire.encode_ns_per_byte", p.encode_ns_per_byte, "ns");
    metrics.metric("wire.decode_ns_per_byte", p.decode_ns_per_byte, "ns");
    metrics.metric("node.worker_cpu_s", last[kFed].worker_cpu_s, "s");
    metrics.metric("journal.fsyncs", dur.journal_fsyncs, "count");
    metrics.metric("journal.data_log_peak_entries", dur.data_log_peak, "count");
    metrics.metric("obs.trace_overhead_ratio",
                   median(traced_wall) / median(untraced_wall), "ratio");
    metrics.metric("obs.spans_dropped", static_cast<double>(spans_dropped), "count");
  }

  JsonObject out;
  out.raw("correct", check.failed == 0 && check.results > 0 ? "true" : "false");
  out.num("attempted", static_cast<double>(check.attempted));
  out.num("failed", static_cast<double>(check.failed));
  out.raw("metrics", metrics.text());
  out.num("tuples", tuples);
  out.num("traced_tuples", static_cast<double>(pw.events.size()));
  out.num("passes", static_cast<double>(passes));
  JsonObject traces;
  for (const auto& [mode, path] : trace_files) traces.str(mode, path);
  out.raw("traces", traces.text());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cosmos_bench: %s\n", e.what());
    return 2;
  }
}
