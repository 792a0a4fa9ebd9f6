// Serving a worker's connections: NodeServer is the full daemon. It keeps
// the listener open for the whole driver session and classifies every
// inbound connection by its first frame: kHello starts the (single) driver
// session, kPeerHello starts a peer-link receive loop feeding the same Site
// (acknowledged with kPeerHelloAck, so a dialer can tell a *serving* peer
// from a listener backlog that merely accepted the connect). Outbound peer
// links are dialed lazily from the driver-distributed kPeerTable when the
// Site ships an execute to another worker; a dead peer link is re-dialed
// once per ship (a respawned worker re-binds the same endpoint). When both
// attempts fail the pair is declared down: the worker reports kPeerDown to
// the driver, which replays the lost shipments from its data log and
// re-routes the pair's future traffic through the star — a partitioned or
// hung peer link degrades, it does not wedge or silently drop.
#pragma once

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "wire/channel.h"
#include "wire/messages.h"
#include "wire/socket.h"

namespace cosmos::node {

class Site;

/// The daemon's connection fabric around one Site. Not movable; the
/// listener is borrowed and stays open (and accepting peer dials) until
/// the driver session ends.
class NodeServer {
 public:
  struct Options {
    /// Deterministic fault schedule applied to this worker's driver
    /// channel (its own sends through `send:` rules, inbound driver frames
    /// through `recv:` rules). Empty = no faults.
    fault::FaultPlan driver_fault;
    /// Fault schedule for every *outbound* peer link. One persistent
    /// schedule per destination worker: its frame counters survive
    /// re-dials, so an injected partition stays a partition instead of
    /// resetting on every reconnect.
    fault::FaultPlan peer_fault;
  };

  explicit NodeServer(wire::Listener& listener,
                      Options options = {});  // out of line: Site is
                                              // incomplete here
  ~NodeServer();
  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// Accepts and serves until the driver session (the connection opening
  /// with kHello) ends, then tears every link down. Returns true for an
  /// orderly session end, false when it died on an error.
  bool run();

 private:
  struct PeerIn {
    wire::Socket sock;
    std::thread th;
  };

  void accept_loop();
  void drive_session(wire::Socket sock, wire::Frame hello_frame);
  void peer_in_loop(wire::Socket& sock);
  /// Blocks until the driver session's Site exists (nullptr on shutdown).
  Site* wait_site();
  /// Lazy-dial + send on the peer link to `worker`; one re-dial on
  /// failure, then the frame is dropped.
  /// One outbound peer link. `dead` is flipped by the channel's reader at
  /// EOF, the instant the peer dies — ship() checks it *before* enqueueing,
  /// because FrameChannel::send only enqueues and the sender thread's
  /// later EPIPE would drop the frame silently. Frames lost in the death
  /// instant itself are re-sent by the driver's data-log replay (their
  /// route decisions predate the recovery), so eager detection here plus
  /// the replay together leave no silent-drop window.
  struct PeerOut {
    std::unique_ptr<wire::FrameChannel> ch;
    std::shared_ptr<std::atomic<bool>> dead;
  };
  void ship(std::uint32_t worker, wire::Frame frame);
  PeerOut dial_peer(std::uint32_t worker);
  /// Declares the outbound link to `worker` dead (under peer_out_mu_):
  /// future ships to it are skipped and a kPeerDown naming the pair goes to
  /// the driver (once), which replays + re-routes through the star.
  void mark_peer_down(std::uint32_t worker, const std::string& reason);
  /// Folds the channel's counters into the retired totals and drops it.
  void retire_peer_out(PeerOut& slot);
  /// {frames, bytes} sent over peer links (live channels + retired ones).
  std::pair<std::uint64_t, std::uint64_t> peer_traffic();
  void shutdown();

  wire::Listener& listener_;
  Options options_;
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable site_cv_;
  std::condition_variable done_cv_;
  Site* site_ = nullptr;                    ///< set while the session runs
  std::unique_ptr<Site> site_owned_;        ///< destroyed after peers join
  std::unique_ptr<wire::FrameChannel> driver_channel_;
  std::thread driver_thread_;
  bool driver_started_ = false;
  bool driver_done_ = false;
  bool driver_ok_ = true;
  bool shutting_down_ = false;
  wire::PeerTableMsg table_;
  std::list<PeerIn> peer_ins_;

  /// Written once in drive_session (before any ship can happen).
  std::uint32_t worker_index_ = 0;
  std::int64_t send_delay_ms_ = 0;
  /// Liveness knobs from the driver's kHello; peer-out links inherit them.
  std::int64_t heartbeat_every_ms_ = 0;
  std::int64_t liveness_deadline_ms_ = 0;

  std::mutex peer_out_mu_;
  std::map<std::uint32_t, PeerOut> peer_out_;
  /// Per-destination fault schedules (counters persist across re-dials).
  std::map<std::uint32_t, fault::LinkFaultPtr> peer_faults_;
  /// Destinations declared dead; the driver owns their traffic now.
  std::set<std::uint32_t> peer_down_;
  std::uint64_t retired_peer_frames_ = 0;  ///< counters of dropped channels
  std::uint64_t retired_peer_bytes_ = 0;
};

}  // namespace cosmos::node
