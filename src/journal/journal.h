// Crash-consistent on-disk run journal for the federated driver.
//
// The driver is the federation's last single point of failure: PRs 8-9 made
// every *worker* death and link fault survivable, but the recovery state that
// makes that possible — the registration log, the routed-execute data log,
// engine checkpoints and the delivered-results floor — lived only in driver
// memory. The journal persists exactly that state as an append-only segment
// file per checkpoint epoch, so a kill -9'd driver restarts with
// `Cosmos::resume_federated` and produces output byte-identical to `push()`.
//
// Segment format (docs/durability.md has the full walkthrough):
//
//   [16-byte header: u32 magic "CJNL" | u16 format version | u16 reserved |
//    u64 segment sequence]
//   then records, each framed as
//   [u32 body length | u32 CRC-32 of body | body = u8 record type + payload]
//
// All integers little-endian, matching the wire codec; registration and
// execute records are stored as the exact wire frames the driver sent, so
// journal replay and live replay share one codec.
//
// Each segment is *self-contained*: it opens with the run Meta record, the
// cached registration frames, the checkpoint's engine-state records and a
// commit record — then the epoch's post-commit tail (executes, chunk-routed
// markers, delivered floors) appends until the next checkpoint rolls a new
// segment. Recovery scans segments newest-first and resumes from the newest
// one holding a valid commit; anything later is recomputed deterministically.
// A torn tail (partial final write) is truncated at the last whole record; a
// CRC-failed or version-skewed segment rolls back to the previous committed
// segment; if no segment commits, recovery throws a typed journal::Error —
// never a crash, never silent divergence.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "stream/schema.h"
#include "wire/messages.h"

namespace cosmos::journal {

// ---------------------------------------------------------------------------
// Errors.

enum class ErrorCode : std::uint8_t {
  kIo,            ///< open/read/write/fsync syscall failure
  kBadMagic,      ///< segment header magic mismatch (not a journal segment)
  kBadVersion,    ///< journal format or wire protocol version skew
  kBadHeader,     ///< segment shorter than its fixed header
  kCorruptRecord, ///< CRC/length/decode failure inside a record
  kNoCheckpoint,  ///< no segment holds a valid checkpoint commit
};

[[nodiscard]] const char* to_string(ErrorCode code) noexcept;

/// Every journal failure surfaces as this typed error: callers branch on
/// code() (tests assert the exact class of corruption detected) and log
/// what() (which embeds the offending path/offset).
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

// ---------------------------------------------------------------------------
// Format constants.

inline constexpr std::uint32_t kSegmentMagic = 0x4C4E4A43u;  // "CJNL"
/// v2: Meta drops the peer-link flag (peer routing is the only data path).
/// v3: an execute record holds one multi-piece kExecute frame — every
/// piece of one (chunk, stream owner, target worker) — in place of one
/// single-batch frame per (run, engine).
inline constexpr std::uint16_t kFormatVersion = 3;
inline constexpr std::size_t kSegmentHeaderBytes = 16;
/// Upper bound on one record body; recovery rejects larger length claims so
/// a corrupt prefix cannot trigger a giant allocation (mirrors the wire
/// codec's kMaxPayloadBytes discipline).
inline constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

enum class RecordType : std::uint8_t {
  kMeta = 1,             ///< run-wide options snapshot; first record always
  kRegistration = 2,     ///< one registration wire frame, verbatim
  kEngineState = 3,      ///< one engine's checkpointed state + exec seq
  kCheckpointCommit = 4, ///< checkpoint cut is durable from here on
  kExecute = 5,          ///< one routed (multi-piece) kExecute frame, verbatim
  kChunkRouted = 6,      ///< chunk fully routed: replay barrier + resume cut
  kDelivered = 7,        ///< per-stream delivered counts, written pre-callback
};

/// Durability policy. Process death (kill -9) never loses write()n data —
/// the page cache belongs to the kernel — so fsync only matters for machine
/// crashes. The default syncs at checkpoint commits: the only records whose
/// loss cannot be recomputed deterministically.
enum class Fsync : std::uint8_t {
  kNever,   ///< never fsync (process-death durability only)
  kCommit,  ///< fsync checkpoint commits + segment directory updates
  kChunk,   ///< kCommit + fsync each chunk-routed marker
  kEvery,   ///< fsync after every record (machine-crash paranoid)
};

// ---------------------------------------------------------------------------
// Record payloads.

/// Run-wide options snapshot, journaled first in every segment. resume
/// overrides its FederationOptions from this — a resumed run must re-cut
/// chunks and re-route batches exactly as the original did.
struct Meta {
  std::uint16_t protocol = wire::kProtocolVersion;  ///< wire version echo
  std::uint64_t batch_size = 0;
  stream::Timestamp tick_ms = 0;
  std::uint32_t worker_shards = 1;
  std::vector<std::string> endpoints;  ///< endpoints[i] = worker i
};

/// End-of-chunk marker written after a chunk's executes are all journaled.
/// Recovery replays only executes *before* the last marker: a partial
/// chunk's executes are discarded and regenerated by re-ingesting events
/// from `events_through` — chunk cutting and routing are deterministic, so
/// the regenerated tail carries identical sequence numbers.
struct ChunkRouted {
  std::uint64_t chunk_index = 0;    ///< the chunk just routed
  std::uint64_t events_through = 0; ///< trace events consumed through it
  stream::Timestamp last_ts = 0;    ///< its last event timestamp (watermark)
};

/// One engine's state at the checkpoint cut (kMigrateOut keep-mode snapshot).
struct EngineState {
  NodeId engine;
  std::uint32_t worker = 0;   ///< hosting worker at the cut
  std::uint64_t exec_seq = 0; ///< next expected execute seq at the cut
  std::vector<wire::UnitStateMsg> units;
};

/// The checkpoint cut itself. Everything the resumed driver needs to restart
/// the ingest loop at the cut: the commit is written (and fsynced, policy
/// permitting) only after every engine-state record landed.
struct CheckpointCommit {
  std::uint64_t checkpoint_id = 0;
  std::uint64_t events_consumed = 0;  ///< trace events ingested at the cut
  std::uint64_t chunk_index = 0;      ///< next chunk index to dispatch
  stream::Timestamp watermark = 0;
  bool has_watermark = false;
  std::uint64_t engine_states = 0;    ///< engine-state records in this cut
};

/// Per-stream delivered-result counts for one drain batch, journaled
/// *before* the callbacks run: on resume the summed counts are the
/// suppression floor, so a result is never delivered twice. (A crash between
/// the journal write and the callback can under-deliver that one batch —
/// at-most-once on arbitrary crash, exact at chunk boundaries, which is the
/// cut the resume differential exercises. docs/durability.md spells it out.)
struct DeliveredCount {
  std::string stream;
  std::uint64_t count = 0;
};

// ---------------------------------------------------------------------------
// Writer.

/// Append-side of the journal; owned by the federated driver. Not
/// thread-safe — every call site is the driver thread (route, checkpoint and
/// drain all happen there).
class Writer {
 public:
  struct Options {
    Fsync fsync = Fsync::kCommit;
    /// Committed segments kept on disk (current + N-1 predecessors); older
    /// ones unlink at commit time. 2 = current plus one rollback target.
    std::size_t retain_segments = 2;
  };

  /// Fresh run: creates `dir` if needed, removes stale segments from a
  /// previous run in the same directory, opens segment 1 and journals meta.
  [[nodiscard]] static std::unique_ptr<Writer> create(const std::string& dir,
                                                      const Meta& meta,
                                                      const Options& opts);

  /// Resumed run: opens segment `segment_seq` (recover()'s next_segment, so
  /// it never collides with surviving files) and journals meta. The caller
  /// re-journals registrations as it re-broadcasts them; the resume
  /// checkpoint then commits into this same segment, making it
  /// self-contained like any other.
  [[nodiscard]] static std::unique_ptr<Writer> continue_at(
      const std::string& dir, std::uint64_t segment_seq, const Meta& meta,
      const Options& opts);

  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Journals one registration frame verbatim and caches it for replay into
  /// every future segment preamble.
  void registration(const wire::Frame& frame);

  /// Journals one routed execute frame verbatim (call before moving its
  /// pieces' batches).
  void execute(const wire::ExecuteMsg& m);

  void chunk_routed(const ChunkRouted& m);

  void delivered(const std::vector<DeliveredCount>& counts);

  /// Starts a checkpoint cut. After the initial commit this opens the next
  /// segment (header + meta + cached registrations) and directs the
  /// engine-state records there; before it (the initial checkpoint of a
  /// fresh or resumed run) the cut commits into the active segment.
  void begin_checkpoint();
  void engine_state(const EngineState& m);
  /// Seals the cut: writes the commit record, fsyncs (policy permitting),
  /// promotes the pending segment to active and prunes old segments.
  void commit_checkpoint(const CheckpointCommit& m);
  /// Abandons a cut begun with begin_checkpoint (a worker died mid-cut and
  /// the driver fell into recovery instead): unlinks the pending segment and
  /// keeps appending to the previous active one.
  void abort_checkpoint();

  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t fsyncs() const noexcept { return fsyncs_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  [[nodiscard]] std::uint64_t segment_seq() const noexcept { return seq_; }

 private:
  Writer(std::string dir, Options opts);

  void open_segment(std::uint64_t seq, bool pending);
  void append(RecordType type, const std::uint8_t* payload, std::size_t size);
  void write_all(int fd, const std::uint8_t* data, std::size_t size,
                 const std::string& path);
  void sync_fd(int fd, const std::string& path);
  void sync_dir();
  void prune_segments();

  std::string dir_;
  Options opts_;
  Meta meta_;

  int fd_ = -1;
  std::string path_;
  std::uint64_t seq_ = 0;
  bool committed_ = false;  ///< active segment holds a commit record

  int pending_fd_ = -1;
  std::string pending_path_;
  std::uint64_t pending_seq_ = 0;

  int dir_fd_ = -1;
  std::vector<std::vector<std::uint8_t>> reg_frames_;  ///< encoded frames
  std::set<std::uint64_t> segments_;  ///< committed segment seqs on disk

  std::uint64_t bytes_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t records_ = 0;
};

// ---------------------------------------------------------------------------
// Recovery.

/// Everything resume_federated needs, reconstructed from the newest segment
/// holding a valid commit. `executes` contains only whole-chunk prefixes
/// (see ChunkRouted); the resume_* fields are the commit's cut advanced
/// through every chunk-routed marker in the tail.
struct RecoveredRun {
  Meta meta;
  std::vector<wire::Frame> registrations;  ///< in original broadcast order
  std::vector<EngineState> engines;
  CheckpointCommit checkpoint;
  /// Post-commit execute frames in journal order; their pieces in that
  /// order are route order per engine.
  std::vector<wire::ExecuteMsg> executes;
  std::vector<DeliveredCount> delivered;   ///< summed post-commit floors

  std::uint64_t resume_events = 0;  ///< re-ingest the trace from here
  std::uint64_t resume_chunk = 0;   ///< next chunk index to dispatch
  stream::Timestamp watermark = 0;
  bool has_watermark = false;

  bool torn_tail = false;               ///< partial final record truncated
  std::uint64_t records_dropped = 0;    ///< partial-chunk executes + tail
  std::uint64_t segments_rolled_back = 0;  ///< newer segments skipped
  std::uint64_t next_segment = 1;       ///< pass to Writer::continue_at
};

/// Scans `dir` newest-segment-first and recovers the newest valid
/// checkpoint. Throws journal::Error when nothing is recoverable: kIo if the
/// directory is unreadable, kNoCheckpoint if it holds no segments or none
/// commits, else the newest segment's specific failure (kBadMagic,
/// kBadVersion, kBadHeader, kCorruptRecord).
[[nodiscard]] RecoveredRun recover(const std::string& dir);

}  // namespace cosmos::journal
