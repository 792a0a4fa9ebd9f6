// Journal corruption matrix: every class of on-disk damage must surface as
// a typed journal::Error or a clean rollback to the last valid checkpoint —
// never a crash, a hang, or silent divergence. The cases mirror
// docs/durability.md: torn tail (truncate at the last whole record),
// flipped CRC byte, truncated header, stale format version, wrong magic,
// and a commitless / empty directory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "journal/journal.h"
#include "wire/messages.h"

namespace cosmos::journal {
namespace {

class JournalCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/cosmos_journal_corrupt_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// The single segment path of a fresh one-segment journal.
  [[nodiscard]] std::string seg_path(std::uint64_t seq = 1) const {
    char name[32];
    std::snprintf(name, sizeof(name), "seg-%08llu.cjl",
                  static_cast<unsigned long long>(seq));
    return dir_ + "/" + name;
  }

  static std::vector<std::uint8_t> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  static void dump(const std::string& path,
                   const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

runtime::TupleBatch one_row(const std::string& stream, stream::Timestamp ts) {
  runtime::TupleBatch batch{stream};
  stream::Tuple t;
  t.ts = ts;
  t.values.push_back(stream::Value{std::int64_t{7}});
  batch.push_back(std::move(t));
  return batch;
}

wire::ExecuteMsg exec_msg(std::uint64_t seq) {
  wire::ExecuteMsg exec;
  const auto ts = 10 + static_cast<stream::Timestamp>(seq);
  exec.pieces.push_back({NodeId{3}, seq, 0, one_row("S3", ts)});
  return exec;
}

/// One committed segment with a two-chunk tail; returns its byte size so
/// tests can damage precise regions.
void write_valid_journal(const std::string& dir) {
  Meta meta;
  meta.batch_size = 16;
  meta.endpoints = {"unix:/tmp/w0.sock"};
  auto w = Writer::create(dir, meta, Writer::Options{});
  w->commit_checkpoint({});
  w->execute(exec_msg(0));
  w->chunk_routed({0, 5, 60'000});
  w->execute(exec_msg(1));
  w->chunk_routed({1, 9, 120'000});
}

ErrorCode recover_error(const std::string& dir) {
  try {
    (void)recover(dir);
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "recover() unexpectedly succeeded";
  return ErrorCode::kIo;
}

TEST_F(JournalCorruptionTest, TornTailIsTruncatedAtLastWholeRecord) {
  write_valid_journal(dir_);
  auto bytes = slurp(seg_path());
  // Chop mid-record: recovery keeps everything before the tear.
  bytes.resize(bytes.size() - 3);
  dump(seg_path(), bytes);

  const auto rec = recover(dir_);
  EXPECT_TRUE(rec.torn_tail);
  EXPECT_GE(rec.records_dropped, 1u);
  // The tear ate chunk 1's marker, so its execute is discarded and the
  // resume cut stays at chunk 0's.
  ASSERT_EQ(rec.executes.size(), 1u);
  EXPECT_EQ(rec.resume_events, 5u);
  EXPECT_EQ(rec.resume_chunk, 1u);
}

TEST_F(JournalCorruptionTest, FlippedByteFailsCrcAndDropsTheTail) {
  write_valid_journal(dir_);
  auto bytes = slurp(seg_path());
  // Flip one byte well into the post-commit tail: the containing record
  // fails its CRC and the scan stops there, keeping the valid prefix.
  bytes[bytes.size() - 10] ^= 0x01;
  dump(seg_path(), bytes);

  const auto rec = recover(dir_);
  EXPECT_GE(rec.records_dropped, 1u);
  EXPECT_LE(rec.resume_events, 5u);  // chunk 1's marker did not survive
}

TEST_F(JournalCorruptionTest, FlippedByteBeforeCommitRollsBackASegment) {
  write_valid_journal(dir_);
  // Roll a second segment, then corrupt its preamble (before its commit):
  // recovery must fall back to segment 1's cut and report the rollback.
  {
    Meta meta;
    meta.batch_size = 16;
    meta.endpoints = {"unix:/tmp/w0.sock"};
    auto w = Writer::continue_at(dir_, 2, meta, Writer::Options{});
    CheckpointCommit c;
    c.checkpoint_id = 2;
    c.events_consumed = 9;
    c.chunk_index = 2;
    w->commit_checkpoint(c);
  }
  auto bytes = slurp(seg_path(2));
  bytes[kSegmentHeaderBytes + 12] ^= 0xFF;  // inside the meta record body
  dump(seg_path(2), bytes);

  const auto rec = recover(dir_);
  EXPECT_EQ(rec.segments_rolled_back, 1u);
  EXPECT_EQ(rec.checkpoint.checkpoint_id, 0u);  // segment 1's initial cut
  EXPECT_EQ(rec.resume_events, 9u);             // via its chunk markers
  EXPECT_EQ(rec.next_segment, 3u);              // never reuse a damaged seq
}

TEST_F(JournalCorruptionTest, TruncatedHeaderIsTyped) {
  write_valid_journal(dir_);
  auto bytes = slurp(seg_path());
  bytes.resize(kSegmentHeaderBytes - 4);
  dump(seg_path(), bytes);
  EXPECT_EQ(recover_error(dir_), ErrorCode::kBadHeader);
}

TEST_F(JournalCorruptionTest, StaleFormatVersionIsTyped) {
  write_valid_journal(dir_);
  auto bytes = slurp(seg_path());
  bytes[4] = static_cast<std::uint8_t>(kFormatVersion + 1);  // u16 LE lo byte
  dump(seg_path(), bytes);
  EXPECT_EQ(recover_error(dir_), ErrorCode::kBadVersion);
}

TEST_F(JournalCorruptionTest, WrongMagicIsTyped) {
  write_valid_journal(dir_);
  auto bytes = slurp(seg_path());
  bytes[0] = 0x00;
  dump(seg_path(), bytes);
  EXPECT_EQ(recover_error(dir_), ErrorCode::kBadMagic);
}

TEST_F(JournalCorruptionTest, HeaderSequenceMismatchIsTyped) {
  write_valid_journal(dir_);
  auto bytes = slurp(seg_path());
  bytes[8] ^= 0x01;  // header seq no longer matches the filename
  dump(seg_path(), bytes);
  EXPECT_EQ(recover_error(dir_), ErrorCode::kBadHeader);
}

TEST_F(JournalCorruptionTest, EmptyDirectoryIsTyped) {
  EXPECT_EQ(recover_error(dir_), ErrorCode::kNoCheckpoint);
}

TEST_F(JournalCorruptionTest, MissingDirectoryIsIo) {
  EXPECT_EQ(recover_error(dir_ + "/nope"), ErrorCode::kIo);
}

TEST_F(JournalCorruptionTest, CommitlessSegmentIsTyped) {
  // A crash can abandon a pending segment before its commit; alone it
  // holds no cut.
  Meta meta;
  meta.endpoints = {"unix:/tmp/w0.sock"};
  { auto w = Writer::create(dir_, meta, Writer::Options{}); }
  EXPECT_EQ(recover_error(dir_), ErrorCode::kNoCheckpoint);
}

TEST_F(JournalCorruptionTest, AbandonedPendingSegmentRollsBack) {
  write_valid_journal(dir_);
  // A pending segment the crash abandoned mid-checkpoint, then damaged:
  // recovery rolls back to segment 1 either way.
  Meta meta;
  meta.endpoints = {"unix:/tmp/w0.sock"};
  {
    auto w = Writer::continue_at(dir_, 2, meta, Writer::Options{});
  }
  const auto rec = recover(dir_);
  EXPECT_EQ(rec.segments_rolled_back, 1u);
  EXPECT_EQ(rec.resume_events, 9u);
}

}  // namespace
}  // namespace cosmos::journal
