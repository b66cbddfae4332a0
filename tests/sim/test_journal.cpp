// Write-ahead journal container tests (sim/journal.hpp), mirroring the
// snapshot container's negative-direction suite (test_snapshot.cpp):
//
// Positive direction: records round-trip through writer + reader with
// header metadata, sequence numbers and spec payloads intact, across both
// the in-memory and the POSIX file sink.
//
// Negative direction: truncation at *any* byte recovers the clean prefix
// and drops only the torn tail record; any bit flip before the tail record
// is mid-log corruption and throws a structured JournalError naming the
// section and offset; bad magic / version / fingerprint are rejected up
// front; a record behind the clean-shutdown marker and sequence gaps are
// rejected; short writes (disk-full) surface as structured io errors
// instead of silently breaking the zero-loss contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "sim/journal.hpp"
#include "sim/snapshot.hpp"

namespace mlfs {
namespace {

JobSpec sample_spec(int i) {
  JobSpec spec;
  spec.id = 0;  // overwritten at injection
  spec.algorithm = MlAlgorithm::Mlp;
  spec.comm = CommStructure::AllReduce;
  spec.arrival = hours(0.25 * i);
  spec.urgency = 3.0 + i;
  spec.gpu_request = 2;
  spec.max_iterations = 40 + i;
  spec.train_data_mb = 512.0;
  spec.accuracy_requirement = 0.8;
  spec.curve.noise_seed = 11u + static_cast<unsigned>(i);
  spec.seed = 100u + static_cast<unsigned>(i);
  return spec;
}

constexpr std::uint64_t kFp = 0xabcdefu;

std::string sample_journal(int arrivals, bool shutdown) {
  auto sink = std::make_unique<MemoryJournalSink>();
  MemoryJournalSink* mem = sink.get();
  JournalWriter writer(std::move(sink), kFp, /*base_event=*/7, /*first_seq=*/0,
                       FsyncPolicy::GroupCommit, /*group_records=*/2);
  for (int i = 0; i < arrivals; ++i) {
    writer.append_arrival(100u + static_cast<unsigned>(i), static_cast<unsigned>(i),
                          sample_spec(i));
  }
  if (shutdown) writer.append_clean_shutdown(200);
  return mem->bytes();
}

JournalReplay read_bytes(const std::string& bytes, std::uint64_t fingerprint = kFp) {
  std::istringstream is(bytes, std::ios::binary);
  return read_journal(is, fingerprint);
}

std::uint32_t peek_len(const std::string& bytes, std::uint64_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos + i])) << (8 * i);
  }
  return v;
}

/// Byte offset of every frame, walked via the length fields.
std::vector<std::uint64_t> frame_starts(const std::string& bytes) {
  std::vector<std::uint64_t> starts;
  std::uint64_t pos = kJournalHeaderBytes;
  while (pos + 8 <= bytes.size()) {
    starts.push_back(pos);
    pos += 8 + peek_len(bytes, pos) + 8;
  }
  return starts;
}

// ---------------------------------------------------------------- positive

TEST(Journal, SpecSerializationRoundTrips) {
  const JobSpec spec = sample_spec(3);
  std::string bytes;
  {
    io::BinWriter w(bytes);
    write_job_spec(w, spec);
  }
  io::BinReader r(bytes);
  const JobSpec back = read_job_spec(r);
  EXPECT_EQ(back.id, spec.id);
  EXPECT_EQ(back.algorithm, spec.algorithm);
  EXPECT_EQ(back.comm, spec.comm);
  EXPECT_EQ(back.arrival, spec.arrival);
  EXPECT_EQ(back.urgency, spec.urgency);
  EXPECT_EQ(back.max_iterations, spec.max_iterations);
  EXPECT_EQ(back.gpu_request, spec.gpu_request);
  EXPECT_EQ(back.curve.noise_seed, spec.curve.noise_seed);
  EXPECT_EQ(back.seed, spec.seed);

  // And the round-trip is byte-stable (fingerprint determinism).
  std::string again;
  {
    io::BinWriter w(again);
    write_job_spec(w, back);
  }
  EXPECT_EQ(again, bytes);
}

TEST(Journal, RoundTripsHeaderRecordsAndShutdownMarker) {
  const JournalReplay replay = read_bytes(sample_journal(3, /*shutdown=*/true));
  EXPECT_EQ(replay.fingerprint, kFp);
  EXPECT_EQ(replay.base_event, 7u);
  EXPECT_EQ(replay.first_seq, 0u);
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_TRUE(replay.clean_shutdown);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.next_seq, 4u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const JournalRecord& rec = replay.records[i];
    EXPECT_EQ(rec.seq, i);
    EXPECT_EQ(rec.type, JournalRecordType::InjectArrival);
    EXPECT_EQ(rec.event_index, 100u + i);
    EXPECT_EQ(rec.stream_seq, i);
    EXPECT_EQ(rec.spec.seed, 100u + i);
  }
  EXPECT_EQ(replay.records[3].type, JournalRecordType::CleanShutdown);
  EXPECT_EQ(replay.records[3].event_index, 200u);
}

TEST(Journal, HeaderOnlyLogIsValidAndEmpty) {
  const JournalReplay replay = read_bytes(sample_journal(0, false));
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_FALSE(replay.clean_shutdown);
  EXPECT_EQ(replay.next_seq, 0u);
}

TEST(Journal, FileSinkRoundTripsAndReopensForAppend) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mlfs_test_journal_file.wal").string();
  std::filesystem::remove(path);
  {
    JournalWriter writer(std::make_unique<FileJournalSink>(path, /*truncate=*/true), kFp, 0, 0,
                         FsyncPolicy::EveryRecord);
    writer.append_arrival(10, 0, sample_spec(0));
    writer.append_arrival(20, 1, sample_spec(1));
  }
  EXPECT_EQ(read_journal_file(path, kFp).records.size(), 2u);

  // Continuation after recovery: reopen in append mode, no second header.
  {
    JournalWriter writer(std::make_unique<FileJournalSink>(path), kFp, 0, /*first_seq=*/2,
                         FsyncPolicy::GroupCommit, 32, /*write_header=*/false);
    writer.append_arrival(30, 2, sample_spec(2));
    writer.sync();
  }
  const JournalReplay replay = read_journal_file(path, kFp);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[2].seq, 2u);
  EXPECT_EQ(replay.records[2].event_index, 30u);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- torn tail

TEST(Journal, TruncationAtEveryByteRecoversTheCleanPrefix) {
  const std::string bytes = sample_journal(3, false);
  const std::vector<std::uint64_t> starts = frame_starts(bytes);
  ASSERT_EQ(starts.size(), 3u);

  for (std::uint64_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string prefix = bytes.substr(0, cut);
    if (cut < kJournalHeaderBytes) {
      // The header is written in one synced append; a short header is
      // corruption, never a torn record.
      EXPECT_THROW(read_bytes(prefix), JournalError) << "cut at " << cut;
      continue;
    }
    std::size_t complete = 0;
    while (complete < starts.size() &&
           starts[complete] + 8 + peek_len(bytes, starts[complete]) + 8 <= cut) {
      ++complete;
    }
    const bool on_boundary = complete == starts.size() || starts[complete] == cut;
    JournalReplay replay;
    ASSERT_NO_THROW(replay = read_bytes(prefix)) << "cut at " << cut;
    EXPECT_EQ(replay.records.size(), complete) << "cut at " << cut;
    EXPECT_EQ(replay.torn_tail, !on_boundary) << "cut at " << cut;
    for (std::uint64_t i = 0; i < replay.records.size(); ++i) {
      EXPECT_EQ(replay.records[i].seq, i);
    }
    EXPECT_EQ(replay.next_seq, complete) << "cut at " << cut;
  }
}

TEST(Journal, CorruptTailRecordIsDroppedNotFatal) {
  const std::string bytes = sample_journal(3, false);
  const std::vector<std::uint64_t> starts = frame_starts(bytes);
  const std::uint64_t tail = starts.back();

  // Any flip in the tail record must never be silently accepted: the frame
  // header bytes (one atomic append, can't tear) reject as corruption, the
  // payload/crc bytes degrade to a dropped torn tail.
  for (std::uint64_t i = tail; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    try {
      const JournalReplay replay = read_bytes(corrupt);
      EXPECT_TRUE(replay.torn_tail) << "flipped byte " << i;
      EXPECT_EQ(replay.records.size(), 2u) << "flipped byte " << i;
      EXPECT_EQ(replay.torn_offset, tail) << "flipped byte " << i;
    } catch (const JournalError& e) {
      EXPECT_LT(i, tail + 8) << "flipped byte " << i << ": " << e.what();
    }
  }
}

// ---------------------------------------------------------------- corruption

TEST(Journal, AnyBitFlipBeforeTheTailRecordRejected) {
  const std::string bytes = sample_journal(3, false);
  const std::uint64_t tail = frame_starts(bytes).back();
  for (std::uint64_t i = 0; i < tail; ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    if (i >= 20 && i < 28) {
      // The header's base_event field carries no checksum of its own; it is
      // validated one level up, against the snapshot the segment is keyed
      // to (exp/durable.cpp). The flip must still be *visible*.
      EXPECT_NE(read_bytes(corrupt).base_event, 7u) << "flipped byte " << i;
      continue;
    }
    EXPECT_THROW(read_bytes(corrupt), JournalError) << "flipped byte " << i;
  }
}

TEST(Journal, BadMagicNamesHeaderAtOffsetZero) {
  std::string bytes = sample_journal(1, false);
  bytes[0] = 'X';
  try {
    read_bytes(bytes);
    FAIL() << "bad magic accepted";
  } catch (const JournalError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_EQ(e.offset(), 0u);
    EXPECT_NE(std::string(e.what()).find("journal rejected"), std::string::npos);
  }
}

TEST(Journal, UnsupportedVersionRejected) {
  std::string bytes = sample_journal(1, false);
  bytes[8] = static_cast<char>(kJournalVersion + 1);
  try {
    read_bytes(bytes);
    FAIL() << "future version accepted";
  } catch (const JournalError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_EQ(e.offset(), 8u);
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Journal, FingerprintMismatchRejected) {
  try {
    read_bytes(sample_journal(1, false), /*fingerprint=*/0x1234u);
    FAIL() << "fingerprint mismatch accepted";
  } catch (const JournalError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_EQ(e.offset(), 12u);
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST(Journal, RecordAfterCleanShutdownRejected) {
  auto sink = std::make_unique<MemoryJournalSink>();
  MemoryJournalSink* mem = sink.get();
  JournalWriter writer(std::move(sink), kFp, 0, 0);
  writer.append_arrival(10, 0, sample_spec(0));
  writer.append_clean_shutdown(50);
  writer.append_arrival(60, 1, sample_spec(1));  // illegal continuation
  try {
    read_bytes(mem->bytes());
    FAIL() << "record after clean shutdown accepted";
  } catch (const JournalError& e) {
    EXPECT_EQ(e.section(), "record");
    EXPECT_NE(std::string(e.what()).find("clean-shutdown"), std::string::npos);
  }
}

TEST(Journal, SequenceGapRejected) {
  const std::string bytes = sample_journal(3, false);
  const std::vector<std::uint64_t> starts = frame_starts(bytes);
  // Splice the middle record out: framing and checksums stay valid, the
  // sequence numbers no longer increase by one.
  const std::string spliced =
      bytes.substr(0, starts[1]) + bytes.substr(starts[2]);
  try {
    read_bytes(spliced);
    FAIL() << "sequence gap accepted";
  } catch (const JournalError& e) {
    EXPECT_EQ(e.section(), "record");
    EXPECT_NE(std::string(e.what()).find("sequence gap"), std::string::npos);
  }
}

TEST(Journal, ImplausibleRecordLengthRejected) {
  // A huge length with a *valid* length checksum (e.g. hand-rolled bytes)
  // must be rejected by the plausibility bound, not drive an allocation.
  std::string bytes = sample_journal(0, false);
  const std::uint32_t len = kMaxJournalRecordBytes + 1;
  char frame[8];
  for (int i = 0; i < 4; ++i) frame[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  const std::uint64_t h = fnv1a(frame, 4);
  const auto hcrc = static_cast<std::uint32_t>(h ^ (h >> 32));
  for (int i = 0; i < 4; ++i) frame[4 + i] = static_cast<char>((hcrc >> (8 * i)) & 0xff);
  bytes.append(frame, sizeof(frame));
  try {
    read_bytes(bytes);
    FAIL() << "implausible length accepted";
  } catch (const JournalError& e) {
    EXPECT_EQ(e.section(), "record");
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos);
  }
}

TEST(Journal, InjectionRecordWithAnEnumByteOutOfRangeRejected) {
  // One past the last value of each JobSpec enum, in a record that is not
  // the log's last (so it cannot pass for a torn tail).
  using Breakage = void (*)(JobSpec&);
  const std::pair<const char*, Breakage> breakages[] = {
      {"algorithm byte 5", [](JobSpec& s) { s.algorithm = static_cast<MlAlgorithm>(5); }},
      {"comm byte 2", [](JobSpec& s) { s.comm = static_cast<CommStructure>(2); }},
      {"stop policy byte 3", [](JobSpec& s) { s.stop_policy = static_cast<StopPolicy>(3); }},
      {"min allowed policy byte 3",
       [](JobSpec& s) { s.min_allowed_policy = static_cast<StopPolicy>(3); }},
  };
  for (const auto& [what, breakage] : breakages) {
    JobSpec spec = sample_spec(1);
    breakage(spec);
    auto sink = std::make_unique<MemoryJournalSink>();
    MemoryJournalSink* mem = sink.get();
    JournalWriter writer(std::move(sink), kFp, 0, 0);
    writer.append_arrival(1, 0, spec);
    writer.append_clean_shutdown(2);
    try {
      read_bytes(mem->bytes());
      ADD_FAILURE() << "accepted an injection record with " << what;
    } catch (const JournalError& e) {
      EXPECT_EQ(e.section(), "record") << what;
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos) << e.what();
    }
  }
}

// ------------------------------------------------------------- write failure

TEST(Journal, DiskFullShortWriteSurfacesAsStructuredIoError) {
  // Budget for the header plus one full record; the second append must
  // throw with errno-style context instead of silently dropping bytes.
  const std::string intact = sample_journal(1, false);
  auto sink = std::make_unique<MemoryJournalSink>(intact.size() + 10);
  MemoryJournalSink* mem = sink.get();
  JournalWriter writer(std::move(sink), kFp, 7, 0, FsyncPolicy::GroupCommit, 2);
  writer.append_arrival(100, 0, sample_spec(0));
  try {
    writer.append_arrival(101, 1, sample_spec(1));
    FAIL() << "short write swallowed";
  } catch (const JournalError& e) {
    EXPECT_EQ(e.section(), "io");
    EXPECT_NE(std::string(e.what()).find("No space left"), std::string::npos);
  }
  // The on-disk prefix is exactly a torn tail: recovery keeps record 0.
  const JournalReplay replay = read_bytes(mem->bytes());
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].event_index, 100u);
}

TEST(Journal, DiskFullDuringHeaderFailsConstruction) {
  EXPECT_THROW(JournalWriter(std::make_unique<MemoryJournalSink>(10), kFp, 0, 0),
               JournalError);
}

// Snapshot-side write hardening (same satellite): a failing output stream
// must surface as a structured io SnapshotError, not a silent bad file.
TEST(SnapshotWriteHardening, FailingStreamThrowsStructuredIoError) {
  SnapshotWriter writer(0xfeedu);
  writer.section("alpha").u64(42);
  std::ostringstream os(std::ios::binary);
  os.setstate(std::ios::badbit);
  try {
    writer.write(os);
    FAIL() << "write to failed stream accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "io");
  }
}

}  // namespace
}  // namespace mlfs
