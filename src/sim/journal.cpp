#include "sim/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <string_view>

#include "sim/snapshot.hpp"

namespace mlfs {

namespace {

std::string errno_detail(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// 32-bit fold of the FNV-1a hash over the 4 little-endian length bytes.
std::uint32_t length_crc(std::uint32_t len) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  const std::uint64_t h = fnv1a(bytes, sizeof(bytes));
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

JournalError::JournalError(std::string section, std::uint64_t offset,
                           const std::string& detail)
    : ContractViolation("journal rejected [section=" + section +
                        " offset=" + std::to_string(offset) + "]: " + detail),
      section_(std::move(section)),
      offset_(offset) {}

void write_job_spec(io::BinWriter& w, const JobSpec& s) { io::write_fields(w, s); }

JobSpec read_job_spec(io::BinReader& r) {
  JobSpec s;
  io::read_fields(r, s);
  return s;
}

// --------------------------------------------------------------- sinks

FileJournalSink::FileJournalSink(const std::string& path, bool truncate) : path_(path) {
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw JournalError("io", 0, errno_detail("open " + path_ + " failed"));
  }
}

FileJournalSink::~FileJournalSink() {
  if (fd_ >= 0) ::close(fd_);
}

void FileJournalSink::append(const char* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t wrote = ::write(fd_, data + done, n - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw JournalError("io", bytes_written_ + done,
                         errno_detail("write to " + path_ + " failed"));
    }
    if (wrote == 0) {
      throw JournalError("io", bytes_written_ + done,
                         "short write to " + path_ + " (0 bytes accepted)");
    }
    done += static_cast<std::size_t>(wrote);
  }
  bytes_written_ += n;
}

void FileJournalSink::sync() {
  if (::fsync(fd_) != 0) {
    throw JournalError("io", bytes_written_, errno_detail("fsync " + path_ + " failed"));
  }
}

void MemoryJournalSink::append(const char* data, std::size_t n) {
  if (bytes_.size() + n > budget_) {
    // Simulated disk-full: accept the prefix that fits (a short write),
    // then fail the way the POSIX sink surfaces ENOSPC.
    const std::size_t fits = budget_ > bytes_.size() ? budget_ - bytes_.size() : 0;
    bytes_.append(data, fits);
    throw JournalError("io", bytes_.size(),
                       "short write (injected disk-full after " +
                           std::to_string(budget_) + " bytes): No space left on device");
  }
  bytes_.append(data, n);
}

// --------------------------------------------------------------- writer

JournalWriter::JournalWriter(std::unique_ptr<JournalSink> sink,
                             std::uint64_t config_fingerprint, std::uint64_t base_event,
                             std::uint64_t first_seq, FsyncPolicy policy, int group_records,
                             bool write_header)
    : sink_(std::move(sink)),
      base_event_(base_event),
      next_seq_(first_seq),
      policy_(policy),
      group_records_(group_records < 1 ? 1 : group_records) {
  MLFS_EXPECT(sink_ != nullptr);
  if (write_header) {
    std::string bytes;
    io::BinWriter w(bytes);
    w.bytes(kJournalMagic, sizeof(kJournalMagic));
    w.u32(kJournalVersion);
    w.u64(config_fingerprint);
    w.u64(base_event);
    w.u64(first_seq);
    sink_->append(bytes.data(), bytes.size());
    bytes_appended_ += bytes.size();
    // The header must hit stable storage before any record claims this
    // base; an Off policy still gets process-crash durability from the
    // unbuffered sink.
    if (policy_ != FsyncPolicy::Off) sink_->sync();
  }
}

std::uint64_t JournalWriter::append_frame(const JournalRecord& record, bool force_sync) {
  // The whole frame is built in place: (len, hcrc) placeholders, the
  // payload, then the back-patched header and the payload checksum.
  std::string frame;
  io::BinWriter w(frame);
  w.u64(0);
  w.u64(record.seq);
  w.u8(static_cast<std::uint8_t>(record.type));
  w.u64(record.event_index);
  if (record.type == JournalRecordType::InjectArrival) {
    w.u64(record.stream_seq);
    write_job_spec(w, record.spec);
  }
  const std::size_t payload_size = frame.size() - 8;
  MLFS_EXPECT(payload_size <= kMaxJournalRecordBytes);
  const auto len = static_cast<std::uint32_t>(payload_size);
  w.patch_u32(0, len);
  w.patch_u32(4, length_crc(len));
  w.u64(fnv1a(frame.data() + 8, payload_size));

  // One append call per frame: a crash between frames leaves a clean
  // prefix; a crash inside the sink leaves at most one torn tail record,
  // which recovery drops.
  sink_->append(frame.data(), frame.size());
  bytes_appended_ += frame.size();
  ++next_seq_;
  ++since_sync_;
  const bool due = policy_ == FsyncPolicy::EveryRecord ||
                   (policy_ == FsyncPolicy::GroupCommit &&
                    (force_sync || since_sync_ >= group_records_));
  if (due) sync();
  return record.seq;
}

std::uint64_t JournalWriter::append_arrival(std::uint64_t event_index,
                                            std::uint64_t stream_seq, const JobSpec& spec) {
  JournalRecord rec;
  rec.seq = next_seq_;
  rec.type = JournalRecordType::InjectArrival;
  rec.event_index = event_index;
  rec.stream_seq = stream_seq;
  rec.spec = spec;
  return append_frame(rec, /*force_sync=*/false);
}

std::uint64_t JournalWriter::append_barrier(std::uint64_t snapshot_event) {
  JournalRecord rec;
  rec.seq = next_seq_;
  rec.type = JournalRecordType::SnapshotBarrier;
  rec.event_index = snapshot_event;
  return append_frame(rec, /*force_sync=*/true);
}

std::uint64_t JournalWriter::append_clean_shutdown(std::uint64_t event_index) {
  JournalRecord rec;
  rec.seq = next_seq_;
  rec.type = JournalRecordType::CleanShutdown;
  rec.event_index = event_index;
  return append_frame(rec, /*force_sync=*/true);
}

std::uint64_t JournalWriter::append_record(const JournalRecord& record) {
  MLFS_EXPECT(record.seq == next_seq_);
  return append_frame(record, /*force_sync=*/false);
}

void JournalWriter::sync() {
  sink_->sync();
  since_sync_ = 0;
}

// --------------------------------------------------------------- reader

JournalReplay read_journal(std::istream& is, std::uint64_t expected_fingerprint) {
  const std::string bytes = io::read_all(is);
  io::BinReader r(bytes);
  JournalReplay out;

  // Header. The writer emits it in one synced append, so a short header is
  // corruption, not a torn write.
  if (bytes.size() < kJournalHeaderBytes) {
    throw JournalError("header", bytes.size(),
                       "truncated header: need " + std::to_string(kJournalHeaderBytes) +
                           " bytes, have " + std::to_string(bytes.size()));
  }
  if (r.view(sizeof(kJournalMagic)) != std::string_view(kJournalMagic, sizeof(kJournalMagic))) {
    throw JournalError("header", 0, "bad magic (not a MLFS journal file)");
  }
  const std::uint32_t version = r.u32();
  if (version != kJournalVersion) {
    throw JournalError("header", 8,
                       "unsupported journal version " + std::to_string(version) +
                           " (this build reads version " + std::to_string(kJournalVersion) +
                           ")");
  }
  out.fingerprint = r.u64();
  out.base_event = r.u64();
  out.first_seq = r.u64();
  if (out.fingerprint != expected_fingerprint) {
    throw JournalError("header", 12,
                       "config fingerprint mismatch: journal was written under a different "
                       "cluster/engine/workload/scheduler configuration");
  }

  std::uint64_t expected_seq = out.first_seq;
  while (!r.at_end()) {
    const std::uint64_t record_start = r.pos();
    if (r.remaining() < 8) {
      // Not even a full (len, hcrc) header: a torn append of the final
      // record — drop it.
      out.torn_tail = true;
      out.torn_offset = record_start;
      break;
    }
    const std::uint32_t len = r.u32();
    const std::uint32_t hcrc = r.u32();
    if (length_crc(len) != hcrc) {
      // The writer emits the 8 header bytes atomically within one append,
      // so a mismatch is a flipped bit, not a torn write — and a corrupt
      // length could otherwise swallow valid later records silently.
      throw JournalError("record", record_start, "corrupt frame header (length checksum)");
    }
    if (len > kMaxJournalRecordBytes) {
      throw JournalError("record", record_start,
                         "implausible record length " + std::to_string(len));
    }
    if (r.remaining() < static_cast<std::uint64_t>(len) + 8) {
      out.torn_tail = true;  // frame body/crc torn mid-append
      out.torn_offset = record_start;
      break;
    }
    const std::string_view payload = r.view(len);
    const std::uint64_t stored_crc = r.u64();
    const bool is_last = r.at_end();
    if (fnv1a(payload.data(), payload.size()) != stored_crc) {
      if (is_last) {
        // Corrupt final record: indistinguishable from a torn tail at the
        // storage layer — drop only it, keep everything before.
        out.torn_tail = true;
        out.torn_offset = record_start;
        break;
      }
      throw JournalError("record", record_start,
                         "payload checksum mismatch with valid records following "
                         "(mid-log corruption)");
    }

    JournalRecord rec;
    try {
      io::BinReader pr(payload);
      rec.seq = pr.u64();
      const std::uint8_t type = pr.u8();
      if (type < static_cast<std::uint8_t>(JournalRecordType::InjectArrival) ||
          type > static_cast<std::uint8_t>(JournalRecordType::CleanShutdown)) {
        throw JournalError("record", record_start,
                           "unknown record type " + std::to_string(type));
      }
      rec.type = static_cast<JournalRecordType>(type);
      rec.event_index = pr.u64();
      if (rec.type == JournalRecordType::InjectArrival) {
        rec.stream_seq = pr.u64();
        rec.spec = read_job_spec(pr);
      }
    } catch (const JournalError&) {
      throw;
    } catch (const ContractViolation& e) {
      throw JournalError("record", record_start,
                         std::string("malformed record payload: ") + e.what());
    }
    if (rec.seq != expected_seq) {
      throw JournalError("record", record_start,
                         "sequence gap: expected " + std::to_string(expected_seq) +
                             ", found " + std::to_string(rec.seq));
    }
    if (out.clean_shutdown) {
      throw JournalError("record", record_start,
                         "record after the clean-shutdown marker");
    }
    ++expected_seq;
    if (rec.type == JournalRecordType::CleanShutdown) out.clean_shutdown = true;
    out.records.push_back(std::move(rec));
  }
  out.next_seq = expected_seq;
  return out;
}

JournalReplay read_journal_file(const std::string& path, std::uint64_t expected_fingerprint) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw JournalError("io", 0, errno_detail("open " + path + " failed"));
  }
  return read_journal(is, expected_fingerprint);
}

}  // namespace mlfs
