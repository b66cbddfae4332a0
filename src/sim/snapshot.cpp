#include "sim/snapshot.hpp"

#include <cerrno>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>

namespace mlfs {

namespace {

/// errno context for failed stream writes (disk full, short write, I/O
/// error); errno may be stale for non-file streams, so it is advisory.
std::string write_failure_detail(const std::string& what) {
  std::string detail = what;
  if (errno != 0) {
    detail += " (errno: ";
    detail += std::strerror(errno);
    detail += ")";
  }
  return detail;
}

}  // namespace

SnapshotError::SnapshotError(std::string section, std::uint64_t offset,
                             const std::string& detail)
    : ContractViolation("snapshot rejected [section=" + section +
                        " offset=" + std::to_string(offset) + "]: " + detail),
      section_(std::move(section)),
      offset_(offset) {}

std::uint64_t fnv1a(const char* data, std::size_t size, std::uint64_t h) {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

io::BinWriter& SnapshotWriter::section(const std::string& name) {
  for (const Section& s : sections_) {
    MLFS_EXPECT(s.name != name);
  }
  sections_.emplace_back();
  sections_.back().name = name;
  current_ = std::make_unique<io::BinWriter>(sections_.back().payload);
  return *current_;
}

void SnapshotWriter::write(std::ostream& os) const {
  std::ostringstream body;
  io::BinWriter w(body);
  w.bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.u32(kSnapshotVersion);
  w.u64(fingerprint_);
  w.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    w.u32(static_cast<std::uint32_t>(s.name.size()));
    w.bytes(s.name.data(), s.name.size());
    const std::string payload = s.payload.str();
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
  }
  const std::string bytes = body.str();
  if (!body) {
    throw SnapshotError("io", 0, "snapshot serialization failed (out of memory?)");
  }
  const std::uint64_t checksum = fnv1a(bytes.data(), bytes.size());
  errno = 0;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) {
    throw SnapshotError("io", 0, write_failure_detail("snapshot body write failed"));
  }
  io::BinWriter tail(os);
  tail.u64(checksum);
  os.flush();
  // A short write or disk-full must fail loudly here, not surface later as
  // an inexplicable truncated-file rejection during restore.
  if (!os) {
    throw SnapshotError("io", bytes.size(), write_failure_detail("snapshot checksum write failed"));
  }
}

namespace {

// Bounds-checked little-endian cursor over the slurped file, reporting the
// absolute byte offset of the first defect.
struct FileCursor {
  const std::string& bytes;
  std::uint64_t pos = 0;

  [[noreturn]] void fail(const char* section, const std::string& detail) const {
    throw SnapshotError(section, pos, detail);
  }

  void need(std::uint64_t n, const char* section, const char* what) {
    if (pos + n > bytes.size()) {
      fail(section, std::string("truncated file: need ") + std::to_string(n) + " bytes for " +
                        what + ", have " + std::to_string(bytes.size() - pos));
    }
  }

  std::uint32_t u32(const char* section, const char* what) {
    need(4, section, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[pos + i])) << (8 * i);
    }
    pos += 4;
    return v;
  }

  std::uint64_t u64(const char* section, const char* what) {
    need(8, section, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[pos + i])) << (8 * i);
    }
    pos += 8;
    return v;
  }

  std::string raw(std::uint64_t n, const char* section, const char* what) {
    need(n, section, what);
    std::string s = bytes.substr(static_cast<std::size_t>(pos), static_cast<std::size_t>(n));
    pos += n;
    return s;
  }
};

}  // namespace

SnapshotReader::SnapshotReader(std::istream& is, std::uint64_t expected_fingerprint) {
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  FileCursor c{bytes};

  const std::string magic = c.raw(sizeof(kSnapshotMagic), "header", "magic");
  if (std::memcmp(magic.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    throw SnapshotError("header", 0, "bad magic (not a MLFS snapshot file)");
  }
  version_ = c.u32("header", "version");
  if (version_ != kSnapshotVersion) {
    throw SnapshotError("header", 8,
                        "unsupported snapshot version " + std::to_string(version_) +
                            " (this build reads version " + std::to_string(kSnapshotVersion) +
                            ")");
  }
  fingerprint_ = c.u64("header", "fingerprint");

  const std::uint64_t count_at = c.pos;
  const std::uint32_t count = c.u32("header", "section count");
  // Each framed section takes at least a name length and a payload length:
  // bound the count by the bytes that remain before reserving, so a
  // corrupt count cannot demand gigabytes.
  constexpr std::uint64_t kMinSectionBytes = 4 + 8;
  const std::uint64_t remaining = bytes.size() - c.pos;
  if (count > remaining / kMinSectionBytes) {
    throw SnapshotError("header", count_at,
                        "implausible section count " + std::to_string(count) + " for " +
                            std::to_string(remaining) + " remaining bytes");
  }
  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t name_at = c.pos;
    const std::uint32_t name_len = c.u32("header", "section name length");
    if (name_len > 256) {
      throw SnapshotError("header", name_at,
                          "implausible section name length " + std::to_string(name_len));
    }
    Section s;
    s.name = c.raw(name_len, "header", "section name");
    const std::uint64_t payload_len = c.u64(s.name.c_str(), "section payload length");
    s.offset = c.pos;
    s.payload = c.raw(payload_len, s.name.c_str(), "section payload");
    sections_.push_back(std::move(s));
  }

  // Trailing checksum covers everything before it; trailing garbage after
  // it is also a defect (a partially-overwritten file must not pass).
  const std::uint64_t checksum_at = c.pos;
  const std::uint64_t stored = c.u64("checksum", "checksum");
  if (c.pos != bytes.size()) {
    throw SnapshotError("checksum", c.pos,
                        std::to_string(bytes.size() - c.pos) + " trailing bytes after checksum");
  }
  const std::uint64_t computed = fnv1a(bytes.data(), static_cast<std::size_t>(checksum_at));
  if (stored != computed) {
    throw SnapshotError("checksum", checksum_at, "checksum mismatch (file corrupt)");
  }

  // Fingerprint last: only a structurally valid file earns the config
  // comparison, so the error message is trustworthy.
  if (fingerprint_ != expected_fingerprint) {
    throw SnapshotError("header", 12,
                        "config fingerprint mismatch: snapshot was written under a different "
                        "cluster/engine/workload/scheduler configuration");
  }
}

const SnapshotReader::Section* SnapshotReader::find(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool SnapshotReader::has_section(const std::string& name) const {
  return find(name) != nullptr;
}

std::istringstream SnapshotReader::section(const std::string& name) const {
  const Section* s = find(name);
  if (s == nullptr) {
    throw SnapshotError(name, 0, "required section missing from snapshot");
  }
  return std::istringstream(s->payload);
}

}  // namespace mlfs
