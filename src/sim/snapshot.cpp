#include "sim/snapshot.hpp"

#include <bit>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>

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

std::uint64_t word_hash64(const char* data, std::size_t size) {
  // xxHash64's primes and lane round; four independent lanes keep four
  // multiplies in flight, so the pass runs at memory speed instead of one
  // dependent multiply per byte.
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;
  const auto round = [](std::uint64_t acc, std::uint64_t word) {
    return std::rotl(acc + word * kP2, 31) * kP1;
  };
  std::uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    for (std::size_t l = 0; l < 4; ++l) {
      std::uint64_t word;
      std::memcpy(&word, data + i + 8 * l, sizeof(word));  // little-endian host (binio.hpp)
      lane[l] = round(lane[l], word);
    }
  }
  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) + std::rotl(lane[2], 12) +
                    std::rotl(lane[3], 18);
  h = fnv1a(data + i, size - i, h ^ (static_cast<std::uint64_t>(size) * kP5));
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

std::uint64_t snapshot_checksum(std::uint32_t version, const char* data, std::size_t size) {
  return version >= 7 ? word_hash64(data, size) : fnv1a(data, size);
}

namespace {

/// Header bytes before the section count: magic, version, fingerprint.
constexpr std::size_t kCountOffset = sizeof(kSnapshotMagic) + 4 + 8;

}  // namespace

SnapshotWriter::SnapshotWriter(std::uint64_t config_fingerprint) {
  w_.bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  w_.u32(kSnapshotVersion);
  w_.u64(config_fingerprint);
  w_.u32(0);  // section count, patched by write()
}

void SnapshotWriter::close_section() {
  if (names_.empty()) return;
  w_.patch_u64(length_at_, w_.size() - (length_at_ + 8));
}

io::BinWriter& SnapshotWriter::section(const std::string& name) {
  MLFS_EXPECT(!sealed_);
  for (const std::string& n : names_) {
    MLFS_EXPECT(n != name);
  }
  close_section();
  names_.push_back(name);
  w_.u32(static_cast<std::uint32_t>(name.size()));
  w_.bytes(name.data(), name.size());
  length_at_ = w_.size();
  w_.u64(0);  // payload length, patched when the section closes
  return w_;
}

void SnapshotWriter::write(std::ostream& os) {
  MLFS_EXPECT(!sealed_);
  sealed_ = true;
  close_section();
  w_.patch_u32(kCountOffset, static_cast<std::uint32_t>(names_.size()));
  w_.u64(snapshot_checksum(kSnapshotVersion, bytes_.data(), bytes_.size()));
  errno = 0;
  // A short write or disk-full must fail loudly here, not surface later as
  // an inexplicable truncated-file rejection during restore. The offset is
  // how far the write got.
  const std::size_t written = io::write_all(os, bytes_);
  if (written != bytes_.size()) {
    throw SnapshotError("io", written,
                        write_failure_detail("snapshot write failed after " +
                                             std::to_string(written) + " of " +
                                             std::to_string(bytes_.size()) + " bytes"));
  }
  os.flush();
  if (!os) {
    throw SnapshotError("io", written, write_failure_detail("snapshot flush failed"));
  }
}

namespace {

/// Bounds check ahead of a BinReader read, so a truncated file is reported
/// as a SnapshotError at the absolute offset of the defect rather than as
/// a bare read-past-end.
void need(const io::BinReader& r, std::uint64_t n, const std::string& section,
          const char* what) {
  if (r.remaining() < n) {
    throw SnapshotError(section, r.pos(),
                        std::string("truncated file: need ") + std::to_string(n) +
                            " bytes for " + what + ", have " + std::to_string(r.remaining()));
  }
}

}  // namespace

SnapshotReader::SnapshotReader(std::istream& is, std::uint64_t expected_fingerprint)
    : bytes_(io::read_all(is)) {
  io::BinReader r(bytes_);

  need(r, sizeof(kSnapshotMagic), "header", "magic");
  if (r.view(sizeof(kSnapshotMagic)) !=
      std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic))) {
    throw SnapshotError("header", 0, "bad magic (not a MLFS snapshot file)");
  }
  need(r, 4, "header", "version");
  version_ = r.u32();
  if (version_ < kOldestReadableSnapshotVersion || version_ > kSnapshotVersion) {
    throw SnapshotError("header", 8,
                        "unsupported snapshot version " + std::to_string(version_) +
                            " (this build reads versions " +
                            std::to_string(kOldestReadableSnapshotVersion) + " to " +
                            std::to_string(kSnapshotVersion) + ")");
  }
  need(r, 8, "header", "fingerprint");
  fingerprint_ = r.u64();

  const std::uint64_t count_at = r.pos();
  need(r, 4, "header", "section count");
  const std::uint32_t count = r.u32();
  // Each framed section takes at least a name length and a payload length:
  // bound the count by the bytes that remain before reserving, so a
  // corrupt count cannot demand gigabytes.
  constexpr std::uint64_t kMinSectionBytes = 4 + 8;
  if (count > r.remaining() / kMinSectionBytes) {
    throw SnapshotError("header", count_at,
                        "implausible section count " + std::to_string(count) + " for " +
                            std::to_string(r.remaining()) + " remaining bytes");
  }
  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t name_at = r.pos();
    need(r, 4, "header", "section name length");
    const std::uint32_t name_len = r.u32();
    if (name_len > 256) {
      throw SnapshotError("header", name_at,
                          "implausible section name length " + std::to_string(name_len));
    }
    Section s;
    need(r, name_len, "header", "section name");
    s.name = std::string(r.view(name_len));
    need(r, 8, s.name, "section payload length");
    s.size = r.u64();
    s.offset = r.pos();
    need(r, s.size, s.name, "section payload");
    r.view(s.size);
    sections_.push_back(std::move(s));
  }

  // Trailing checksum covers everything before it; trailing garbage after
  // it is also a defect (a partially-overwritten file must not pass).
  const std::uint64_t checksum_at = r.pos();
  need(r, 8, "checksum", "checksum");
  const std::uint64_t stored = r.u64();
  if (!r.at_end()) {
    throw SnapshotError("checksum", r.pos(),
                        std::to_string(r.remaining()) + " trailing bytes after checksum");
  }
  const std::uint64_t computed =
      snapshot_checksum(version_, bytes_.data(), static_cast<std::size_t>(checksum_at));
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

io::BinReader SnapshotReader::section(const std::string& name) const {
  const Section* s = find(name);
  if (s == nullptr) {
    throw SnapshotError(name, 0, "required section missing from snapshot");
  }
  return io::BinReader(std::string_view(bytes_).substr(static_cast<std::size_t>(s->offset),
                                                       static_cast<std::size_t>(s->size)));
}

}  // namespace mlfs
