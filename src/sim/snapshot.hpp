// Versioned binary snapshot container for SimEngine::save_snapshot /
// restore_snapshot (see DESIGN.md, "Snapshot & restore").
//
// File layout (little-endian throughout):
//
//   magic    8 bytes  "MLFSSNAP"
//   version  u32      kSnapshotVersion
//   fprint   u64      config fingerprint of the engine that wrote it
//   count    u32      number of sections
//   sections count ×  [ u32 name length | name bytes |
//                       u64 payload length | payload bytes ]
//   checksum u64      snapshot_checksum(version, every byte before this
//                     field): word_hash64 from v7, FNV-1a in v5 and v6
//
// SnapshotReader reads and validates the WHOLE file — magic, version,
// fingerprint, section framing, checksum — before handing out a single
// section, so a truncated/corrupt/mismatched snapshot is rejected up front
// with a structured SnapshotError and the engine being restored is never
// partially mutated.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/expect.hpp"

namespace mlfs {

inline constexpr char kSnapshotMagic[8] = {'M', 'L', 'F', 'S', 'S', 'N', 'A', 'P'};
/// v3: added the "predict" section (PredictionService curve-fit caches +
/// counters) alongside the existing "predictor" (runtime predictor)
/// section. v4: added the conditional "links" section (LinkModel flow
/// sets, duty cycles, phase offsets — written iff link contention is on)
/// and the engine section's link-contention counters. v5: added the
/// always-written "injected" section (JobSpecs streamed into the live
/// engine after construction — restore re-registers them before touching
/// dynamic state) and narrowed the config fingerprint to the base
/// workload, so injections don't invalidate it. v6: constant-size job
/// records in the "cluster" section (completed-iteration count + running
/// loss sum in place of the per-iteration loss history, which is a pure
/// function of the curve), and the MLFS scheduler payload drops its
/// imitation set once the policy is cloned, keeping the clone-time sample
/// count and accuracy. v7: the trailing checksum is word_hash64 instead of
/// byte-serial FNV-1a, and the "cluster" section drops the unused global
/// placement epoch (a u64 after the transfer count). v8: the "cluster"
/// section drops its last 40 bytes, the five query counters of the removed
/// bucketed placement index. v9: the "cluster" section ends at the unplace
/// counter; the load index it used to carry is derived state, rebuilt at
/// the first query after a restore. v10: MLF-H's payload drops its
/// priority cache and comm-memo arena (caches, refilled after a restore),
/// and "cluster" the per-job placement epochs that keyed the memo. v5–v9
/// files are still read (v5 and v6 checked with FNV-1a; a v5 file's stored
/// history is checked bitwise against the curve; the dropped fields are
/// skipped; no v5–v9 writer exists); pre-v5 files are rejected by the
/// version check.
inline constexpr std::uint32_t kSnapshotVersion = 10;
/// Oldest version SnapshotReader accepts; readers whose payload changed
/// since branch on SnapshotReader::version().
inline constexpr std::uint32_t kOldestReadableSnapshotVersion = 5;

/// Structured rejection of a snapshot file. Subclasses ContractViolation so
/// existing catch sites handle it; carries the failing section (or the
/// pseudo-sections "header" / "checksum") and the byte offset at which
/// validation failed.
class SnapshotError : public ContractViolation {
 public:
  SnapshotError(std::string section, std::uint64_t offset, const std::string& detail);

  const std::string& section() const { return section_; }
  std::uint64_t offset() const { return offset_; }

 private:
  std::string section_;
  std::uint64_t offset_;
};

/// FNV-1a over a byte range: the checksum of v5/v6 snapshots and of
/// journal frames, and the mixer behind the engine's config fingerprint
/// and event-stream hash.
std::uint64_t fnv1a(const char* data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ull);

/// Word-parallel 64-bit hash: four lanes of xxHash64-style rounds over
/// 32-byte stripes (8-byte little-endian words), the tail bytes through
/// FNV-1a, the lanes folded with the length mixed in, then a final
/// avalanche. A change confined to one word or to the tail always changes
/// the result (every step is a bijection of the running state).
std::uint64_t word_hash64(const char* data, std::size_t size);

/// The trailing checksum of a snapshot of the given format version.
std::uint64_t snapshot_checksum(std::uint32_t version, const char* data, std::size_t size);
inline std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// Frames named sections straight into one buffer, then writes the
/// checksummed file in one call. Section payloads are written through the
/// io::BinWriter returned by section(); each section's payload length is
/// back-patched when the next section starts (or at write()).
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::uint64_t config_fingerprint);
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Starts a new section; the returned writer is valid until the next
  /// section() call or write(). Section names must be unique.
  io::BinWriter& section(const std::string& name);

  /// Seals the file (section count, last payload length, trailing
  /// checksum) and writes it to `os` in one call. Call once; no section()
  /// after.
  void write(std::ostream& os);

 private:
  void close_section();

  std::string bytes_;
  io::BinWriter w_{bytes_};
  std::vector<std::string> names_;
  std::size_t length_at_ = 0;  ///< offset of the open section's length field
  bool sealed_ = false;
};

/// Parses and validates a snapshot file up front (magic, version, config
/// fingerprint, section framing, whole-file checksum). Construction throws
/// SnapshotError on any defect; afterwards section payloads are served as
/// views into the reader's own copy of the file.
class SnapshotReader {
 public:
  /// `expected_fingerprint` is the restoring engine's own fingerprint; a
  /// mismatch (snapshot written under different configs / scheduler /
  /// workload) is rejected as "header".
  SnapshotReader(std::istream& is, std::uint64_t expected_fingerprint);

  bool has_section(const std::string& name) const;

  /// A reader over the named section's payload, valid while this
  /// SnapshotReader lives; throws SnapshotError when the section is
  /// missing.
  io::BinReader section(const std::string& name) const;

  std::uint32_t version() const { return version_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  struct Section {
    std::string name;
    std::uint64_t offset = 0;  ///< payload start within the file
    std::uint64_t size = 0;
  };
  const Section* find(const std::string& name) const;

  std::string bytes_;
  std::uint32_t version_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::vector<Section> sections_;
};

}  // namespace mlfs
