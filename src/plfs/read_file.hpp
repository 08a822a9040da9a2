// Reader over a container: global index + shared dropping-fd cache +
// parallel read engine with data sieving.
//
// Reads walk the extent map, pread the mapped pieces from their droppings,
// and zero-fill holes. The merged index comes from the process-wide
// IndexCache (stat-validated, so repeated opens of an unchanged container
// skip the merge), and dropping fds come from the process-wide LRU
// DroppingFdCache, so a thousand-dropping container cannot exhaust the fd
// table and concurrent readers share open descriptors.
//
// The engine is batch-first (list-I/O, after PVFS): read_batch() services a
// whole vector of {offset, buffer} segments from one index snapshot.
// Pieces are grouped per dropping, and within one dropping physically-close
// pieces are *sieved* (after MPI-IO data sieving): one covering pread into
// a scratch buffer, scattered into the user buffers in memory, instead of
// one pread per piece. Sieving is governed by LDPLFS_SIEVE (default on),
// LDPLFS_SIEVE_MAX_HOLE (largest physical gap a covering read may span) and
// LDPLFS_SIEVE_BUFFER (largest covering read); pieces that don't form a
// profitable run fall back to direct per-piece preads.
//
// When a batch spans pieces in more than one dropping and LDPLFS_THREADS
// allows it, the per-dropping batches are serviced concurrently on the
// shared thread pool — the strided N-1 read pattern then drives many
// droppings at once instead of one pread at a time. Error semantics match
// the original serial path exactly: any piece failure fails the whole
// batch, and when several droppings fail the error of the
// delivery-order-first failing piece is reported (first error wins, no
// partial credit past an error hole).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "plfs/index.hpp"

namespace ldplfs::plfs {

/// One segment of a list-I/O read batch: fill `buf` from logical `offset`.
struct ReadSegment {
  std::uint64_t offset = 0;
  std::span<std::byte> buf;
};

class ReadFile {
 public:
  /// Prepare to read the container at `root`. The index is a point-in-time
  /// snapshot (served from the IndexCache when fresh); concurrent writers'
  /// later records are not visible (same semantics as PLFS).
  static Result<std::unique_ptr<ReadFile>> open(const std::string& root);

  /// Open with an externally supplied index (used after plfs_flatten and
  /// by tests).
  static std::unique_ptr<ReadFile> with_index(std::string root,
                                              GlobalIndex index);

  ReadFile(const ReadFile&) = delete;
  ReadFile& operator=(const ReadFile&) = delete;

  /// Read up to out.size() bytes at `offset`. Returns bytes read; short
  /// reads happen only at EOF. (A one-segment batch.)
  Result<std::size_t> read(std::span<std::byte> out, std::uint64_t offset);

  /// List-I/O entry point: service every segment against this one index
  /// snapshot and return the cumulative byte count with POSIX readv
  /// semantics — segments fill in order, a segment that lands short of its
  /// buffer means EOF and ends the batch there, and later segments are not
  /// attempted. Segments may overlap, touch, or be out of order; each is
  /// served independently from the snapshot.
  Result<std::size_t> read_batch(std::span<const ReadSegment> segs);

  [[nodiscard]] std::uint64_t size() const { return index_->size(); }
  [[nodiscard]] const GlobalIndex& index() const { return *index_; }
  /// The snapshot this reader was opened on, before any patch.
  [[nodiscard]] const std::shared_ptr<const GlobalIndex>& base() const {
    return base_;
  }

  /// Apply a writing handle's own published records (GlobalIndex::patch;
  /// the caller checked can_patch). The first patch copies the snapshot,
  /// which other readers share, and turns mapped reads off: the patched
  /// records point into droppings the mapping does not cover.
  void patch(std::span<const WriterRecords> batches);

  /// Parse LDPLFS_SIEVE: "0" disables data sieving (every piece becomes a
  /// direct pread), anything else (including unset) enables it.
  static bool env_sieve();
  /// Parse LDPLFS_SIEVE_MAX_HOLE ("64K", plain bytes): the largest physical
  /// gap between two pieces a covering sieve read may span. Malformed or
  /// unset falls back to 64 KiB; values clamp into [1, 16 MiB].
  static std::size_t env_sieve_max_hole();
  /// Parse LDPLFS_SIEVE_BUFFER ("4M", plain bytes): the largest covering
  /// sieve read. Malformed or unset falls back to 4 MiB; values clamp into
  /// [64 KiB, 256 MiB].
  static std::size_t env_sieve_buffer();

 private:
  ReadFile(std::string root, std::shared_ptr<const GlobalIndex> index);

  /// One data piece of a batch: where it lives and where it lands. `seq` is
  /// the delivery order across the whole batch (the first-error-wins key).
  struct PieceRef {
    MappedPiece piece;
    std::byte* dst = nullptr;
    std::size_t seq = 0;
  };

  /// Service one dropping's pieces (sorted by physical offset): form sieve
  /// runs, issue covering or direct preads, scatter into destinations.
  /// Returns 0 or the errno of the first failure; `failing_seq` gets the
  /// smallest seq the failure covers.
  int read_dropping(std::uint32_t dropping, const std::vector<PieceRef>& refs,
                    std::size_t* failing_seq);

  /// Mapped fast path (LDPLFS_MMAP_READS): serve every piece by memcpy from
  /// the registry's mapping of the single data dropping — zero preads.
  /// False (caller falls back to the pread/sieve path and counts
  /// mmap.fallbacks) when the mapping cannot be acquired or does not cover
  /// every piece.
  bool try_mapped_read(const std::vector<PieceRef>& refs);

  std::string root_;
  std::shared_ptr<const GlobalIndex> base_;
  std::shared_ptr<const GlobalIndex> index_;  // base_, or patched_
  std::shared_ptr<GlobalIndex> patched_;      // private copy once patched
  unsigned threads_;  // LDPLFS_THREADS at open; <2 forces the serial path
  bool sieve_;                  // LDPLFS_SIEVE at open
  std::size_t sieve_max_hole_;  // LDPLFS_SIEVE_MAX_HOLE at open
  std::size_t sieve_buffer_;    // LDPLFS_SIEVE_BUFFER at open
  /// Set when LDPLFS_MMAP_READS is on and every extent lives in one data
  /// dropping (the flattened/compacted shape): that dropping's id.
  std::optional<std::uint32_t> mapped_dropping_;
};

}  // namespace ldplfs::plfs
