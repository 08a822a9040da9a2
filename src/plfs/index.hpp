// Global index construction and writer-side index buffering.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "plfs/extent_map.hpp"
#include "plfs/index_format.hpp"

namespace ldplfs::plfs {

/// Index records one writer stream made readable, with the data dropping
/// they describe (path relative to the container root, as in the path
/// table). What a writing handle patches its own snapshot with.
struct WriterRecords {
  std::string data_path;
  std::vector<IndexRecord> records;
};

/// The merged view of every index dropping in a container: an extent map
/// over data droppings plus the logical file size (which can exceed the
/// mapped extent after truncate-up, and can be cut below it by truncate-down).
class GlobalIndex {
 public:
  /// Merge every index dropping under `container_root`. Records across all
  /// droppings are applied in ascending timestamp order (ties broken by
  /// dropping path for determinism), so later writes overwrite earlier ones.
  static Result<GlobalIndex> build(const std::string& container_root);

  /// Build from already-parsed droppings (unit tests, simulator).
  /// `sources[i]` supplies record dropping_refs into its own path table.
  static GlobalIndex merge(const std::vector<IndexDropping>& sources);

  [[nodiscard]] std::uint64_t size() const { return logical_size_; }
  [[nodiscard]] const ExtentMap& extent_map() const { return extents_; }

  /// True when patch(batches) gives exactly what merge() would over the
  /// same records: every record is newer than the newest stamp applied so
  /// far, so it sorts after everything already applied (ExtentMap::insert
  /// needs ascending stamps).
  [[nodiscard]] bool can_patch(std::span<const WriterRecords> batches) const;

  /// Apply `batches` on top of the merged state, in stamp order across
  /// batches. The caller checked can_patch().
  void patch(std::span<const WriterRecords> batches);

  /// Data-dropping paths (relative to the container root); MappedPiece /
  /// Extent `dropping` ids index into this table.
  [[nodiscard]] const std::vector<std::string>& data_paths() const {
    return data_paths_;
  }

  [[nodiscard]] std::vector<MappedPiece> lookup(std::uint64_t offset,
                                                std::uint64_t length) const {
    return extents_.lookup(offset, length);
  }

  /// Serialise this merged index as a single flattened dropping.
  [[nodiscard]] std::string encode_flattened() const;

 private:
  void apply(const IndexRecord& rec, std::uint32_t global_ref);

  ExtentMap extents_;
  std::uint64_t logical_size_ = 0;
  std::uint64_t newest_stamp_ = 0;  // newest record stamp applied
  std::vector<std::string> data_paths_;
};

/// Writer-side index buffer: accumulates records for one writer's data
/// dropping and appends them (after the header on first flush) to the
/// index dropping file. Consecutive sequential writes are coalesced into a
/// single record, which is what keeps PLFS index droppings small for
/// checkpoint-style streams.
class IndexWriter {
 public:
  /// `index_path` is created (exclusive); `data_path_rel` goes in the path
  /// table so readers can resolve records.
  static Result<IndexWriter> create(const std::string& index_path,
                                    const std::string& data_path_rel);

  IndexWriter(IndexWriter&& other) noexcept;
  IndexWriter& operator=(IndexWriter&& other) noexcept;
  IndexWriter(const IndexWriter&) = delete;
  IndexWriter& operator=(const IndexWriter&) = delete;
  ~IndexWriter();

  /// Record a write of `length` bytes at logical `offset` stored at
  /// `physical` in the data dropping.
  ///
  /// A record may stand for a *block* of consecutive stamps when the
  /// caller already merged several writes into it: `timestamp` is the
  /// newest stamp of the block and `timestamp_first` the oldest (0 means
  /// the record covers the single stamp `timestamp`). Continuation merges
  /// re-stamp the previous record's bytes with the newer stamp, which is
  /// only sound when nothing anywhere can hold a stamp between the two
  /// blocks — so a merge requires the incoming block to start exactly one
  /// past the previous record's block end. Stamps come from one
  /// process-wide counter, so an interleaved writer stream leaves a gap
  /// and keeps its own record.
  void add_write(std::uint64_t offset, std::uint64_t length,
                 std::uint64_t physical, std::uint64_t timestamp,
                 std::uint64_t timestamp_first = 0);

  /// Record a truncate to `size`.
  void add_truncate(std::uint64_t size, std::uint64_t timestamp);

  /// Buffered records added since the last take_unpublished() or flush(),
  /// for a writer that patches its own index snapshot instead of flushing.
  /// A record that coalescing extended since then comes back again: its
  /// stamp is newer, so applying it on top of the old one is exact.
  std::vector<IndexRecord> take_unpublished();

  /// Batched append for the write-behind engine: records staged against an
  /// aggregation buffer land here in one call once the data flush that
  /// covers them has completed. Re-coalesces across the batch boundary and
  /// obeys the same tear-safety rules as add_write (records reach disk only
  /// through flush(), which is sticky on failure). `first_stamps`, when
  /// non-empty, runs parallel to `records` and carries each record's
  /// stamp-block start (see add_write).
  void add_records(std::span<const IndexRecord> records,
                   std::span<const std::uint64_t> first_stamps = {});

  /// Append buffered records to the file.
  ///
  /// A failed append may have left a torn record at the dropping's tail;
  /// appending anything after that tear would shear every later record out
  /// of 40-byte alignment. So a flush failure is *sticky*: buffered records
  /// are dropped and every subsequent flush()/close() reports the original
  /// errno (POSIX deferred-error semantics, as fsync does for write-back
  /// failures).
  Status flush();

  /// Flush and close. Idempotent.
  Status close();

  [[nodiscard]] std::uint64_t records_written() const {
    return records_written_;
  }

  /// Errno of the first failed append, or 0. See flush().
  [[nodiscard]] int deferred_errno() const { return deferred_errno_; }

 private:
  IndexWriter() = default;

  std::string index_path_;
  int fd_ = -1;
  std::vector<IndexRecord> pending_;
  // Stamp-block end of pending_.back() (== its timestamp field); kept
  // separately so continuation merges can test block adjacency even after
  // pending_ is flushed away.
  std::uint64_t pending_last_stamp_ = 0;
  // Prefix of pending_ that take_unpublished() already returned.
  std::size_t published_ = 0;
  std::uint64_t records_written_ = 0;
  int deferred_errno_ = 0;
};

}  // namespace ldplfs::plfs
