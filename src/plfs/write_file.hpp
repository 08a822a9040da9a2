// One writer stream into a container: a data dropping (append-only log) plus
// its paired index dropping. This is the log-structured half of PLFS — every
// write lands at the tail of the data dropping regardless of its logical
// offset, and the index records where it belongs.
//
// The write path runs one of two engines, chosen at open:
//
//   * synchronous (LDPLFS_WRITE_BEHIND=0): every write() issues an immediate
//     pwrite at the log tail — the original behavior, byte-identical output.
//   * write-behind (the default): writes are coalesced into a bounded
//     aggregation buffer (LDPLFS_WRITE_BUFFER bytes) and flushed to the log
//     as large physical appends. Flushes are double-buffered: a full buffer
//     is handed to the shared thread pool while the caller keeps filling the
//     other one, so small strided checkpoint writes cost a memcpy instead of
//     a syscall and the device latency overlaps application compute.
//
// Both engines preserve the same contracts (see write()): sticky deferred
// errors with the first logical failure winning, index records only ever
// describing bytes whose pwrite completed, and drain barriers so readers
// and stat see every acknowledged byte. The barriers are publish() (the
// read path: visible to the owning handle, nothing written to the index),
// flush_index() (visible to everyone), sync() (durable), and truncate() and
// close().
//
// Drain barriers are hang-proof when LDPLFS_FLUSH_DEADLINE_MS is set: a
// barrier waits at most that long for the in-flight flush. On timeout the
// stream is poisoned with ETIMEDOUT, the backend's circuit breaker is
// tripped (common/health.hpp), and the hung flush is *abandoned* — it owns
// its own dup'd descriptor and buffer, so it can finish or fail harmlessly
// in the background while close() returns in bounded time; whatever bytes
// it eventually lands were never indexed and stay invisible to readers.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "plfs/container.hpp"
#include "plfs/index.hpp"

namespace ldplfs::plfs {

/// One segment of a list-I/O write batch: write `buf` at logical `offset`.
struct WriteSegment {
  std::uint64_t offset = 0;
  std::span<const std::byte> buf;
};

class WriteFile {
 public:
  /// Open a new writer stream for `writer` in the container at `root`.
  /// Creates the hostdir bucket on demand and registers in openhosts/.
  /// Latches LDPLFS_WRITE_BEHIND / LDPLFS_WRITE_BUFFER for this stream.
  static Result<std::unique_ptr<WriteFile>> open(const std::string& root,
                                                 const WriterId& writer);

  ~WriteFile();
  WriteFile(const WriteFile&) = delete;
  WriteFile& operator=(const WriteFile&) = delete;

  /// Append `data` to the log and index it at logical `offset`.
  ///
  /// Error semantics are POSIX write-back semantics: the first failed append
  /// (data pwrite or index flush) poisons the stream, and every subsequent
  /// write()/truncate()/sync() — and the final close() — reports the
  /// original errno. Bytes whose pwrite completed before the failure stay
  /// valid and indexed (prefix consistency); bytes of the failed append —
  /// and, under write-behind, any later bytes still buffered when the
  /// failure surfaced — were never indexed and are invisible to readers
  /// (the same way a page-cache write-back failure loses acknowledged but
  /// unsynced data). A background flush failure is detected on the next
  /// write()/sync()/truncate()/close(), whichever comes first.
  Result<std::size_t> write(std::span<const std::byte> data,
                            std::uint64_t offset);

  /// Record a truncation. (Data already in the log is masked by the index;
  /// log-structured stores never rewrite history.) Drain barrier: all
  /// buffered appends reach the log before the truncate record is flushed.
  Status truncate(std::uint64_t size);

  /// Read-your-writes barrier: flush the aggregation buffer and hand back
  /// every index record made readable (or extended by coalescing) since the
  /// last publish or index write. Not durable and not visible to anyone else: no index write, no
  /// fsync, no generation bump. The owning handle patches its snapshot
  /// with the records; they reach the index dropping at the next
  /// flush_index(), sync(), truncate() or close(), after which a snapshot
  /// must be rebuilt from disk to see them.
  Result<WriterRecords> publish();

  /// Drain barrier: flush the aggregation buffer, then append the pending
  /// index records to the index dropping and bump the generation, so other
  /// handles and processes see every acknowledged byte. No fsync.
  Status flush_index();

  /// Drain barrier: flush the aggregation buffer, then index records, then
  /// fsync the data dropping. After a successful sync every acknowledged
  /// byte is durable and indexed.
  Status sync();

  /// Drain, flush, drop the openhosts registration, leave a metadata size
  /// hint. Idempotent; called by the destructor as a last resort.
  Status close();

  /// Bytes accepted by write() (including any still in the aggregation
  /// buffer; after a drain barrier this equals the data-dropping tail).
  [[nodiscard]] std::uint64_t bytes_written() const { return physical_end_; }
  /// Errno of the first failed append on this stream, or 0. See write().
  [[nodiscard]] int deferred_errno() const { return deferred_errno_; }
  [[nodiscard]] std::uint64_t eof_seen() const { return max_eof_; }
  /// Clamp the EOF this writer will report in its close-time metadata hint
  /// (used when a *different* writer on the same handle truncates).
  void clamp_eof(std::uint64_t size) { max_eof_ = std::min(max_eof_, size); }
  [[nodiscard]] const WriterId& writer() const { return writer_; }
  /// True when this stream aggregates writes (write-behind engine active).
  [[nodiscard]] bool write_behind() const { return write_behind_; }

  /// Parse LDPLFS_WRITE_BEHIND: "0" disables the engine, anything else
  /// (including unset) enables it.
  static bool env_write_behind();
  /// Parse LDPLFS_COALESCE: "0" disables flush-time extent coalescing,
  /// anything else (including unset) enables it. Only meaningful under
  /// write-behind (the synchronous engine never stages extents).
  static bool env_coalesce();
  /// Parse LDPLFS_WRITE_BUFFER ("4M", "512K", plain bytes) into the
  /// aggregation-buffer capacity; malformed/unset falls back to the 4 MiB
  /// default, and values clamp into [4 KiB, 256 MiB].
  static std::size_t env_write_buffer();
  /// Parse LDPLFS_FLUSH_DEADLINE_MS (plain milliseconds) into the drain
  /// barrier deadline; 0 / unset / malformed disables the watchdog
  /// (barriers wait indefinitely, the pre-deadline behavior).
  static std::uint64_t env_flush_deadline_ms();

 private:
  WriteFile(std::string root, WriterId writer);

  /// Immediate pwrite + index record — the synchronous engine, also used
  /// for buffer-dodging oversized writes after a drain.
  Result<std::size_t> write_through(std::span<const std::byte> data,
                                    std::uint64_t offset);
  /// Coalesce a record for bytes staged in the active buffer.
  void stage_record(std::uint64_t offset, std::uint64_t length,
                    std::uint64_t physical);
  /// Flush-boundary extent coalescing (list-I/O write side): rewrite the
  /// active buffer so logically adjacent or overlapping staged extents
  /// become one contiguous run — one pwrite region and one index record
  /// per run instead of one per logical write. Overwritten bytes within
  /// the buffer are eliminated (newest wins), which can shrink the staged
  /// byte count. No-op unless it would reduce the record count or the
  /// buffer size.
  void coalesce_active();
  /// Hand the active buffer to the pool as the in-flight flush.
  /// Caller guarantees no flush is in flight and the buffer is non-empty.
  void submit_active();
  /// Block until the in-flight flush (if any) finishes and absorb its
  /// result: merge its records into the index on success, poison the
  /// stream (dropping everything still buffered) on failure.
  Status complete_inflight();
  /// Non-blocking complete_inflight: absorb the result only if the pool
  /// task already finished, so write() surfaces background failures
  /// promptly without stalling on a healthy in-flight flush.
  void poll_inflight();
  /// Drain barrier body: complete the in-flight flush, then flush the
  /// active buffer synchronously. On return either everything accepted is
  /// in the log and indexed, or the stream is poisoned.
  Status drain();
  /// drain() + append the pending index records to the index dropping.
  Status write_index();
  /// Bump the container's generation if bytes were accepted since the last
  /// bump.
  void bump_if_dirty();

  std::string root_;
  WriterId writer_;
  int data_fd_ = -1;
  std::string data_path_;  // the data dropping (health/fault attribution)
  std::string data_rel_;   // the same, relative to root_ (path table entry)
  std::unique_ptr<IndexWriter> index_;
  std::uint64_t physical_end_ = 0;  // bytes accepted (log tail once drained)
  std::uint64_t max_eof_ = 0;       // highest logical offset+len written
  int deferred_errno_ = 0;          // first failed append poisons the stream
  bool closed_ = false;
  // Whether bytes were accepted since the last generation bump —
  // flush_index/sync/truncate/close bump the container's generation only
  // when new index state actually became visible, so sync loops don't
  // thrash other processes' caches. (The shared-plane writer *registration*
  // lives on the owning FileHandle, which spans every per-pid stream.)
  bool index_dirty_ = false;

  // --- write-behind engine (unused when write_behind_ is false) ---------
  // The in-flight flush is a self-contained heap task: it owns the buffer
  // being flushed and a dup of the data fd, and publishes its result under
  // its own mutex. The caller holds one reference, the pool lambda the
  // other, so a deadline-expired flush can simply be dropped — the task
  // finishes (or fails) against its own descriptor with no use-after-free
  // and no fd-reuse hazard, even after this WriteFile is destroyed. The
  // caller-side record list (inflight_records_) is merged into the index
  // only after the task reports success.
  struct FlushTask;
  bool write_behind_ = false;
  bool coalesce_ = false;  // LDPLFS_COALESCE at open (write-behind only)
  std::size_t buffer_capacity_ = 0;
  std::uint64_t flush_deadline_ms_ = 0;      // 0: barriers wait forever
  std::vector<std::byte> active_;            // buffer being filled
  std::uint64_t active_base_ = 0;            // physical offset of active_[0]
  std::vector<IndexRecord> active_records_;  // coalesced records for active_
  // Runs parallel to active_records_: the oldest stamp each record's
  // merged block covers (its .timestamp is the newest). The pair proves
  // the block contiguous so IndexWriter::add_write can re-merge across
  // the flush boundary exactly like the synchronous path.
  std::vector<std::uint64_t> active_first_stamps_;
  std::shared_ptr<FlushTask> inflight_task_;
  std::uint64_t inflight_base_ = 0;
  std::vector<IndexRecord> inflight_records_;
  std::vector<std::uint64_t> inflight_first_stamps_;
  // Recycled storage, so steady-state rotation allocates nothing: spare_
  // is the buffer reclaimed from the last completed flush task (the next
  // submit hands it back out), scratch_ the coalesce relayout target
  // (swapped with active_, so the two ping-pong).
  std::vector<std::byte> spare_;
  std::vector<std::byte> scratch_;
};

}  // namespace ldplfs::plfs
