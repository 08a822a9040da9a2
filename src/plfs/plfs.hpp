// Public PLFS API — the C++ face of the substrate LDPLFS retargets to.
//
// Mirrors the shape of the PLFS user-level API the paper shows in Listing 1:
// positional read/write taking an explicit offset and a pid, an opaque
// per-open handle (Plfs_fd there, FileHandle here), and container-level
// operations (getattr/unlink/trunc/access/rename/readdir/flatten).
//
// Thread safety: FileHandle serialises internal state with a mutex; distinct
// pids writing through one handle get distinct writer streams (data +
// index droppings), which is exactly the paper's n-processes → n-files
// partitioning.
#pragma once

#include <sys/stat.h>
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/health.hpp"
#include "common/result.hpp"
#include "common/stats.hpp"
#include "plfs/read_file.hpp"
#include "plfs/write_file.hpp"

namespace ldplfs::plfs {

/// Equivalent of Plfs_open_opts: container shape knobs.
struct OpenOptions {
  unsigned hostdirs = kDefaultHostDirs;
  /// Override the writer's host name (simulated ranks use "rankN" so each
  /// gets its own dropping even though everything runs on one machine).
  std::string host_override;
};

/// Attributes of a logical PLFS file.
struct FileAttr {
  std::uint64_t size = 0;
  mode_t mode = 0644;
  /// Modification time: the newest activity visible on the container
  /// (metadata directory or container root).
  time_t mtime = 0;
  /// True when the size came from metadata hints alone (no index merge).
  bool from_hints = false;
};

/// One logical-file open. Analogue of Plfs_fd.
class FileHandle {
 public:
  /// A write-capable handle registers in the shared metadata plane for its
  /// whole lifetime (open → last reference dropped), so other processes'
  /// foreign-writer checks see it even before its first write materializes
  /// a WriteFile stream.
  FileHandle(std::string path, int flags, OpenOptions opts);
  ~FileHandle();

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int flags() const { return flags_; }

  /// Positional write on behalf of `pid` (paper: plfs_write).
  Result<std::size_t> write(std::span<const std::byte> data,
                            std::uint64_t offset, pid_t pid);

  /// Positional read (paper: plfs_read). Sees this handle's own writes
  /// without making them durable or visible elsewhere: the writers drain
  /// their write-behind buffers and publish their new index records, which
  /// patch this handle's private copy of the index snapshot. The snapshot
  /// is rebuilt, after writing the pending index records, only when a
  /// patch could differ from a full merge: something outside this handle
  /// changed the container, or a record is not newer than the snapshot.
  Result<std::size_t> read(std::span<std::byte> out, std::uint64_t offset);

  /// List-I/O batch read (plfs_readx): every segment is served from ONE
  /// handle lock and ONE reader snapshot — the single-lookup guarantee a
  /// readv decomposed into per-iovec read() calls cannot give. Returns the
  /// cumulative byte count with POSIX readv semantics: segments fill in
  /// order, EOF cutting a segment short ends the batch there, later
  /// segments are not attempted.
  Result<std::size_t> readx(std::span<const ReadSegment> segs);

  /// List-I/O batch write (plfs_writex): every segment goes through the
  /// same writer stream under one handle lock. Returns the cumulative byte
  /// count; a failure after bytes landed reports the partial count, a
  /// failure with nothing landed reports the error (POSIX writev
  /// semantics).
  Result<std::size_t> writex(std::span<const WriteSegment> segs, pid_t pid);

  /// Flush `pid`'s writer stream (plfs_sync).
  Status sync(pid_t pid);

  /// Close `pid`'s writer stream; final close releases everything.
  Status close(pid_t pid);

  /// Current logical size as seen through this handle: the same snapshot
  /// and barrier as read(), so it counts every acknowledged byte.
  Result<std::uint64_t> size();

  /// Wall-clock time of the last write or truncate through this handle
  /// (0 when none).
  [[nodiscard]] time_t modified() {
    std::lock_guard lock(mu_);
    return modified_;
  }

  /// Record a truncation through this handle.
  Status truncate(std::uint64_t size, pid_t pid);

 private:
  Result<WriteFile*> writer_for(pid_t pid);
  Result<ReadFile*> reader_locked();
  /// Fallback of reader_locked(): write every writer's pending index
  /// records, bump the generation, and rebuild the snapshot from disk.
  Result<ReadFile*> rebuild_locked();

  std::mutex mu_;
  std::string path_;
  int flags_;
  OpenOptions opts_;
  std::map<pid_t, std::unique_ptr<WriteFile>> writers_;
  std::unique_ptr<ReadFile> reader_;
  // The next read rebuilds the snapshot from disk: a writer wrote its
  // records to the index dropping (sync, truncate, close) rather than
  // publishing them, or a read published records and failed before
  // patching them in.
  bool rebuild_ = false;
  time_t modified_ = 0;
  int shm_slot_ = -1;  // shared-plane writer slot (-1: read-only/plane off)
};

/// plfs_open. Honours O_CREAT / O_EXCL / O_TRUNC / O_RDONLY / O_WRONLY /
/// O_RDWR. Returns ENOENT when the path is not a container and O_CREAT is
/// absent; EEXIST for O_CREAT|O_EXCL on an existing container; EISDIR when
/// the path is a plain directory.
Result<std::shared_ptr<FileHandle>> plfs_open(const std::string& path,
                                              int flags, pid_t pid,
                                              mode_t mode = 0644,
                                              OpenOptions opts = {});

Result<std::size_t> plfs_write(FileHandle& fd, std::span<const std::byte> data,
                               std::uint64_t offset, pid_t pid);
Result<std::size_t> plfs_read(FileHandle& fd, std::span<std::byte> out,
                              std::uint64_t offset);

/// List-I/O batch entry points (after PVFS list I/O): one call describes
/// many file regions. Reads are served from one index snapshot (and data
/// sieving coalesces physically-close pieces per dropping, see
/// ReadFile::read_batch); writes stream through one writer and coalesce at
/// flush boundaries (see WriteFile). Segment types: ReadSegment in
/// read_file.hpp, WriteSegment in write_file.hpp.
Result<std::size_t> plfs_readx(FileHandle& fd,
                               std::span<const ReadSegment> segs);
Result<std::size_t> plfs_writex(FileHandle& fd,
                                std::span<const WriteSegment> segs, pid_t pid);
Status plfs_sync(FileHandle& fd, pid_t pid);
Status plfs_close(const std::shared_ptr<FileHandle>& fd, pid_t pid);

/// plfs_getattr: cheap when closed (metadata hints), index merge otherwise.
Result<FileAttr> plfs_getattr(const std::string& path);

Status plfs_unlink(const std::string& path);
Status plfs_trunc(const std::string& path, std::uint64_t size);
Status plfs_access(const std::string& path, int amode);
Status plfs_rename(const std::string& from, const std::string& to);

/// plfs_readdir over a backend directory: container directories appear as
/// logical files, plain entries pass through.
struct DirEntry {
  std::string name;
  bool is_plfs_file = false;
  bool is_directory = false;
};
Result<std::vector<DirEntry>> plfs_readdir(const std::string& path);

/// Merge all index droppings into one flattened dropping (speeds up later
/// opens; paper §II mentions index cost on read).
Status plfs_flatten(const std::string& path);

/// Expose container-ness at the API level for the interposition layer.
bool plfs_is_container(const std::string& path);

/// Merged view of the process-wide op counters/latency histograms
/// (common/stats). Cheap API face for benchmarks and embedding tools;
/// collection must be on (LDPLFS_STATS or stats::force_enable) or every
/// value is zero. See docs/OBSERVABILITY.md.
stats::Snapshot plfs_stats();

/// Per-backend health view (common/health): sliding-window success/failure
/// accounting and circuit-breaker state for every registered mount, plus
/// the default backend once it has seen traffic. Always populated — health
/// tracking is not gated by LDPLFS_STATS. See docs/RESILIENCE.md.
std::vector<health::BackendSnapshot> plfs_health();

}  // namespace ldplfs::plfs
