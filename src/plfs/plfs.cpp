#include "plfs/plfs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <set>

#include "common/logging.hpp"
#include "common/paths.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "plfs/compaction.hpp"
#include "plfs/fd_cache.hpp"
#include "plfs/index_cache.hpp"
#include "plfs/mapped_container.hpp"
#include "plfs/shared_meta.hpp"
#include "posix/fd.hpp"

namespace ldplfs::plfs {

namespace {

/// A mutation removed or renamed droppings under `root`: flush every
/// process-wide cache for it. (Appends don't need this — the IndexCache and
/// MappedContainerRegistry fingerprints catch them — but removals must also
/// release cached fds and mappings.)
void drop_container_caches(const std::string& root) {
  IndexCache::shared().invalidate(root);
  DroppingFdCache::shared().invalidate(root + "/");
  MappedContainerRegistry::shared().invalidate(root + "/");
  // Other processes' caches can only learn of the mutation through the
  // shared metadata plane.
  shmeta::bump(root);
}

/// True when LDPLFS_AUTO_FLATTEN is set and not "0" (default off).
bool auto_flatten_enabled() {
  const char* env = std::getenv("LDPLFS_AUTO_FLATTEN");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

/// "Flatten when read-mostly": a read-only open is the signal that the
/// container has entered its consumption phase, so kick a background
/// compaction to converge it to the single-dropping, mmap-servable shape.
/// Consults health (a degraded backend is not churned further) and the
/// container's own state (already-flat and writer-occupied containers are
/// skipped; plfs_compact re-checks openhosts and bows out EBUSY on a race).
/// At most one attempt per container per process.
void maybe_auto_flatten(const std::string& path) {
  if (!auto_flatten_enabled()) return;
  if (health::bypass_open(path)) return;
  static std::mutex mu;
  static auto* attempted = new std::set<std::string>();  // never destroyed
  {
    std::lock_guard lock(mu);
    if (!attempted->insert(path).second) return;
  }
  auto data = find_data_droppings(path);
  auto index = find_index_droppings(path);
  if (!data || !index) return;
  if (data.value().size() < 2 && index.value().size() < 2) return;
  auto hosts = read_open_hosts(path);
  if (!hosts || !hosts.value().empty()) return;
  // The openhosts/ files are warn-only (a writer may fail to register);
  // the shared plane's registration is authoritative when attached.
  if (shmeta::has_foreign_writers(path)) return;
  stats::add(stats::Counter::kAutoFlattenKicked);
  // Touch the caches compaction uses while the process is demonstrably
  // alive, so the task never constructs a static during exit processing.
  (void)IndexCache::shared();
  (void)DroppingFdCache::shared();
  (void)MappedContainerRegistry::shared();
  ThreadPool::shared().submit([path] {
    // Best-effort: a short-lived process reaches the pool's exit drain with
    // this task still queued — skip it rather than compact mid-shutdown.
    if (ThreadPool::shared().stopping()) return;
    (void)plfs_compact(path);  // invalidates caches itself on success
  });
}

std::string writer_host(const OpenOptions& opts) {
  return opts.host_override.empty() ? local_hostname() : opts.host_override;
}

}  // namespace

FileHandle::FileHandle(std::string path, int flags, OpenOptions opts)
    : path_(std::move(path)), flags_(flags), opts_(std::move(opts)) {
  if ((flags_ & O_ACCMODE) != O_RDONLY) {
    shm_slot_ = shmeta::register_writer(path_);
  }
}

FileHandle::~FileHandle() {
  // Close any streams plfs_close did not reach (their close() bumps the
  // generation if dirty), then drop the registration — in that order, so a
  // foreign-writer check can never miss both the registration and the bump.
  writers_.clear();
  shmeta::unregister_writer(shm_slot_);
}

Result<WriteFile*> FileHandle::writer_for(pid_t pid) {
  auto it = writers_.find(pid);
  if (it != writers_.end()) return it->second.get();
  WriterId id{writer_host(opts_), pid, next_timestamp()};
  auto wf = WriteFile::open(path_, id);
  if (!wf) return wf.error();
  WriteFile* raw = wf.value().get();
  writers_.emplace(pid, std::move(wf).value());
  return raw;
}

Result<std::size_t> FileHandle::write(std::span<const std::byte> data,
                                      std::uint64_t offset, pid_t pid) {
  if ((flags_ & O_ACCMODE) == O_RDONLY) return Errno{EBADF};
  std::lock_guard lock(mu_);
  auto writer = writer_for(pid);
  if (!writer) return writer.error();
  auto n = writer.value()->write(data, offset);
  if (n) modified_ = ::time(nullptr);
  return n;
}

Result<ReadFile*> FileHandle::reader_locked() {
  // Read-your-writes needs visibility, not durability: each writer drains
  // its write-behind buffer and hands over the index records readable since
  // the last call, and they patch a private copy of the snapshot.
  const bool stale = rebuild_;
  std::vector<WriterRecords> fresh;
  for (auto& [pid, writer] : writers_) {
    auto published = writer->publish();
    if (!published) return published.error();
    if (!published.value().records.empty()) {
      // Held nowhere a later read looks until the patch below lands: if
      // anything fails first, the next read rebuilds from disk instead.
      rebuild_ = true;
      fresh.push_back(std::move(published).value());
    }
  }
  if (stale) return rebuild_locked();
  // The patch equals a full merge while (1) the cache still serves the
  // snapshot this reader was built on, i.e. nothing outside this handle
  // changed the container, and (2) every record sorts after the snapshot's
  // newest. A first read has published nothing before, so its new snapshot
  // lacks exactly the records that are not yet in the index droppings.
  if (!reader_) {
    auto rf = ReadFile::open(path_);
    if (!rf) return rf.error();
    reader_ = std::move(rf).value();
  } else if (fresh.empty()) {
    return reader_.get();
  } else if (!IndexCache::shared().serves(path_, reader_->base())) {
    return rebuild_locked();
  }
  if (!reader_->index().can_patch(fresh)) return rebuild_locked();
  reader_->patch(fresh);
  rebuild_ = false;
  return reader_.get();
}

Result<ReadFile*> FileHandle::rebuild_locked() {
  // Write every pending record (earlier patches included) to the index
  // droppings, bump the generation, and merge once from disk.
  for (auto& [pid, writer] : writers_) {
    if (auto s = writer->flush_index(); !s) return s.error();
  }
  auto rf = ReadFile::open(path_);
  if (!rf) return rf.error();
  reader_ = std::move(rf).value();
  rebuild_ = false;
  return reader_.get();
}

Result<std::size_t> FileHandle::read(std::span<std::byte> out,
                                     std::uint64_t offset) {
  if ((flags_ & O_ACCMODE) == O_WRONLY) return Errno{EBADF};
  std::lock_guard lock(mu_);
  auto reader = reader_locked();
  if (!reader) return reader.error();
  return reader.value()->read(out, offset);
}

Result<std::size_t> FileHandle::readx(std::span<const ReadSegment> segs) {
  if ((flags_ & O_ACCMODE) == O_WRONLY) return Errno{EBADF};
  std::lock_guard lock(mu_);
  // One snapshot for the whole batch: every segment sees the same index
  // state, no matter what concurrent writers do between segments.
  auto reader = reader_locked();
  if (!reader) return reader.error();
  return reader.value()->read_batch(segs);
}

Result<std::size_t> FileHandle::writex(std::span<const WriteSegment> segs,
                                       pid_t pid) {
  if ((flags_ & O_ACCMODE) == O_RDONLY) return Errno{EBADF};
  std::lock_guard lock(mu_);
  auto writer = writer_for(pid);
  if (!writer) return writer.error();
  std::size_t total = 0;
  for (const auto& seg : segs) {
    if (seg.buf.empty()) continue;
    auto n = writer.value()->write(seg.buf, seg.offset);
    if (!n) {
      if (total > 0) break;  // partial success: report what landed
      return n.error();
    }
    total += n.value();
  }
  if (total > 0) modified_ = ::time(nullptr);
  return total;
}

Status FileHandle::sync(pid_t pid) {
  std::lock_guard lock(mu_);
  auto it = writers_.find(pid);
  if (it == writers_.end()) return Status::success();
  // The stream's unpublished records reach the index dropping and will not
  // be published: the next read rebuilds from disk.
  rebuild_ = true;
  return it->second->sync();
}

Status FileHandle::close(pid_t pid) {
  std::lock_guard lock(mu_);
  auto it = writers_.find(pid);
  if (it != writers_.end()) {
    Status s = it->second->close();
    writers_.erase(it);
    // Writer close changed the on-disk index (flush + metadata hint); other
    // handles must re-merge rather than serve the pre-close snapshot, and so
    // must this one: the stream's unpublished records are gone with it.
    IndexCache::shared().invalidate(path_);
    rebuild_ = true;
    return s;
  }
  return Status::success();
}

Result<std::uint64_t> FileHandle::size() {
  std::lock_guard lock(mu_);
  auto reader = reader_locked();
  if (!reader) return reader.error();
  return reader.value()->size();
}

Status FileHandle::truncate(std::uint64_t size, pid_t pid) {
  if ((flags_ & O_ACCMODE) == O_RDONLY) return Errno{EBADF};
  std::lock_guard lock(mu_);
  auto writer = writer_for(pid);
  if (!writer) return writer.error();
  rebuild_ = true;  // as in sync(): the records reach the index dropping
  if (auto s = writer.value()->truncate(size); !s) return s;
  modified_ = ::time(nullptr);
  // Sibling writer streams on this handle must not later re-advertise a
  // pre-truncate EOF in their metadata hints.
  for (auto& [other_pid, other] : writers_) {
    if (other_pid != pid) other->clamp_eof(size);
  }
  IndexCache::shared().invalidate(path_);
  return Status::success();
}

Result<std::shared_ptr<FileHandle>> plfs_open(const std::string& path,
                                              int flags, pid_t pid,
                                              mode_t mode, OpenOptions opts) {
  const bool exists = posix::exists(path);
  const bool container = exists && is_container(path);
  if (exists && !container) {
    // A plain directory (or foreign file) occupies the name.
    return Errno{posix::is_directory(path) ? EISDIR : ENOTSUP};
  }
  if (!container) {
    if ((flags & O_CREAT) == 0) return Errno{ENOENT};
    if (auto s = fast_create_enabled()
                     ? create_container_fast(path, mode)
                     : create_container(path, mode, writer_host(opts), pid,
                                        opts.hostdirs);
        !s) {
      // A concurrent creator racing us is fine unless O_EXCL.
      if (s.error_code() != EEXIST || (flags & O_EXCL) != 0) return s.error();
    }
  } else {
    if ((flags & O_CREAT) != 0 && (flags & O_EXCL) != 0) return Errno{EEXIST};
  }

  if ((flags & O_TRUNC) != 0 && (flags & O_ACCMODE) != O_RDONLY && container) {
    // Truncate-to-zero at open clears the container's droppings outright
    // (rather than masking them with a truncate record), so repeated
    // O_TRUNC checkpoint cycles do not accumulate dead log data.
    if (auto s = plfs_trunc(path, 0); !s) return s.error();
  }
  if (container && (flags & O_ACCMODE) == O_RDONLY) maybe_auto_flatten(path);
  stats::add(stats::Counter::kPlfsHandleOpened);
  return std::make_shared<FileHandle>(path, flags, opts);
}

Result<std::size_t> plfs_write(FileHandle& fd, std::span<const std::byte> data,
                               std::uint64_t offset, pid_t pid) {
  return fd.write(data, offset, pid);
}

Result<std::size_t> plfs_read(FileHandle& fd, std::span<std::byte> out,
                              std::uint64_t offset) {
  return fd.read(out, offset);
}

Result<std::size_t> plfs_readx(FileHandle& fd,
                               std::span<const ReadSegment> segs) {
  return fd.readx(segs);
}

Result<std::size_t> plfs_writex(FileHandle& fd,
                                std::span<const WriteSegment> segs,
                                pid_t pid) {
  return fd.writex(segs, pid);
}

Status plfs_sync(FileHandle& fd, pid_t pid) { return fd.sync(pid); }

Status plfs_close(const std::shared_ptr<FileHandle>& fd, pid_t pid) {
  if (!fd) return Errno{EBADF};
  stats::add(stats::Counter::kPlfsHandleClosed);
  return fd->close(pid);
}

Result<FileAttr> plfs_getattr(const std::string& path) {
  if (!is_container(path)) return Errno{ENOENT};
  FileAttr attr;

  // mtime: closes drop metadata hints, so the metadata directory's mtime
  // tracks the last completed write burst; fall back to the container dir.
  ContainerLayout mtime_layout(path);
  if (auto st = posix::stat_path(mtime_layout.metadata_path())) {
    attr.mtime = st.value().st_mtime;
  }
  if (auto st = posix::stat_path(path)) {
    attr.mtime = std::max(attr.mtime, st.value().st_mtime);
  }

  // The creator file records the mode; fast-created containers have no
  // creator and carry "mode=..." in the access marker instead.
  auto creator = posix::read_file(path_join(path, kCreatorFile));
  if (!creator) creator = posix::read_file(path_join(path, kAccessFile));
  if (creator) {
    const auto pos = creator.value().find("mode=");
    if (pos != std::string::npos) {
      attr.mode = static_cast<mode_t>(
          std::strtoul(creator.value().c_str() + pos + 5, nullptr, 8));
    }
  }

  // Fast path (same trick as PLFS): when no writer has the file open, the
  // name-encoded metadata hints give the size without touching any index.
  auto open_hosts = read_open_hosts(path);
  if (open_hosts && open_hosts.value().empty()) {
    auto hints = read_meta_hints(path);
    if (hints && !hints.value().empty()) {
      // Hints are per-writer; also count index droppings so that a writer
      // that crashed before dropping a hint does not go unnoticed.
      auto droppings = find_index_droppings(path);
      if (droppings &&
          droppings.value().size() <= hints.value().size()) {
        for (const auto& hint : hints.value()) {
          attr.size = std::max(attr.size, hint.eof);
        }
        attr.from_hints = true;
        return attr;
      }
    }
  }

  auto index = IndexCache::shared().get(path);
  if (!index) return index.error();
  attr.size = index.value()->size();
  return attr;
}

Status plfs_unlink(const std::string& path) {
  drop_container_caches(path);
  return remove_container(path);
}

Status plfs_trunc(const std::string& path, std::uint64_t size) {
  if (!is_container(path)) return Errno{ENOENT};
  drop_container_caches(path);
  if (size == 0) {
    // Truncate-to-zero drops history entirely: remove droppings and hints
    // rather than masking them (this is what keeps repeated O_TRUNC
    // checkpoint cycles from growing the container forever).
    auto index_paths = find_index_droppings(path);
    if (!index_paths) return index_paths.error();
    for (const auto& p : index_paths.value()) {
      if (auto s = posix::remove_file(p); !s) return s;
    }
    auto data_paths = find_data_droppings(path);
    if (!data_paths) return data_paths.error();
    for (const auto& p : data_paths.value()) {
      if (auto s = posix::remove_file(p); !s) return s;
    }
    ContainerLayout layout(path);
    auto metas = posix::list_dir(layout.metadata_path());
    if (metas) {
      for (const auto& name : metas.value()) {
        (void)posix::remove_file(path_join(layout.metadata_path(), name));
      }
    }
    return Status::success();
  }
  // Non-zero truncate: record it through a short-lived writer stream.
  WriterId id{local_hostname(), ::getpid(), next_timestamp()};
  auto wf = WriteFile::open(path, id);
  if (!wf) return wf.error();
  if (auto s = wf.value()->truncate(size); !s) return s;
  return wf.value()->close();
}

Status plfs_access(const std::string& path, int amode) {
  if (!is_container(path)) return Errno{ENOENT};
  const std::string marker = path_join(path, kAccessFile);
  if (::access(marker.c_str(), amode & ~X_OK) != 0) return Errno{errno};
  return Status::success();
}

Status plfs_rename(const std::string& from, const std::string& to) {
  if (!is_container(from)) return Errno{ENOENT};
  drop_container_caches(from);
  drop_container_caches(to);
  if (is_container(to)) {
    if (auto s = remove_container(to); !s) return s;
  }
  return posix::rename_path(from, to);
}

Result<std::vector<DirEntry>> plfs_readdir(const std::string& path) {
  auto names = posix::list_dir(path);
  if (!names) return names.error();
  std::vector<DirEntry> out;
  out.reserve(names.value().size());
  for (const auto& name : names.value()) {
    const std::string full = path_join(path, name);
    DirEntry entry;
    entry.name = name;
    entry.is_plfs_file = is_container(full);
    entry.is_directory = !entry.is_plfs_file && posix::is_directory(full);
    out.push_back(std::move(entry));
  }
  return out;
}

Status plfs_flatten(const std::string& path) {
  if (!is_container(path)) return Errno{ENOENT};
  auto index = IndexCache::shared().get(path);
  if (!index) return index.error();
  auto old_droppings = find_index_droppings(path);
  if (!old_droppings) return old_droppings.error();

  ContainerLayout layout(path);
  WriterId id{local_hostname(), ::getpid(), next_timestamp()};
  const std::string hostdir = layout.hostdir_for(id.host);
  if (auto s = posix::make_dirs(hostdir); !s) return s;
  const std::string flat_path =
      path_join(hostdir, ContainerLayout::index_dropping_name(id));
  if (auto s = posix::write_file(flat_path, index.value()->encode_flattened());
      !s) {
    return s;
  }
  for (const auto& old : old_droppings.value()) {
    if (auto s = posix::remove_file(old); !s) return s;
  }
  IndexCache::shared().invalidate(path);
  shmeta::bump(path);
  return Status::success();
}

bool plfs_is_container(const std::string& path) { return is_container(path); }

stats::Snapshot plfs_stats() { return stats::snapshot(); }

std::vector<health::BackendSnapshot> plfs_health() {
  return health::snapshot();
}

}  // namespace ldplfs::plfs
