#include "core/router.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "common/health.hpp"
#include "common/logging.hpp"
#include "common/paths.hpp"
#include "common/stats.hpp"
#include "posix/fd.hpp"

namespace ldplfs::core {

namespace {

/// POSIX-style error return: set errno from a Status/Result error.
int fail(Errno e) {
  errno = e.code;
  return -1;
}

/// FNV-1a 64-bit. Containers are backend directories, so the kernel's
/// st_ino/st_dev describe the directory inode, not the logical file; stat
/// answers synthesize both from the backend path so that tar/du/find's
/// hardlink detection ((dev, ino) pairs) sees distinct, stable identities.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string current_dir() {
  char buf[4096];
  if (::getcwd(buf, sizeof buf) == nullptr) return "/";
  return buf;
}

/// The process umask, read without changing it. umask(2) can only read it
/// by setting it, which races with creates on other threads; Linux reports
/// it in /proc/self/status since 4.7. Without that line no mask applies.
mode_t current_umask(const RealCalls& real) {
  const int fd = real.open("/proc/self/status", O_RDONLY | O_CLOEXEC, 0);
  if (fd < 0) return 0;
  char buf[4096];
  const ssize_t n = real.read(fd, buf, sizeof buf - 1);
  real.close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  const char* line = std::strstr(buf, "\nUmask:");
  if (line == nullptr) return 0;
  return static_cast<mode_t>(std::strtoul(line + 7, nullptr, 8) & 0777);
}

}  // namespace

Router::Resolved Router::resolve(const char* path) const {
  Resolved r;
  if (path == nullptr) return r;
  r.path = normalize_path(path, current_dir());
  r.in_mount = mounts_.match(r.path).has_value();
  return r;
}

bool Router::path_in_mount(const char* path) const {
  return resolve(path).in_mount;
}

bool Router::path_is_container(const char* path) const {
  const Resolved r = resolve(path);
  return r.in_mount && plfs::plfs_is_container(r.path);
}

std::string Router::resolve_path(const char* path) const {
  return resolve(path).path;
}

int Router::make_shadow_fd() {
  const char* tmpdir = std::getenv("TMPDIR");
  if (tmpdir == nullptr || tmpdir[0] == '\0') tmpdir = "/tmp";
#ifdef O_TMPFILE
  int fd = real_.open(tmpdir, O_TMPFILE | O_RDWR, 0600);
  if (fd >= 0) return fd;
#endif
  // Fallback: create-and-unlink with a unique name.
  for (int attempt = 0; attempt < 64; ++attempt) {
    char name[512];
    std::snprintf(name, sizeof name, "%s/.ldplfs.shadow.%ld.%d", tmpdir,
                  static_cast<long>(::getpid()), attempt);
    const int fallback_fd = real_.open(name, O_RDWR | O_CREAT | O_EXCL, 0600);
    if (fallback_fd >= 0) {
      real_.unlink(name);
      return fallback_fd;
    }
    if (errno != EEXIST) break;
  }
  return -1;
}

int Router::open_plfs(const Resolved& where, int flags, mode_t mode) {
  const pid_t pid = ::getpid();
  auto handle = plfs::plfs_open(where.path, flags, pid, mode);
  if (!handle) return fail(handle.error());

  const int shadow = make_shadow_fd();
  if (shadow < 0) {
    // Close the handle we just opened, or its container bookkeeping (open
    // registration, any writer stream a future flush would create) leaks
    // for the life of the process. Logging may clobber errno, so save the
    // open() failure code around both.
    const int saved_errno = errno;
    (void)plfs::plfs_close(handle.value(), pid);
    LDPLFS_LOG_ERROR("cannot create shadow fd for %s", where.path.c_str());
    errno = saved_errno;
    return -1;
  }

  // Note: O_APPEND does not move the initial offset — POSIX starts every
  // open at 0 and appending happens per write (Router::write).

  table_.insert(shadow,
                std::make_shared<OpenFile>(std::move(handle).value(), flags, pid));
  LDPLFS_LOG_DEBUG("open(%s) -> plfs fd %d", where.path.c_str(), shadow);
  return shadow;
}

int Router::open(const char* path, int flags, mode_t mode) {
  stats::Timer timer(stats::Histogram::kRouterOpenLatency);
  const Resolved where = resolve(path);
  if (!where.in_mount) {
    timer.cancel();
    stats::add(stats::Counter::kRouterOpenPassthrough);
    return real_.open(path, flags, mode);
  }
  if (health::bypass_open(where.path)) {
    // LDPLFS_ON_FAILURE=passthrough with the backend's breaker open: route
    // new opens around PLFS entirely — the application talks to the real
    // filesystem until the breaker's half-open probe sees recovery.
    timer.cancel();
    stats::add(stats::Counter::kRouterOpenPassthrough);
    return real_.open(path, flags, mode);
  }

  struct ::stat st{};
  const bool exists = real_.lstat(where.path.c_str(), &st) == 0;
  const bool container = exists && S_ISDIR(st.st_mode) &&
                         plfs::plfs_is_container(where.path);
  if (container) {
    if ((flags & O_DIRECTORY) != 0) {
      // A container is logically a regular file, so O_DIRECTORY must fail
      // exactly as it would on one. coreutils ≥ 9 probe the copy target
      // with open(O_PATH|O_DIRECTORY) — letting this succeed makes
      // `cp src container` try to copy *into* the container.
      timer.cancel();
      stats::add(stats::Counter::kRouterOpenRouted);
      errno = ENOTDIR;
      return -1;
    }
    stats::add(stats::Counter::kRouterOpenRouted);
    return open_plfs(where, flags, mode);
  }
  if (exists) {
    // A plain file or directory inside the backend (dotfiles, the mount
    // root itself, hostdir internals) — not ours, pass straight through.
    timer.cancel();
    stats::add(stats::Counter::kRouterOpenPassthrough);
    return real_.open(path, flags, mode);
  }
  if ((flags & O_CREAT) != 0 && (flags & O_DIRECTORY) == 0) {
    stats::add(stats::Counter::kRouterOpenRouted);
    // A create takes the umask off the mode, as open(2) does.
    return open_plfs(where, flags, mode & ~current_umask(real_));
  }
  timer.cancel();
  stats::add(stats::Counter::kRouterOpenPassthrough);
  return real_.open(path, flags, mode);
}

int Router::dup(int fd) {
  auto of = table_.lookup(fd);
  stats::add(of ? stats::Counter::kRouterMetaRouted
                : stats::Counter::kRouterMetaPassthrough);
  const int newfd = real_.dup(fd);
  if (newfd >= 0 && of) table_.alias(newfd, std::move(of));
  return newfd;
}

int Router::dup2(int oldfd, int newfd) {
  auto of = table_.lookup(oldfd);
  stats::add(of ? stats::Counter::kRouterMetaRouted
                : stats::Counter::kRouterMetaPassthrough);
  // The real dup2 goes first: if it fails (EBADF, EINTR) the kernel left
  // newfd untouched, so its PLFS state — fd-table entry, possibly the last
  // alias of a writer stream — must stay intact too. Only a successful
  // dup2 implicitly closed newfd, and only then is its state retired.
  const int result = real_.dup2(oldfd, newfd);
  if (result < 0 || oldfd == newfd) return result;
  if (auto old_target = table_.erase(newfd)) {
    (void)old_target;  // writer stream closes if this was the last alias
  }
  if (of) table_.alias(result, std::move(of));
  return result;
}

Result<std::uint64_t> Router::append_eof(OpenFile& of) {
  // One process can hold several independent opens of the same logical
  // file (each with its own writer streams and write-behind buffers).
  // Appending at *this* handle's size() would place the bytes at a stale
  // EOF whenever a sibling handle holds a larger buffered tail. Take the
  // max over every open handle: size() drains each handle's writers into
  // its own snapshot (no index write, no fsync), and the calls run
  // sequentially, so the max is the true EOF the append must land at.
  auto eof = of.handle().size();
  if (!eof) return eof.error();
  std::uint64_t max_eof = eof.value();
  for (const auto& other : table_.find_all_by_path(of.handle().path())) {
    if (other.get() == &of) continue;
    auto size = other->handle().size();
    if (!size) return size.error();
    max_eof = std::max(max_eof, size.value());
  }
  return max_eof;
}

ssize_t Router::read(int fd, void* buf, size_t count) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterReadPassthrough);
    return real_.read(fd, buf, count);
  }
  stats::add(stats::Counter::kRouterReadRouted);
  stats::Timer timer(stats::Histogram::kRouterReadLatency);

  const off_t cursor = real_.lseek(fd, 0, SEEK_CUR);
  if (cursor < 0) return -1;
  auto n = of->handle().read(
      std::span<std::byte>(static_cast<std::byte*>(buf), count),
      static_cast<std::uint64_t>(cursor));
  if (!n) return fail(n.error());
  real_.lseek(fd, cursor + static_cast<off_t>(n.value()), SEEK_SET);
  stats::add(stats::Counter::kRouterReadBytes, n.value());
  return static_cast<ssize_t>(n.value());
}

ssize_t Router::write(int fd, const void* buf, size_t count) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterWritePassthrough);
    return real_.write(fd, buf, count);
  }
  stats::add(stats::Counter::kRouterWriteRouted);
  stats::Timer timer(stats::Histogram::kRouterWriteLatency);

  std::uint64_t offset;
  if ((of->flags() & O_APPEND) != 0) {
    auto size = append_eof(*of);
    if (!size) return fail(size.error());
    offset = size.value();
  } else {
    const off_t cursor = real_.lseek(fd, 0, SEEK_CUR);
    if (cursor < 0) return -1;
    offset = static_cast<std::uint64_t>(cursor);
  }
  auto n = of->handle().write(
      std::span<const std::byte>(static_cast<const std::byte*>(buf), count),
      offset, of->pid());
  if (!n) return fail(n.error());
  real_.lseek(fd, static_cast<off_t>(offset + n.value()), SEEK_SET);
  stats::add(stats::Counter::kRouterWriteBytes, n.value());
  return static_cast<ssize_t>(n.value());
}

ssize_t Router::pread(int fd, void* buf, size_t count, off_t offset) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterPreadPassthrough);
    return real_.pread(fd, buf, count, offset);
  }
  stats::add(stats::Counter::kRouterPreadRouted);
  stats::Timer timer(stats::Histogram::kRouterPreadLatency);
  auto n = of->handle().read(
      std::span<std::byte>(static_cast<std::byte*>(buf), count),
      static_cast<std::uint64_t>(offset));
  if (!n) return fail(n.error());
  stats::add(stats::Counter::kRouterReadBytes, n.value());
  return static_cast<ssize_t>(n.value());
}

ssize_t Router::pwrite(int fd, const void* buf, size_t count, off_t offset) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterPwritePassthrough);
    return real_.pwrite(fd, buf, count, offset);
  }
  stats::add(stats::Counter::kRouterPwriteRouted);
  stats::Timer timer(stats::Histogram::kRouterPwriteLatency);
  std::uint64_t target = static_cast<std::uint64_t>(offset);
  if ((of->flags() & O_APPEND) != 0) {
    // Linux quirk (pwrite(2) BUGS): on an O_APPEND descriptor pwrite
    // appends at EOF, ignoring the offset. Interposition must match the
    // platform the application was written against.
    auto size = append_eof(*of);
    if (!size) return fail(size.error());
    target = size.value();
  }
  auto n = of->handle().write(
      std::span<const std::byte>(static_cast<const std::byte*>(buf), count),
      target, of->pid());
  if (!n) return fail(n.error());
  stats::add(stats::Counter::kRouterWriteBytes, n.value());
  return static_cast<ssize_t>(n.value());
}

namespace {

/// Address an iovec vector at cumulative offsets from `pos`. Offsets are
/// fixed up front — a batch read only ever lands short at EOF, where the
/// batch ends anyway, so cumulative addressing equals cursor threading.
std::vector<plfs::ReadSegment> read_segments(const struct ::iovec* iov,
                                             int iovcnt, std::uint64_t pos) {
  std::vector<plfs::ReadSegment> segs;
  segs.reserve(iovcnt > 0 ? static_cast<std::size_t>(iovcnt) : 0);
  for (int i = 0; i < iovcnt; ++i) {
    if (iov[i].iov_len == 0) continue;
    segs.push_back(plfs::ReadSegment{
        pos, std::span<std::byte>(static_cast<std::byte*>(iov[i].iov_base),
                                  iov[i].iov_len)});
    pos += iov[i].iov_len;
  }
  return segs;
}

std::vector<plfs::WriteSegment> write_segments(const struct ::iovec* iov,
                                               int iovcnt,
                                               std::uint64_t pos) {
  std::vector<plfs::WriteSegment> segs;
  segs.reserve(iovcnt > 0 ? static_cast<std::size_t>(iovcnt) : 0);
  for (int i = 0; i < iovcnt; ++i) {
    if (iov[i].iov_len == 0) continue;
    segs.push_back(plfs::WriteSegment{
        pos, std::span<const std::byte>(
                 static_cast<const std::byte*>(iov[i].iov_base),
                 iov[i].iov_len)});
    pos += iov[i].iov_len;
  }
  return segs;
}

}  // namespace

ssize_t Router::readv(int fd, const struct ::iovec* iov, int iovcnt) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterReadvPassthrough);
    return ::readv(fd, iov, iovcnt);
  }
  stats::add(stats::Counter::kRouterReadvRouted);
  // Vectored I/O goes through the list-I/O batch API: one fd-table lookup,
  // one shadow-fd cursor round-trip, and one index snapshot for the whole
  // vector (readx), so a snapshot refresh between iovecs can never tear
  // the vector and the cumulative count survives a middle iovec landing
  // short at EOF. POSIX offset-atomicity holds because the cursor only
  // moves through this thread's own calls.
  const off_t start = real_.lseek(fd, 0, SEEK_CUR);
  if (start < 0) return -1;
  const auto segs =
      read_segments(iov, iovcnt, static_cast<std::uint64_t>(start));
  auto n = of->handle().readx(segs);
  if (!n) return fail(n.error());
  real_.lseek(fd, start + static_cast<off_t>(n.value()), SEEK_SET);
  stats::add(stats::Counter::kRouterReadBytes, n.value());
  return static_cast<ssize_t>(n.value());
}

ssize_t Router::writev(int fd, const struct ::iovec* iov, int iovcnt) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterWritevPassthrough);
    return ::writev(fd, iov, iovcnt);
  }
  stats::add(stats::Counter::kRouterWritevRouted);
  std::uint64_t pos;
  if ((of->flags() & O_APPEND) != 0) {
    auto size = append_eof(*of);
    if (!size) return fail(size.error());
    pos = size.value();
  } else {
    const off_t start = real_.lseek(fd, 0, SEEK_CUR);
    if (start < 0) return -1;
    pos = static_cast<std::uint64_t>(start);
  }
  const auto segs = write_segments(iov, iovcnt, pos);
  auto n = of->handle().writex(segs, of->pid());
  if (!n) return fail(n.error());
  real_.lseek(fd, static_cast<off_t>(pos + n.value()), SEEK_SET);
  stats::add(stats::Counter::kRouterWriteBytes, n.value());
  return static_cast<ssize_t>(n.value());
}

ssize_t Router::preadv(int fd, const struct ::iovec* iov, int iovcnt,
                       off_t offset) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterPreadvPassthrough);
    return ::preadv(fd, iov, iovcnt, offset);
  }
  stats::add(stats::Counter::kRouterPreadvRouted);
  const auto segs =
      read_segments(iov, iovcnt, static_cast<std::uint64_t>(offset));
  auto n = of->handle().readx(segs);
  if (!n) return fail(n.error());
  stats::add(stats::Counter::kRouterReadBytes, n.value());
  return static_cast<ssize_t>(n.value());
}

ssize_t Router::pwritev(int fd, const struct ::iovec* iov, int iovcnt,
                        off_t offset) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterPwritevPassthrough);
    return ::pwritev(fd, iov, iovcnt, offset);
  }
  stats::add(stats::Counter::kRouterPwritevRouted);
  std::uint64_t target = static_cast<std::uint64_t>(offset);
  if ((of->flags() & O_APPEND) != 0) {
    // Same Linux quirk as pwrite (pwrite(2) BUGS): O_APPEND wins over the
    // explicit offset and the vector appends at EOF.
    auto size = append_eof(*of);
    if (!size) return fail(size.error());
    target = size.value();
  }
  const auto segs = write_segments(iov, iovcnt, target);
  auto n = of->handle().writex(segs, of->pid());
  if (!n) return fail(n.error());
  stats::add(stats::Counter::kRouterWriteBytes, n.value());
  return static_cast<ssize_t>(n.value());
}

off_t Router::lseek(int fd, off_t offset, int whence) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterLseekPassthrough);
    return real_.lseek(fd, offset, whence);
  }
  stats::add(stats::Counter::kRouterLseekRouted);
  if (whence == SEEK_END) {
    auto size = of->handle().size();
    if (!size) return fail(size.error());
    return real_.lseek(fd, static_cast<off_t>(size.value()) + offset,
                       SEEK_SET);
  }
  // SEEK_SET / SEEK_CUR live entirely in the shadow fd's kernel offset.
  return real_.lseek(fd, offset, whence);
}

int Router::close(int fd) {
  auto of = table_.erase(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterClosePassthrough);
    return real_.close(fd);
  }
  stats::add(stats::Counter::kRouterCloseRouted);
  stats::Timer timer(stats::Histogram::kRouterCloseLatency);
  int result = 0;
  if (of.use_count() == 1) {
    // Last alias: shut down the writer stream and surface its errors here,
    // like close(2) surfaces deferred write errors.
    if (auto s = of->close_stream(); !s) result = fail(s.error());
  }
  if (real_.close(fd) != 0) result = -1;
  return result;
}

int Router::fsync(int fd) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterSyncPassthrough);
    return real_.fsync(fd);
  }
  stats::add(stats::Counter::kRouterSyncRouted);
  if (auto s = of->handle().sync(of->pid()); !s) return fail(s.error());
  return 0;
}

int Router::fdatasync(int fd) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterSyncPassthrough);
    return real_.fdatasync(fd);
  }
  stats::add(stats::Counter::kRouterSyncRouted);
  if (auto s = of->handle().sync(of->pid()); !s) return fail(s.error());
  return 0;
}

int Router::ftruncate(int fd, off_t length) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterMetaPassthrough);
    return real_.ftruncate(fd, length);
  }
  stats::add(stats::Counter::kRouterMetaRouted);
  if (length < 0) return fail(Errno{EINVAL});
  if (auto s = of->handle().truncate(static_cast<std::uint64_t>(length),
                                     of->pid());
      !s) {
    return fail(s.error());
  }
  return 0;
}

int Router::fcntl(int fd, int cmd, long arg) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterMetaPassthrough);
    return ::fcntl(fd, cmd, arg);
  }
  stats::add(stats::Counter::kRouterMetaRouted);
  switch (cmd) {
    case F_DUPFD:
    case F_DUPFD_CLOEXEC: {
      // Same bug class as the dup2 fix (PR 4): the kernel duplicates the
      // shadow fd, and without an alias the duplicate routes nothing — a
      // later close(newfd) would close the shadow behind the table's back
      // while read/write on it hit the empty shadow file. Register it like
      // dup() does; the kernel-shared file description keeps the cursor
      // aliased for free.
      const int newfd = ::fcntl(fd, cmd, arg);
      if (newfd >= 0) table_.alias(newfd, std::move(of));
      return newfd;
    }
    case F_GETFL: {
      // The shadow fd's kernel flags describe the shadow tmpfile (O_RDWR,
      // never O_APPEND), not the logical open. Answer from the fd table,
      // masking the creation-time-only flags the kernel also omits.
      return of->flags() & ~(O_CREAT | O_EXCL | O_NOCTTY | O_TRUNC);
    }
    case F_SETFL: {
      // POSIX: only O_APPEND, O_NONBLOCK (and kernel-side hints we don't
      // model) are settable; access mode and creation flags are ignored.
      constexpr int kSettable = O_APPEND | O_NONBLOCK;
      of->set_flags((of->flags() & ~kSettable) |
                    (static_cast<int>(arg) & kSettable));
      return 0;
    }
    default:
      // F_GETFD/F_SETFD (close-on-exec) and advisory locks act on the
      // shadow, which *is* the kernel descriptor the application owns.
      return ::fcntl(fd, cmd, arg);
  }
}

void Router::fill_stat(struct ::stat* st, const plfs::FileAttr& attr,
                       const std::string& backend_path) const {
  *st = {};
  // The backend inode belongs to the container *directory*; leaving st_ino
  // and st_dev zero made every container a hardlink of every other to any
  // tool that deduplicates on (st_dev, st_ino) — tar, du, find -samefile.
  // Synthesize a stable inode from the backend path and a device id per
  // mount, so identities survive across processes and cache states.
  std::uint64_t ino = fnv1a(backend_path);
  if (ino == 0) ino = 1;  // 0 means "no inode" to several tools
  std::uint64_t dev = fnv1a(mounts_.match(backend_path).value_or("ldplfs"));
  if (dev == 0) dev = 1;
  st->st_ino = static_cast<ino_t>(ino);
  st->st_dev = static_cast<dev_t>(dev);
  st->st_mode = S_IFREG | (attr.mode & 07777);
  st->st_size = static_cast<off_t>(attr.size);
  st->st_nlink = 1;
  st->st_uid = ::getuid();
  st->st_gid = ::getgid();
  st->st_blksize = 4096;
  st->st_blocks = static_cast<blkcnt_t>((attr.size + 511) / 512);
  st->st_mtime = attr.mtime;
  st->st_atime = attr.mtime;
  st->st_ctime = attr.mtime;
}

Result<plfs::FileAttr> Router::open_attr(OpenFile& of) {
  // Unflushed records (and, under write-behind, data still coalescing in
  // the aggregation buffer) make the on-disk index lag; take the size from
  // the live handle instead, the way the kernel answers stat from the
  // in-memory inode. size() drains the writers, so the answer includes
  // every acknowledged byte.
  auto size = of.handle().size();
  if (!size) return size.error();
  // Mode and mtime come from the container, as for a closed file (an
  // unlinked one keeps the defaults). Writes not yet closed have not
  // touched it, so the mtime is raised to the newest write or truncate
  // through any handle this process holds open on the file.
  const std::string& path = of.handle().path();
  plfs::FileAttr attr = plfs::plfs_getattr(path).value_or(plfs::FileAttr{});
  attr.size = size.value();
  for (const auto& open_file : table_.find_all_by_path(path)) {
    attr.mtime = std::max(attr.mtime, open_file->handle().modified());
  }
  return attr;
}

int Router::stat(const char* path, struct ::stat* st) {
  const Resolved where = resolve(path);
  if (!where.in_mount || !plfs::plfs_is_container(where.path)) {
    stats::add(stats::Counter::kRouterStatPassthrough);
    return real_.stat(path, st);
  }
  stats::add(stats::Counter::kRouterStatRouted);
  if (auto open_file = table_.find_by_path(where.path)) {
    auto attr = open_attr(*open_file);
    if (!attr) return fail(attr.error());
    fill_stat(st, attr.value(), where.path);
    return 0;
  }
  auto attr = plfs::plfs_getattr(where.path);
  if (!attr) return fail(attr.error());
  fill_stat(st, attr.value(), where.path);
  return 0;
}

int Router::lstat(const char* path, struct ::stat* st) {
  // Containers are directories, never symlinks; present them as files.
  return stat(path, st);
}

int Router::fstat(int fd, struct ::stat* st) {
  auto of = table_.lookup(fd);
  if (!of) {
    stats::add(stats::Counter::kRouterStatPassthrough);
    return real_.fstat(fd, st);
  }
  stats::add(stats::Counter::kRouterStatRouted);
  auto attr = open_attr(*of);
  if (!attr) return fail(attr.error());
  fill_stat(st, attr.value(), of->handle().path());
  return 0;
}

int Router::unlink(const char* path) {
  const Resolved where = resolve(path);
  if (!where.in_mount || !plfs::plfs_is_container(where.path)) {
    stats::add(stats::Counter::kRouterMetaPassthrough);
    return real_.unlink(path);
  }
  stats::add(stats::Counter::kRouterMetaRouted);
  if (auto s = plfs::plfs_unlink(where.path); !s) return fail(s.error());
  return 0;
}

int Router::access(const char* path, int amode) {
  const Resolved where = resolve(path);
  if (!where.in_mount || !plfs::plfs_is_container(where.path)) {
    stats::add(stats::Counter::kRouterMetaPassthrough);
    return real_.access(path, amode);
  }
  stats::add(stats::Counter::kRouterMetaRouted);
  if (auto s = plfs::plfs_access(where.path, amode); !s) {
    return fail(s.error());
  }
  return 0;
}

int Router::truncate(const char* path, off_t length) {
  const Resolved where = resolve(path);
  if (!where.in_mount || !plfs::plfs_is_container(where.path)) {
    stats::add(stats::Counter::kRouterMetaPassthrough);
    return real_.truncate(path, length);
  }
  stats::add(stats::Counter::kRouterMetaRouted);
  if (length < 0) return fail(Errno{EINVAL});
  if (auto s = plfs::plfs_trunc(where.path,
                                static_cast<std::uint64_t>(length));
      !s) {
    return fail(s.error());
  }
  return 0;
}

int Router::rename(const char* from, const char* to) {
  const Resolved src = resolve(from);
  if (!src.in_mount || !plfs::plfs_is_container(src.path)) {
    stats::add(stats::Counter::kRouterMetaPassthrough);
    return real_.rename(from, to);
  }
  stats::add(stats::Counter::kRouterMetaRouted);
  const Resolved dst = resolve(to);
  if (!dst.in_mount) {
    // Renaming a container out of PLFS would need a copy; EXDEV tells the
    // caller to do exactly what mv(1) does across devices.
    return fail(Errno{EXDEV});
  }
  if (auto s = plfs::plfs_rename(src.path, dst.path); !s) {
    return fail(s.error());
  }
  return 0;
}

Router& Router::instance() {
  static Router router(libc_calls(), MountTable::instance());
  return router;
}

}  // namespace ldplfs::core
