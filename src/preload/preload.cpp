// The interposition front-end (paper §III-A), one source built twice:
//
//   libldplfs.so — the LD_PRELOAD shim (the paper's deliverable):
//     $ export LDPLFS_MOUNTS=/path/to/plfs/backend
//     $ LD_PRELOAD=/path/to/libldplfs.so ./unmodified_application
//   libldplfs_wrap.a — built with LDPLFS_WRAP, for systems without dynamic
//     loading (BlueGene): linked into the application together with one
//     -Wl,--wrap=<name> per line of interposed.def.
//
// LDPLFS_ENTRY(name) is each entry point: `name` itself in the .so, where it
// shadows libc's, and `__wrap_name` in the static library, where --wrap
// sends the application's calls. Calls are routed through core::Router;
// paths outside the configured PLFS mount points pass straight through to
// the real libc entry point, which libc() resolves from the same list with
// dlsym(RTLD_NEXT, ...) in the .so and takes from the linker's
// __real_<name> in the static library.
//
// Reentrancy: the PLFS library underneath the router performs its own POSIX
// I/O on droppings, and in both front-ends those calls reach the entry
// points below: inside libldplfs.so they bind to its exported symbols, and
// --wrap rewrites every object in the application's link, the PLFS
// library's included. A thread-local guard marks "already inside LDPLFS"
// frames and forwards them to the real functions untouched. (The same
// technique is used by Darshan and other LD_PRELOAD I/O tools.)
//
// Variadic open(2): the mode argument is fetched iff O_CREAT or O_TMPFILE
// is present, as the libc contract requires.

#ifndef LDPLFS_WRAP
#include <dlfcn.h>
#endif
#include <fcntl.h>
#include <stdarg.h>
#include <stdio.h>
#include <sys/mman.h>
#include <sys/sendfile.h>
#include <sys/stat.h>
#include <sys/sysmacros.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <new>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "core/mounts.hpp"
#include "core/real_calls.hpp"
#include "core/router.hpp"
#include "plfs/mapped_container.hpp"

#ifdef LDPLFS_WRAP
#define LDPLFS_ENTRY(name) __wrap_##name
// Linker-provided real entry points.
extern "C" {
#define LDPLFS_REAL(name) decltype(::name) __real_##name;
#define LDPLFS_ALIAS(name)
#include "preload/interposed.def"
#undef LDPLFS_ALIAS
#undef LDPLFS_REAL
}
#else
#define LDPLFS_ENTRY(name) name
#endif

namespace {

using ldplfs::core::MountTable;
using ldplfs::core::RealCalls;
using ldplfs::core::Router;

// ---------------------------------------------------------------------------
// Real-call resolution: one passthrough pointer per LDPLFS_REAL line.
// ---------------------------------------------------------------------------

#define LDPLFS_ALIAS(name)

struct Libc {
#define LDPLFS_REAL(name) decltype(&::name) name;
#include "preload/interposed.def"
#undef LDPLFS_REAL
};

const Libc& libc() {
#ifdef LDPLFS_WRAP
#define LDPLFS_REAL(name) .name = &__real_##name,
#else
  // dlsym may legitimately return nullptr only if the symbol is absent;
  // for core libc I/O symbols that would be fatal anyway.
#define LDPLFS_REAL(name) \
  .name = reinterpret_cast<decltype(&::name)>(::dlsym(RTLD_NEXT, #name)),
#endif
  static const Libc table = {
#include "preload/interposed.def"
  };
#undef LDPLFS_REAL
  return table;
}

#undef LDPLFS_ALIAS

/// The Router's passthrough table, taken from libc(). mkdir and rmdir are
/// not interposed, so libc's own are their passthrough.
const RealCalls& real() {
  static const RealCalls calls = [] {
    const Libc& l = libc();
    RealCalls c;
    // The Router always passes open's mode, so the variadic open serves.
    c.open = reinterpret_cast<int (*)(const char*, int, mode_t)>(l.open);
    c.close = l.close;
    c.read = l.read;
    c.write = l.write;
    c.pread = l.pread;
    c.pwrite = l.pwrite;
    c.lseek = l.lseek;
    c.dup = l.dup;
    c.dup2 = l.dup2;
    c.fsync = l.fsync;
    c.fdatasync = l.fdatasync;
    c.ftruncate = l.ftruncate;
    c.truncate = l.truncate;
    c.unlink = l.unlink;
    c.access = l.access;
    c.stat = l.stat;
    c.lstat = l.lstat;
    c.fstat = l.fstat;
    c.rename = l.rename;
    c.mkdir = ::mkdir;
    c.rmdir = ::rmdir;
    return c;
  }();
  return calls;
}

// ---------------------------------------------------------------------------
// Router bootstrap + reentrancy guard.
// ---------------------------------------------------------------------------

Router& router() {
  static Router instance = [] {
    MountTable::instance().load_from_env();
    LDPLFS_LOG_INFO("ldplfs interposition active; %zu mount point(s)",
                    MountTable::instance().mounts().size());
    return Router(real(), MountTable::instance());
  }();
  return instance;
}

thread_local int g_in_ldplfs = 0;

class ReentryGuard {
 public:
  ReentryGuard() { ++g_in_ldplfs; }
  ~ReentryGuard() { --g_in_ldplfs; }
  /// True when this is the outermost (application) frame.
  [[nodiscard]] bool outermost() const { return g_in_ldplfs == 1; }
};

/// open(2)'s mode argument is present iff O_CREAT or O_TMPFILE is.
constexpr bool takes_mode(int flags) {
  return (flags & O_CREAT) != 0 || (flags & O_TMPFILE) == O_TMPFILE;
}

}  // namespace

// ---------------------------------------------------------------------------
// Interposed symbols. Each forwards to the real call when (a) the frame is
// reentrant, or (b) the router declines ownership — the router itself does
// the passthrough in case (b).
// ---------------------------------------------------------------------------

extern "C" {

int LDPLFS_ENTRY(open)(const char* path, int flags, ...) {
  mode_t mode = 0;
  if (takes_mode(flags)) {
    va_list args;
    va_start(args, flags);
    mode = static_cast<mode_t>(va_arg(args, int));
    va_end(args);
  }
  ReentryGuard guard;
  if (!guard.outermost()) return libc().open(path, flags, mode);
  return router().open(path, flags, mode);
}

int LDPLFS_ENTRY(open64)(const char* path, int flags, ...) {
  mode_t mode = 0;
  if (takes_mode(flags)) {
    va_list args;
    va_start(args, flags);
    mode = static_cast<mode_t>(va_arg(args, int));
    va_end(args);
  }
  return LDPLFS_ENTRY(open)(path, flags | O_LARGEFILE, mode);
}

int LDPLFS_ENTRY(creat)(const char* path, mode_t mode) {
  return LDPLFS_ENTRY(open)(path, O_WRONLY | O_CREAT | O_TRUNC, mode);
}

int LDPLFS_ENTRY(close)(int fd) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().close(fd);
  return router().close(fd);
}

ssize_t LDPLFS_ENTRY(read)(int fd, void* buf, size_t count) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().read(fd, buf, count);
  return router().read(fd, buf, count);
}

ssize_t LDPLFS_ENTRY(write)(int fd, const void* buf, size_t count) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().write(fd, buf, count);
  return router().write(fd, buf, count);
}

ssize_t LDPLFS_ENTRY(pread)(int fd, void* buf, size_t count, off_t offset) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().pread(fd, buf, count, offset);
  return router().pread(fd, buf, count, offset);
}

ssize_t LDPLFS_ENTRY(pwrite)(int fd, const void* buf, size_t count,
                             off_t offset) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().pwrite(fd, buf, count, offset);
  return router().pwrite(fd, buf, count, offset);
}

ssize_t LDPLFS_ENTRY(pread64)(int fd, void* buf, size_t count, off_t offset) {
  return LDPLFS_ENTRY(pread)(fd, buf, count, offset);
}

ssize_t LDPLFS_ENTRY(pwrite64)(int fd, const void* buf, size_t count,
                               off_t offset) {
  return LDPLFS_ENTRY(pwrite)(fd, buf, count, offset);
}

ssize_t LDPLFS_ENTRY(readv)(int fd, const struct ::iovec* iov, int iovcnt) {
  ReentryGuard guard;
  if (!guard.outermost() || !router().is_plfs_fd(fd)) {
    return libc().readv(fd, iov, iovcnt);
  }
  return router().readv(fd, iov, iovcnt);
}

ssize_t LDPLFS_ENTRY(writev)(int fd, const struct ::iovec* iov, int iovcnt) {
  ReentryGuard guard;
  if (!guard.outermost() || !router().is_plfs_fd(fd)) {
    return libc().writev(fd, iov, iovcnt);
  }
  return router().writev(fd, iov, iovcnt);
}

ssize_t LDPLFS_ENTRY(preadv)(int fd, const struct ::iovec* iov, int iovcnt,
                             off_t offset) {
  ReentryGuard guard;
  if (!guard.outermost() || !router().is_plfs_fd(fd)) {
    return libc().preadv(fd, iov, iovcnt, offset);
  }
  return router().preadv(fd, iov, iovcnt, offset);
}

ssize_t LDPLFS_ENTRY(pwritev)(int fd, const struct ::iovec* iov, int iovcnt,
                              off_t offset) {
  ReentryGuard guard;
  if (!guard.outermost() || !router().is_plfs_fd(fd)) {
    return libc().pwritev(fd, iov, iovcnt, offset);
  }
  return router().pwritev(fd, iov, iovcnt, offset);
}

ssize_t LDPLFS_ENTRY(preadv64)(int fd, const struct ::iovec* iov, int iovcnt,
                               off_t offset) {
  return LDPLFS_ENTRY(preadv)(fd, iov, iovcnt, offset);
}

ssize_t LDPLFS_ENTRY(pwritev64)(int fd, const struct ::iovec* iov, int iovcnt,
                                off_t offset) {
  return LDPLFS_ENTRY(pwritev)(fd, iov, iovcnt, offset);
}

off_t LDPLFS_ENTRY(lseek)(int fd, off_t offset, int whence) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().lseek(fd, offset, whence);
  return router().lseek(fd, offset, whence);
}

off_t LDPLFS_ENTRY(lseek64)(int fd, off_t offset, int whence) {
  return LDPLFS_ENTRY(lseek)(fd, offset, whence);
}

int LDPLFS_ENTRY(dup)(int fd) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().dup(fd);
  return router().dup(fd);
}

int LDPLFS_ENTRY(dup2)(int oldfd, int newfd) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().dup2(oldfd, newfd);
  return router().dup2(oldfd, newfd);
}

// fcntl is variadic; the integer-argument commands (F_DUPFD, F_SETFL, ...)
// and the pointer-argument ones (F_SETLK, F_GETOWN_EX, ...) all fit in a
// long on the platforms we support, so fetch one long unconditionally and
// pass it through. F_DUPFD on a routed fd must register the duplicate in
// the fd table exactly like dup() — missing that was the same bug class as
// the dup2 aliasing fix.
int LDPLFS_ENTRY(fcntl)(int fd, int cmd, ...) {
  va_list args;
  va_start(args, cmd);
  const long arg = va_arg(args, long);
  va_end(args);
  ReentryGuard guard;
  if (!guard.outermost() || !router().is_plfs_fd(fd)) {
    return libc().fcntl(fd, cmd, arg);
  }
  return router().fcntl(fd, cmd, arg);
}

int LDPLFS_ENTRY(fcntl64)(int fd, int cmd, ...) {
  va_list args;
  va_start(args, cmd);
  const long arg = va_arg(args, long);
  va_end(args);
  ReentryGuard guard;
  if (!guard.outermost() || !router().is_plfs_fd(fd)) {
    return libc().fcntl64(fd, cmd, arg);
  }
  return router().fcntl(fd, cmd, arg);
}

int LDPLFS_ENTRY(fsync)(int fd) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().fsync(fd);
  return router().fsync(fd);
}

int LDPLFS_ENTRY(fdatasync)(int fd) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().fdatasync(fd);
  return router().fdatasync(fd);
}

int LDPLFS_ENTRY(ftruncate)(int fd, off_t length) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().ftruncate(fd, length);
  return router().ftruncate(fd, length);
}

int LDPLFS_ENTRY(truncate)(const char* path, off_t length) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().truncate(path, length);
  return router().truncate(path, length);
}

int LDPLFS_ENTRY(unlink)(const char* path) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().unlink(path);
  return router().unlink(path);
}

int LDPLFS_ENTRY(access)(const char* path, int amode) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().access(path, amode);
  return router().access(path, amode);
}

int LDPLFS_ENTRY(rename)(const char* from, const char* to) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().rename(from, to);
  return router().rename(from, to);
}

int LDPLFS_ENTRY(stat)(const char* path, struct ::stat* st) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().stat(path, st);
  return router().stat(path, st);
}

int LDPLFS_ENTRY(lstat)(const char* path, struct ::stat* st) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().lstat(path, st);
  return router().lstat(path, st);
}

int LDPLFS_ENTRY(fstat)(int fd, struct ::stat* st) {
  ReentryGuard guard;
  if (!guard.outermost()) return libc().fstat(fd, st);
  return router().fstat(fd, st);
}

// The *64 variants used to reinterpret_cast stat64* to stat* and fill the
// 32-bit-layout path directly — an accident of LP64 glibc defining the two
// structs identically, not a contract (and wrong wherever they differ,
// e.g. 32-bit with _LARGEFILE64_SOURCE). Fill a proper struct stat and
// convert field by field instead.
static void copy_stat_to_stat64(const struct ::stat& in, struct ::stat64* out) {
  *out = {};
  out->st_dev = in.st_dev;
  out->st_ino = static_cast<decltype(out->st_ino)>(in.st_ino);
  out->st_mode = in.st_mode;
  out->st_nlink = static_cast<decltype(out->st_nlink)>(in.st_nlink);
  out->st_uid = in.st_uid;
  out->st_gid = in.st_gid;
  out->st_rdev = in.st_rdev;
  out->st_size = static_cast<decltype(out->st_size)>(in.st_size);
  out->st_blksize = static_cast<decltype(out->st_blksize)>(in.st_blksize);
  out->st_blocks = static_cast<decltype(out->st_blocks)>(in.st_blocks);
  out->st_atim = in.st_atim;
  out->st_mtim = in.st_mtim;
  out->st_ctim = in.st_ctim;
}

// statx's form of the same answer: every STATX_BASIC_STATS field, which is
// exactly what stx_mask reports. stx_ino and stx_dev_* must carry
// Router::fill_stat's identity: zeros would make every container a hard
// link of every other.
static void copy_stat_to_statx(const struct ::stat& in, struct ::statx* out) {
  auto stamp = [](const struct ::timespec& t) {
    struct ::statx_timestamp s{};
    s.tv_sec = t.tv_sec;
    s.tv_nsec = static_cast<std::uint32_t>(t.tv_nsec);
    return s;
  };
  *out = {};
  out->stx_mask = STATX_BASIC_STATS;
  out->stx_blksize = static_cast<std::uint32_t>(in.st_blksize);
  out->stx_nlink = static_cast<std::uint32_t>(in.st_nlink);
  out->stx_uid = in.st_uid;
  out->stx_gid = in.st_gid;
  out->stx_mode = static_cast<std::uint16_t>(in.st_mode);
  out->stx_ino = in.st_ino;
  out->stx_size = static_cast<std::uint64_t>(in.st_size);
  out->stx_blocks = static_cast<std::uint64_t>(in.st_blocks);
  out->stx_atime = stamp(in.st_atim);
  out->stx_mtime = stamp(in.st_mtim);
  out->stx_ctime = stamp(in.st_ctim);
  out->stx_dev_major = major(in.st_dev);
  out->stx_dev_minor = minor(in.st_dev);
}

int LDPLFS_ENTRY(stat64)(const char* path, struct ::stat64* st) {
  struct ::stat tmp{};
  const int rc = LDPLFS_ENTRY(stat)(path, &tmp);
  if (rc == 0) copy_stat_to_stat64(tmp, st);
  return rc;
}

int LDPLFS_ENTRY(lstat64)(const char* path, struct ::stat64* st) {
  struct ::stat tmp{};
  const int rc = LDPLFS_ENTRY(lstat)(path, &tmp);
  if (rc == 0) copy_stat_to_stat64(tmp, st);
  return rc;
}

int LDPLFS_ENTRY(fstat64)(int fd, struct ::stat64* st) {
  struct ::stat tmp{};
  const int rc = LDPLFS_ENTRY(fstat)(fd, &tmp);
  if (rc == 0) copy_stat_to_stat64(tmp, st);
  return rc;
}

int LDPLFS_ENTRY(__xstat)(int ver, const char* path, struct ::stat* st) {
  (void)ver;
  return LDPLFS_ENTRY(stat)(path, st);
}

int LDPLFS_ENTRY(__lxstat)(int ver, const char* path, struct ::stat* st) {
  (void)ver;
  return LDPLFS_ENTRY(lstat)(path, st);
}

int LDPLFS_ENTRY(__fxstat)(int ver, int fd, struct ::stat* st) {
  (void)ver;
  return LDPLFS_ENTRY(fstat)(fd, st);
}

// ---------------------------------------------------------------------------
// *at() variants and statx. Modern coreutils (cp, mv, rm) reach files via
// dirfd-relative calls, so interposing only the classic entry points is not
// enough. Calls relative to AT_FDCWD (or with absolute paths) are routed
// through the path-based router; calls relative to a real directory fd pass
// through, since PLFS containers are only addressed by path here.
// ---------------------------------------------------------------------------

static bool routable_at(int dirfd, const char* path) {
  return path != nullptr && (dirfd == AT_FDCWD || path[0] == '/');
}

/// stat_at result meaning "not a PLFS file — pass through".
constexpr int kNotPlfs = -2;

/// The stat answer for a container named by an fstatat/statx call: by
/// path, or as the open routed fd itself with AT_EMPTY_PATH (Rust's
/// File::metadata asks statx this way), which must not describe the empty
/// shadow behind the fd. kNotPlfs otherwise; must run inside the guard.
static int stat_at(int dirfd, const char* path, int at_flags,
                   struct ::stat* st) {
  if ((at_flags & AT_EMPTY_PATH) != 0 && (path == nullptr || *path == '\0') &&
      router().is_plfs_fd(dirfd)) {
    return router().fstat(dirfd, st);
  }
  // Containers are never symlinks, so AT_SYMLINK_NOFOLLOW is moot.
  if (routable_at(dirfd, path) && router().path_is_container(path)) {
    return router().stat(path, st);
  }
  return kNotPlfs;
}

int LDPLFS_ENTRY(openat)(int dirfd, const char* path, int flags, ...) {
  mode_t mode = 0;
  if (takes_mode(flags)) {
    va_list args;
    va_start(args, flags);
    mode = static_cast<mode_t>(va_arg(args, int));
    va_end(args);
  }
  ReentryGuard guard;
  if (guard.outermost() && routable_at(dirfd, path)) {
    return router().open(path, flags, mode);
  }
  return libc().openat(dirfd, path, flags, mode);
}

int LDPLFS_ENTRY(openat64)(int dirfd, const char* path, int flags, ...) {
  mode_t mode = 0;
  if (takes_mode(flags)) {
    va_list args;
    va_start(args, flags);
    mode = static_cast<mode_t>(va_arg(args, int));
    va_end(args);
  }
  return LDPLFS_ENTRY(openat)(dirfd, path, flags | O_LARGEFILE, mode);
}

int LDPLFS_ENTRY(fstatat)(int dirfd, const char* path, struct ::stat* st,
                          int at_flags) {
  ReentryGuard guard;
  if (guard.outermost()) {
    const int rc = stat_at(dirfd, path, at_flags, st);
    if (rc != kNotPlfs) return rc;
  }
  return libc().fstatat(dirfd, path, st, at_flags);
}

int LDPLFS_ENTRY(fstatat64)(int dirfd, const char* path, struct ::stat64* st,
                            int at_flags) {
  // Same layout bug as the stat64 family above: never alias the stat64
  // buffer as a struct stat — fill one properly and convert.
  struct ::stat tmp{};
  const int rc = LDPLFS_ENTRY(fstatat)(dirfd, path, &tmp, at_flags);
  if (rc == 0) copy_stat_to_stat64(tmp, st);
  return rc;
}

int LDPLFS_ENTRY(__fxstatat)(int ver, int dirfd, const char* path,
                             struct ::stat* st, int at_flags) {
  (void)ver;
  return LDPLFS_ENTRY(fstatat)(dirfd, path, st, at_flags);
}

int LDPLFS_ENTRY(statx)(int dirfd, const char* path, int at_flags,
                        unsigned int mask, struct ::statx* stx) {
  ReentryGuard guard;
  if (guard.outermost()) {
    struct ::stat st{};
    const int rc = stat_at(dirfd, path, at_flags, &st);
    if (rc == 0) copy_stat_to_statx(st, stx);
    if (rc != kNotPlfs) return rc;
  }
  return libc().statx(dirfd, path, at_flags, mask, stx);
}

int LDPLFS_ENTRY(unlinkat)(int dirfd, const char* path, int at_flags) {
  ReentryGuard guard;
  if (guard.outermost() && routable_at(dirfd, path) &&
      (at_flags & AT_REMOVEDIR) == 0 && router().path_is_container(path)) {
    return router().unlink(path);
  }
  return libc().unlinkat(dirfd, path, at_flags);
}

int LDPLFS_ENTRY(renameat)(int olddirfd, const char* oldpath, int newdirfd,
                           const char* newpath) {
  ReentryGuard guard;
  if (guard.outermost() && routable_at(olddirfd, oldpath) &&
      routable_at(newdirfd, newpath) && router().path_is_container(oldpath)) {
    return router().rename(oldpath, newpath);
  }
  return libc().renameat(olddirfd, oldpath, newdirfd, newpath);
}

int LDPLFS_ENTRY(faccessat)(int dirfd, const char* path, int amode,
                            int at_flags) {
  ReentryGuard guard;
  if (guard.outermost() && routable_at(dirfd, path) &&
      router().path_is_container(path)) {
    return router().access(path, amode);
  }
  return libc().faccessat(dirfd, path, amode, at_flags);
}

// ---------------------------------------------------------------------------
// fd-to-fd fast paths. copy_file_range/sendfile move bytes entirely inside
// the kernel, which would bypass PLFS and land data in the shadow tmpfile.
// A read-only PLFS source over an *identity-flat* container (one compacted
// data dropping, logical == physical) gets true zero-copy: the real kernel
// call runs against the backing dropping with the logical offset passed
// straight through. Every other PLFS combination is emulated with a
// user-space read/write loop through the router; pure non-PLFS calls pass
// through untouched.
// ---------------------------------------------------------------------------

extern "C++" {
namespace {

/// flat_zero_copy result meaning "not a flat read-only source — emulate".
constexpr ssize_t kNotFlat = -2;

/// When `fd` is a read-only PLFS fd whose container is identity-flat, an
/// O_RDONLY real fd on the backing dropping (caller closes); `size_out`
/// gets the logical size. -1 otherwise.
int flat_in_fd(int fd, std::uint64_t* size_out) {
  auto of = router().fd_table().lookup(fd);
  if (of == nullptr) return -1;
  if ((of->flags() & O_ACCMODE) != O_RDONLY) return -1;
  auto flat = ldplfs::plfs::plfs_flat_dropping(of->handle().path());
  if (!flat) return -1;
  *size_out = flat.value().size;
  return libc().open(flat.value().dropping_abs.c_str(), O_RDONLY);
}

/// Shared zero-copy harness: resolve the flat dropping behind `fd_in`,
/// resolve the source offset (explicit or the shadow cursor), clamp to the
/// logical EOF, run `do_copy(src_fd, offset, want)` (the real
/// copy_file_range or sendfile against the dropping), then write back the
/// offset/cursor. Returns kNotFlat when the source does not qualify; must
/// run inside the reentry guard.
template <typename DoCopy>
ssize_t flat_zero_copy(int fd_in, off64_t* off_in, size_t len,
                       DoCopy&& do_copy) {
  std::uint64_t size = 0;
  const int src = flat_in_fd(fd_in, &size);
  if (src < 0) return kNotFlat;
  off64_t local;
  if (off_in != nullptr) {
    local = *off_in;
  } else {
    const off_t cur = router().lseek(fd_in, 0, SEEK_CUR);
    if (cur < 0) {
      const int saved = errno;
      libc().close(src);
      errno = saved;
      return -1;
    }
    local = cur;
  }
  // The dropping holds exactly the logical bytes, so clamping to the
  // logical size and to the dropping EOF are the same thing.
  const std::uint64_t avail =
      (local < 0 || static_cast<std::uint64_t>(local) >= size)
          ? 0
          : size - static_cast<std::uint64_t>(local);
  const size_t want = static_cast<size_t>(std::min<std::uint64_t>(len, avail));
  ssize_t n = 0;
  if (want > 0) n = do_copy(src, local, want);
  const int saved = errno;
  libc().close(src);
  errno = saved;
  if (n < 0) return -1;
  if (n > 0) {
    if (off_in != nullptr) {
      *off_in = local + n;
    } else if (router().lseek(fd_in, static_cast<off_t>(local + n),
                              SEEK_SET) < 0) {
      return -1;
    }
    ldplfs::stats::add(ldplfs::stats::Counter::kZeroCopyOps);
    ldplfs::stats::add(ldplfs::stats::Counter::kZeroCopyBytes,
                       static_cast<std::uint64_t>(n));
  }
  return n;
}

ssize_t emulated_copy(int fd_in, off64_t* off_in, int fd_out,
                      off64_t* off_out, size_t len) {
  // Reads and writes below go through the entry points on purpose: each
  // side independently routes to PLFS or the real fd. The buffer is per
  // call, not thread_local: glibc zero-fills the TLS block in every thread
  // of every process that loads the shim, mount or no mount.
  const size_t cap = std::min<size_t>(len, size_t{1} << 20);
  const std::unique_ptr<char[]> buf(new (std::nothrow) char[cap]);
  if (buf == nullptr) {
    errno = ENOMEM;
    return -1;
  }
  size_t total = 0;
  while (total < len) {
    const size_t chunk = std::min(len - total, cap);
    ssize_t n;
    if (off_in != nullptr) {
      n = LDPLFS_ENTRY(pread)(fd_in, buf.get(), chunk,
                              static_cast<off_t>(*off_in));
      if (n > 0) *off_in += n;
    } else {
      n = LDPLFS_ENTRY(read)(fd_in, buf.get(), chunk);
    }
    if (n < 0) return total > 0 ? static_cast<ssize_t>(total) : -1;
    if (n == 0) break;
    ssize_t w;
    if (off_out != nullptr) {
      w = LDPLFS_ENTRY(pwrite)(fd_out, buf.get(), static_cast<size_t>(n),
                               static_cast<off_t>(*off_out));
      if (w > 0) *off_out += w;
    } else {
      w = LDPLFS_ENTRY(write)(fd_out, buf.get(), static_cast<size_t>(n));
    }
    if (w < 0) return total > 0 ? static_cast<ssize_t>(total) : -1;
    total += static_cast<size_t>(w);
    if (w < n) break;
  }
  return static_cast<ssize_t>(total);
}

}  // namespace
}  // extern "C++"

ssize_t LDPLFS_ENTRY(copy_file_range)(int fd_in, off64_t* off_in, int fd_out,
                                      off64_t* off_out, size_t len,
                                      unsigned int cfr_flags) {
  {
    ReentryGuard guard;
    const bool in_plfs = guard.outermost() && router().is_plfs_fd(fd_in);
    const bool out_plfs = guard.outermost() && router().is_plfs_fd(fd_out);
    if (!guard.outermost() || (!in_plfs && !out_plfs)) {
      return libc().copy_file_range(fd_in, off_in, fd_out, off_out, len,
                                    cfr_flags);
    }
    if (in_plfs && !out_plfs) {
      const ssize_t n = flat_zero_copy(
          fd_in, off_in, len, [&](int src, off64_t at, size_t want) {
            off64_t src_off = at;
            return libc().copy_file_range(src, &src_off, fd_out, off_out,
                                          want, cfr_flags);
          });
      if (n != kNotFlat) return n;
    }
  }
  // Emulate outside the guard so the per-chunk read/write route normally.
  return emulated_copy(fd_in, off_in, fd_out, off_out, len);
}

ssize_t LDPLFS_ENTRY(sendfile64)(int out_fd, int in_fd, off64_t* offset,
                                 size_t count) {
  {
    ReentryGuard guard;
    const bool in_plfs = guard.outermost() && router().is_plfs_fd(in_fd);
    const bool out_plfs = guard.outermost() && router().is_plfs_fd(out_fd);
    if (!guard.outermost() || (!in_plfs && !out_plfs)) {
      return libc().sendfile64(out_fd, in_fd, offset, count);
    }
    if (in_plfs && !out_plfs) {
      const ssize_t zn = flat_zero_copy(
          in_fd, offset, count, [&](int src, off64_t at, size_t want) {
            off64_t src_off = at;
            return libc().sendfile64(out_fd, src, &src_off, want);
          });
      if (zn != kNotFlat) return zn;
    }
  }
  return emulated_copy(in_fd, offset, out_fd, nullptr, count);
}

ssize_t LDPLFS_ENTRY(sendfile)(int out_fd, int in_fd, off_t* offset,
                               size_t count) {
  off64_t off64_local = offset != nullptr ? *offset : 0;
  const ssize_t n = LDPLFS_ENTRY(sendfile64)(
      out_fd, in_fd, offset != nullptr ? &off64_local : nullptr, count);
  if (offset != nullptr && n >= 0) *offset = static_cast<off_t>(off64_local);
  return n;
}

int LDPLFS_ENTRY(fallocate)(int fd, int mode, off_t offset, off_t len) {
  ReentryGuard guard;
  if (!guard.outermost() || !router().is_plfs_fd(fd)) {
    return libc().fallocate(fd, mode, offset, len);
  }
  // Preallocation is meaningless for a log-structured container; report
  // success so cp/tar-style preallocation does not abort the copy.
  return 0;
}

int LDPLFS_ENTRY(posix_fallocate)(int fd, off_t offset, off_t len) {
  ReentryGuard guard;
  if (!guard.outermost() || !router().is_plfs_fd(fd)) {
    return libc().posix_fallocate(fd, offset, len);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// mmap. An identity-flat (compacted) container's one data dropping mirrors
// the logical file byte-for-byte, so a read-only mapping request is served
// by mapping the dropping itself at the caller's offset — a real,
// kernel-backed mapping (SplitFS-style data-path split; mmap consumers like
// GNU grep get the page cache instead of the refusal slow path). Writable
// MAP_SHARED requests and log-structured containers keep the deterministic
// ENODEV refusal so callers fall back to read(2). mmap forwards to mmap64,
// so the offset reaches the dropping as off64_t, never cut to off_t.
// ---------------------------------------------------------------------------

extern "C++" {
namespace {

/// Application mappings served from droppings (base addr → length). Purely
/// bookkeeping: the kernel owns the pages and munmap works regardless; the
/// table keeps the served-map population observable (tests, diagnostics).
std::mutex g_app_maps_mu;
std::map<void*, size_t>& app_maps() {
  static auto* maps = new std::map<void*, size_t>();  // never destroyed
  return *maps;
}

}  // namespace
}  // extern "C++"

void* LDPLFS_ENTRY(mmap64)(void* addr, size_t length, int prot,
                           int mmap_flags, int fd, off64_t offset) {
  ReentryGuard guard;
  if (!guard.outermost() || fd < 0 || (mmap_flags & MAP_ANONYMOUS) != 0 ||
      !router().is_plfs_fd(fd)) {
    return libc().mmap64(addr, length, prot, mmap_flags, fd, offset);
  }

  // Serve when nothing can write through the mapping into the dropping:
  // the fd is read-only and the request is PROT_READ or MAP_PRIVATE (COW
  // keeps even PROT_WRITE|MAP_PRIVATE stores out of the file).
  auto of = router().fd_table().lookup(fd);
  const bool no_shared_writes =
      (prot & PROT_WRITE) == 0 || (mmap_flags & MAP_PRIVATE) != 0;
  if (of != nullptr && no_shared_writes &&
      (of->flags() & O_ACCMODE) == O_RDONLY) {
    auto flat = ldplfs::plfs::plfs_flat_dropping(of->handle().path());
    if (flat) {
      const int dfd = libc().open(flat.value().dropping_abs.c_str(), O_RDONLY);
      if (dfd >= 0) {
        void* base =
            libc().mmap64(addr, length, prot, mmap_flags, dfd, offset);
        const int saved = errno;
        libc().close(dfd);
        errno = saved;
        if (base != MAP_FAILED) {
          std::lock_guard lock(g_app_maps_mu);
          app_maps()[base] = length;
          ldplfs::stats::add(ldplfs::stats::Counter::kMmapAppMaps);
        }
        // Success, or the kernel's own verdict (EINVAL for a misaligned
        // offset behaves exactly as it would on a plain file).
        return base;
      }
    }
  }

  // Log-structured container (or shared-writable request): mapping the
  // shadow tmpfile would show garbage; refuse deterministically so callers
  // (e.g. GNU grep) fall back to read(2).
  ldplfs::stats::add(ldplfs::stats::Counter::kMmapFallbacks);
  errno = ENODEV;
  return MAP_FAILED;
}

void* LDPLFS_ENTRY(mmap)(void* addr, size_t length, int prot, int mmap_flags,
                         int fd, off_t offset) {
  return LDPLFS_ENTRY(mmap64)(addr, length, prot, mmap_flags, fd,
                              static_cast<off64_t>(offset));
}

int LDPLFS_ENTRY(munmap)(void* addr, size_t length) {
  {
    // Retire bookkeeping for a full unmap of a served base address; partial
    // unmaps keep the entry (the kernel splits the VMA either way).
    std::lock_guard lock(g_app_maps_mu);
    auto& maps = app_maps();
    if (auto it = maps.find(addr); it != maps.end() && length >= it->second) {
      maps.erase(it);
    }
  }
  return libc().munmap(addr, length);
}

// ---------------------------------------------------------------------------
// stdio interposition: fopen on a PLFS path returns a fopencookie-backed
// FILE* whose cookie I/O functions drive the router. fread/fwrite/fseek/
// fclose then work unmodified — this is what lets cat/grep/md5sum (stdio
// users) operate on containers (paper §III-D).
// ---------------------------------------------------------------------------

static ssize_t cookie_read(void* cookie, char* buf, size_t size) {
  const int fd = static_cast<int>(reinterpret_cast<intptr_t>(cookie));
  ReentryGuard guard;
  return router().read(fd, buf, size);
}

static ssize_t cookie_write(void* cookie, const char* buf, size_t size) {
  const int fd = static_cast<int>(reinterpret_cast<intptr_t>(cookie));
  ReentryGuard guard;
  const ssize_t n = router().write(fd, buf, size);
  // stdio treats short writes as errors; our writes are all-or-nothing.
  return n;
}

static int cookie_seek(void* cookie, off64_t* offset, int whence) {
  const int fd = static_cast<int>(reinterpret_cast<intptr_t>(cookie));
  ReentryGuard guard;
  const off_t result =
      router().lseek(fd, static_cast<off_t>(*offset), whence);
  if (result < 0) return -1;
  *offset = result;
  return 0;
}

static int cookie_close(void* cookie) {
  const int fd = static_cast<int>(reinterpret_cast<intptr_t>(cookie));
  ReentryGuard guard;
  return router().close(fd);
}

FILE* LDPLFS_ENTRY(fopen)(const char* path, const char* mode) {
  ReentryGuard guard;
  if (!guard.outermost() || path == nullptr || mode == nullptr ||
      !router().path_in_mount(path)) {
    return libc().fopen(path, mode);
  }

  // Translate the stdio mode string to open(2) flags, honoring the glibc
  // modifiers: '+' (read-write), 'x' (O_EXCL — dropping it silently
  // truncated existing containers on "wx"), 'e' (O_CLOEXEC), and 'b'/'t'
  // and ',ccs=' charset suffixes, which change nothing at the fd layer and
  // are explicitly ignored rather than tripping EINVAL.
  int flags;
  const bool plus = std::strchr(mode, '+') != nullptr;
  switch (mode[0]) {
    case 'r': flags = plus ? O_RDWR : O_RDONLY; break;
    case 'w': flags = (plus ? O_RDWR : O_WRONLY) | O_CREAT | O_TRUNC; break;
    case 'a': flags = (plus ? O_RDWR : O_WRONLY) | O_CREAT | O_APPEND; break;
    default: errno = EINVAL; return nullptr;
  }
  for (const char* m = mode + 1; *m != '\0' && *m != ','; ++m) {
    switch (*m) {
      case 'x': flags |= O_EXCL; break;
      case 'e': flags |= O_CLOEXEC; break;
      default: break;  // 'b', 't', '+', 'm' — no fd-level effect
    }
  }
  const int fd = router().open(path, flags, 0644);
  if (fd < 0) return nullptr;
  if (!router().is_plfs_fd(fd)) {
    // Plain file inside the backend: hand it to stdio the normal way.
    FILE* stream = ::fdopen(fd, mode);
    if (stream == nullptr) router().close(fd);
    return stream;
  }

  cookie_io_functions_t io{};
  io.read = cookie_read;
  io.write = cookie_write;
  io.seek = cookie_seek;
  io.close = cookie_close;
  FILE* stream =
      ::fopencookie(reinterpret_cast<void*>(static_cast<intptr_t>(fd)),
                    mode, io);
  if (stream == nullptr) router().close(fd);
  return stream;
}

FILE* LDPLFS_ENTRY(fopen64)(const char* path, const char* mode) {
  return LDPLFS_ENTRY(fopen)(path, mode);
}

}  // extern "C"
