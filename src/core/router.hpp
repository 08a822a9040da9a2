// The LDPLFS POSIX-call router (paper §III-A).
//
// Each method has the exact shape of its POSIX counterpart: it returns -1
// and sets errno on failure, so the preload shim can forward verbatim. A
// call whose path/fd is not PLFS-owned passes through to the real libc
// entry points; a PLFS call is retargeted onto the plfs:: API with the two
// pieces of book-keeping the paper describes — shadow fds and cursor
// maintenance via lseek on the shadow.
#pragma once

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/uio.h>

#include <string>

#include "core/fd_table.hpp"
#include "core/mounts.hpp"
#include "core/real_calls.hpp"

namespace ldplfs::core {

class Router {
 public:
  Router(const RealCalls& real, MountTable& mounts)
      : real_(real), mounts_(mounts) {}

  // --- fd-producing ---
  int open(const char* path, int flags, mode_t mode);
  int creat(const char* path, mode_t mode);
  int dup(int fd);
  int dup2(int oldfd, int newfd);

  // --- data path ---
  ssize_t read(int fd, void* buf, size_t count);
  ssize_t write(int fd, const void* buf, size_t count);
  ssize_t pread(int fd, void* buf, size_t count, off_t offset);
  ssize_t pwrite(int fd, const void* buf, size_t count, off_t offset);
  ssize_t readv(int fd, const struct ::iovec* iov, int iovcnt);
  ssize_t writev(int fd, const struct ::iovec* iov, int iovcnt);
  ssize_t preadv(int fd, const struct ::iovec* iov, int iovcnt, off_t offset);
  ssize_t pwritev(int fd, const struct ::iovec* iov, int iovcnt, off_t offset);
  off_t lseek(int fd, off_t offset, int whence);
  int close(int fd);
  int fsync(int fd);
  int fdatasync(int fd);
  int ftruncate(int fd, off_t length);
  /// fcntl with the variadic argument already fetched (shim does va_arg).
  /// F_DUPFD/F_DUPFD_CLOEXEC register the duplicate like dup() does;
  /// F_GETFL/F_SETFL answer from the fd table's flags (the shadow fd's
  /// kernel flags describe the shadow, not the logical file); everything
  /// else acts on the shadow fd, which is correct for F_GETFD/F_SETFD and
  /// advisory locks (the shadow is the real kernel descriptor the app owns).
  int fcntl(int fd, int cmd, long arg);

  // --- path metadata ---
  int stat(const char* path, struct ::stat* st);
  int lstat(const char* path, struct ::stat* st);
  int fstat(int fd, struct ::stat* st);
  int unlink(const char* path);
  int access(const char* path, int amode);
  int truncate(const char* path, off_t length);
  int rename(const char* from, const char* to);

  // --- queries used by the shim and by tools ---
  [[nodiscard]] bool is_plfs_fd(int fd) const { return table_.contains(fd); }
  /// True when the (possibly relative) path falls under a PLFS mount.
  [[nodiscard]] bool path_in_mount(const char* path) const;
  /// True when the path is an existing PLFS container.
  [[nodiscard]] bool path_is_container(const char* path) const;
  /// Absolute normalised form of `path` ("" for nullptr) — the key the
  /// plfs:: layer is addressed by (tools use it to probe container shape).
  [[nodiscard]] std::string resolve_path(const char* path) const;

  [[nodiscard]] MountTable& mounts() { return mounts_; }
  [[nodiscard]] FdTable& fd_table() { return table_; }

  /// Process-wide router over libc + the global mount table.
  static Router& instance();

 private:
  /// Normalise against the current working directory and match mounts.
  struct Resolved {
    std::string path;  // absolute, normalised
    bool in_mount = false;
  };
  [[nodiscard]] Resolved resolve(const char* path) const;

  /// Open an unlinked temporary file to serve as a shadow fd.
  int make_shadow_fd();

  int open_plfs(const Resolved& where, int flags, mode_t mode);
  /// EOF for an O_APPEND write through `of`: the maximum size over every
  /// open handle for the path. Each size() call drains that handle's
  /// write-behind buffers into its own snapshot, so a second appender's
  /// buffered bytes can no longer be silently overwritten.
  Result<std::uint64_t> append_eof(OpenFile& of);
  /// Attributes of a container this process holds open through `of`, for
  /// stat and fstat alike: the live handle's size, plfs_getattr's mode and
  /// mtime, the mtime raised to the last write or truncate through any
  /// open handle of the path.
  Result<plfs::FileAttr> open_attr(OpenFile& of);
  /// Fill a stat answer for a logical file; `backend_path` seeds the
  /// synthesized (st_dev, st_ino) identity.
  void fill_stat(struct ::stat* st, const plfs::FileAttr& attr,
                 const std::string& backend_path) const;

  const RealCalls& real_;
  MountTable& mounts_;
  FdTable table_;
};

}  // namespace ldplfs::core
