// Table of "real" libc entry points used for passthrough and for shadow-fd
// bookkeeping. The interposition front-ends (src/preload) fill this from
// their own passthrough table, because their entry points shadow libc's:
// dlsym(RTLD_NEXT, ...) in libldplfs.so, the linker's __real_<name> in
// libldplfs_wrap.a. In-process users (unit tests, the ldp-* tools) use the
// default table that calls libc directly.
//
// The default table routes the data-path entries through the fault-injection
// plan (posix/faults.hpp), so LDPLFS_FAULTS reaches passthrough I/O in tools
// and tests. The front-ends' table is left unwrapped: under interposition,
// PLFS-internal I/O is already instrumented via the posix:: helpers, and
// faulting every libc call of the host process (shells, loaders) would make
// plans impossible to aim.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace ldplfs::core {

struct RealCalls {
  int (*open)(const char*, int, mode_t) = nullptr;
  int (*close)(int) = nullptr;
  ssize_t (*read)(int, void*, size_t) = nullptr;
  ssize_t (*write)(int, const void*, size_t) = nullptr;
  ssize_t (*pread)(int, void*, size_t, off_t) = nullptr;
  ssize_t (*pwrite)(int, const void*, size_t, off_t) = nullptr;
  off_t (*lseek)(int, off_t, int) = nullptr;
  int (*dup)(int) = nullptr;
  int (*dup2)(int, int) = nullptr;
  int (*fsync)(int) = nullptr;
  int (*fdatasync)(int) = nullptr;
  int (*ftruncate)(int, off_t) = nullptr;
  int (*truncate)(const char*, off_t) = nullptr;
  int (*unlink)(const char*) = nullptr;
  int (*access)(const char*, int) = nullptr;
  int (*stat)(const char*, struct ::stat*) = nullptr;
  int (*lstat)(const char*, struct ::stat*) = nullptr;
  int (*fstat)(int, struct ::stat*) = nullptr;
  int (*rename)(const char*, const char*) = nullptr;
  int (*mkdir)(const char*, mode_t) = nullptr;
  int (*rmdir)(const char*) = nullptr;
};

/// Table pointing straight at libc (safe when nothing is interposed).
const RealCalls& libc_calls();

}  // namespace ldplfs::core
