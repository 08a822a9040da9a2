// Victim program for LD_PRELOAD end-to-end tests. Deliberately built as a
// plain POSIX/stdio binary with no LDPLFS linkage — the whole point is that
// interposition must work on unmodified executables. Scenarios are selected
// by argv[1]; nonzero exit = scenario assertion failed.
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/sendfile.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <string>

namespace {

int fail(const char* what) {
  perror(what);
  return 1;
}

int scenario_write(const char* path) {
  const int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("open");
  if (write(fd, "hello ", 6) != 6) return fail("write1");
  if (write(fd, "world!", 6) != 6) return fail("write2");
  if (lseek(fd, 0, SEEK_SET) != 0) return fail("lseek");
  if (write(fd, "HELLO", 5) != 5) return fail("write3");
  if (close(fd) != 0) return fail("close");
  return 0;
}

int scenario_read(const char* path) {
  const int fd = open(path, O_RDONLY);
  if (fd < 0) return fail("open");
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof buf)) > 0) {
    if (write(STDOUT_FILENO, buf, static_cast<size_t>(n)) != n) {
      return fail("stdout");
    }
  }
  if (n < 0) return fail("read");
  if (close(fd) != 0) return fail("close");
  return 0;
}

int scenario_stdio(const char* path) {
  FILE* f = fopen(path, "w");
  if (f == nullptr) return fail("fopen w");
  if (fputs("stdio line one\n", f) == EOF) return fail("fputs");
  if (fprintf(f, "value=%d\n", 42) < 0) return fail("fprintf");
  if (fclose(f) != 0) return fail("fclose");

  f = fopen(path, "r");
  if (f == nullptr) return fail("fopen r");
  char line[128];
  if (fgets(line, sizeof line, f) == nullptr) return fail("fgets1");
  if (strcmp(line, "stdio line one\n") != 0) {
    fprintf(stderr, "bad line1: %s", line);
    return 1;
  }
  if (fseek(f, 0, SEEK_SET) != 0) return fail("fseek");
  if (fgets(line, sizeof line, f) == nullptr) return fail("fgets2");
  if (strcmp(line, "stdio line one\n") != 0) {
    fprintf(stderr, "bad reread: %s", line);
    return 1;
  }
  if (fgets(line, sizeof line, f) == nullptr) return fail("fgets3");
  if (strcmp(line, "value=42\n") != 0) {
    fprintf(stderr, "bad line2: %s", line);
    return 1;
  }
  if (fclose(f) != 0) return fail("fclose r");
  return 0;
}

int scenario_stdio_excl(const char* path) {
  // glibc fopen mode modifiers: 'x' => O_EXCL, 'b' is a no-op on POSIX,
  // 'e' => O_CLOEXEC. An interposing shim must honour all three.
  FILE* f = fopen(path, "wbx");
  if (f == nullptr) return fail("fopen wbx fresh");
  if (fputs("first\n", f) == EOF) return fail("fputs first");
  if (fclose(f) != 0) return fail("fclose first");

  // Exclusive create on an existing file must fail with EEXIST — and must
  // NOT truncate what is already there.
  errno = 0;
  f = fopen(path, "wx");
  if (f != nullptr) {
    fclose(f);
    fprintf(stderr, "fopen(\"wx\") succeeded on an existing file\n");
    return 1;
  }
  if (errno != EEXIST) {
    fprintf(stderr, "fopen(\"wx\") set errno %d, want EEXIST\n", errno);
    return 1;
  }

  f = fopen(path, "ab");
  if (f == nullptr) return fail("fopen ab");
  if (fputs("second\n", f) == EOF) return fail("fputs second");
  if (fclose(f) != 0) return fail("fclose append");

  f = fopen(path, "rbe");
  if (f == nullptr) return fail("fopen rbe");
  char buf[64] = {0};
  const size_t n = fread(buf, 1, sizeof buf - 1, f);
  if (fclose(f) != 0) return fail("fclose read");
  if (n != 13 || strcmp(buf, "first\nsecond\n") != 0) {
    fprintf(stderr, "content after failed wx: %zu bytes: %s\n", n, buf);
    return 1;
  }
  return 0;
}

int scenario_stat(const char* path) {
  struct stat st;
  if (stat(path, &st) != 0) return fail("stat");
  if (!S_ISREG(st.st_mode)) {
    fprintf(stderr, "not a regular file (mode %o)\n", st.st_mode);
    return 1;
  }
  printf("%lld\n", static_cast<long long>(st.st_size));
  return 0;
}

int scenario_unlink(const char* path) {
  if (unlink(path) != 0) return fail("unlink");
  struct stat st;
  if (stat(path, &st) == 0) {
    fprintf(stderr, "still exists after unlink\n");
    return 1;
  }
  return 0;
}

int scenario_pread(const char* path) {
  // Positional I/O + dup + O_APPEND combined.
  int fd = open(path, O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("open");
  if (pwrite(fd, "0123456789", 10, 0) != 10) return fail("pwrite");
  char buf[4] = {0};
  if (pread(fd, buf, 3, 4) != 3) return fail("pread");
  if (memcmp(buf, "456", 3) != 0) {
    fprintf(stderr, "pread mismatch: %s\n", buf);
    return 1;
  }
  const int fd2 = dup(fd);
  if (fd2 < 0) return fail("dup");
  if (close(fd) != 0) return fail("close fd");
  if (pwrite(fd2, "XX", 2, 10) != 2) return fail("pwrite dup");
  if (close(fd2) != 0) return fail("close fd2");

  fd = open(path, O_WRONLY | O_APPEND);
  if (fd < 0) return fail("open append");
  if (write(fd, "END", 3) != 3) return fail("append write");
  if (close(fd) != 0) return fail("close append");

  fd = open(path, O_RDONLY);
  char all[32] = {0};
  const ssize_t n = read(fd, all, sizeof all);
  if (n != 15) {
    fprintf(stderr, "expected 15 bytes, got %zd (%s)\n", n, all);
    return 1;
  }
  if (memcmp(all, "0123456789XXEND", 15) != 0) {
    fprintf(stderr, "content mismatch: %s\n", all);
    return 1;
  }
  close(fd);
  return 0;
}

int scenario_bigblocks(const char* path) {
  // 8 MiB-block streaming write + verify, the MPI-IO Test access shape.
  const size_t block = 8u << 20;
  const int blocks = 4;
  char* buf = static_cast<char*>(malloc(block));
  if (buf == nullptr) return fail("malloc");
  int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("open");
  for (int b = 0; b < blocks; ++b) {
    memset(buf, 'A' + b, block);
    if (write(fd, buf, block) != static_cast<ssize_t>(block)) {
      return fail("write");
    }
  }
  if (close(fd) != 0) return fail("close");

  fd = open(path, O_RDONLY);
  if (fd < 0) return fail("open r");
  for (int b = 0; b < blocks; ++b) {
    size_t got = 0;
    while (got < block) {
      const ssize_t n = read(fd, buf + got, block - got);
      if (n <= 0) return fail("read");
      got += static_cast<size_t>(n);
    }
    for (size_t i = 0; i < block; i += 4099) {
      if (buf[i] != 'A' + b) {
        fprintf(stderr, "mismatch at block %d offset %zu\n", b, i);
        free(buf);
        return 1;
      }
    }
  }
  free(buf);
  close(fd);
  return 0;
}

int scenario_vectored(const char* path) {
  // writev/readv through the shim.
  int fd = open(path, O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("open");
  char a[] = "alpha-";
  char b[] = "bravo-";
  char c[] = "charlie";
  struct iovec out[3] = {{a, 6}, {b, 6}, {c, 7}};
  if (writev(fd, out, 3) != 19) return fail("writev");
  if (lseek(fd, 0, SEEK_SET) != 0) return fail("lseek");
  char r1[6], r2[13];
  struct iovec in[2] = {{r1, 6}, {r2, 13}};
  if (readv(fd, in, 2) != 19) return fail("readv");
  if (memcmp(r1, "alpha-", 6) != 0 || memcmp(r2, "bravo-charlie", 13) != 0) {
    fprintf(stderr, "vectored content mismatch\n");
    return 1;
  }
  if (close(fd) != 0) return fail("close");
  return 0;
}

int scenario_mmap_cat(const char* path) {
  // GNU-grep style: try a read-only private map first; on ENODEV fall back
  // to read(2). Tags the path taken on stderr so tests can assert which
  // one served the bytes.
  const int fd = open(path, O_RDONLY);
  if (fd < 0) return fail("open");
  struct stat st;
  if (fstat(fd, &st) != 0) return fail("fstat");
  const size_t size = static_cast<size_t>(st.st_size);
  void* p = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (p == MAP_FAILED) {
    if (errno != ENODEV) return fail("mmap (expected ENODEV fallback)");
    fprintf(stderr, "MMAP_FALLBACK\n");
    char buf[4096];
    ssize_t n;
    while ((n = read(fd, buf, sizeof buf)) > 0) {
      if (write(STDOUT_FILENO, buf, static_cast<size_t>(n)) != n) {
        return fail("stdout");
      }
    }
    if (n < 0) return fail("read");
  } else {
    fprintf(stderr, "MMAP_SERVED\n");
    if (write(STDOUT_FILENO, p, size) != static_cast<ssize_t>(size)) {
      return fail("stdout");
    }
    if (munmap(p, size) != 0) return fail("munmap");
  }
  if (close(fd) != 0) return fail("close");
  return 0;
}

int scenario_mmap_after_close(const char* path) {
  // POSIX: closing the fd does not invalidate the mapping.
  const int fd = open(path, O_RDONLY);
  if (fd < 0) return fail("open");
  struct stat st;
  if (fstat(fd, &st) != 0) return fail("fstat");
  const size_t size = static_cast<size_t>(st.st_size);
  void* p = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (p == MAP_FAILED) return fail("mmap");
  if (close(fd) != 0) return fail("close");
  if (write(STDOUT_FILENO, p, size) != static_cast<ssize_t>(size)) {
    return fail("stdout");
  }
  if (munmap(p, size) != 0) return fail("munmap");
  return 0;
}

int scenario_mmap_offset(const char* path) {
  // Map the second page only: the shim must pass the caller's offset
  // through to the dropping without truncation.
  const int fd = open(path, O_RDONLY);
  if (fd < 0) return fail("open");
  struct stat st;
  if (fstat(fd, &st) != 0) return fail("fstat");
  if (st.st_size <= 4096) {
    fprintf(stderr, "file too small for offset map\n");
    return 1;
  }
  const size_t size = static_cast<size_t>(st.st_size) - 4096;
  void* p = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 4096);
  if (p == MAP_FAILED) return fail("mmap offset");
  if (write(STDOUT_FILENO, p, size) != static_cast<ssize_t>(size)) {
    return fail("stdout");
  }
  if (munmap(p, size) != 0) return fail("munmap");
  if (close(fd) != 0) return fail("close");
  return 0;
}

int scenario_copy_out(const char* path) {
  // copy_file_range and sendfile from the (container) path to plain files
  // named by $VICTIM_DEST — the kernel-to-kernel fast path cp/install use.
  const char* dest = getenv("VICTIM_DEST");
  if (dest == nullptr) {
    fprintf(stderr, "VICTIM_DEST not set\n");
    return 2;
  }
  const int fd = open(path, O_RDONLY);
  if (fd < 0) return fail("open");
  struct stat st;
  if (fstat(fd, &st) != 0) return fail("fstat");
  const size_t size = static_cast<size_t>(st.st_size);

  const std::string cfr_dest = std::string(dest) + ".cfr";
  int out = open(cfr_dest.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0) return fail("open cfr dest");
  off_t off_in = 0;
  size_t left = size;
  while (left > 0) {
    const ssize_t n = copy_file_range(fd, &off_in, out, nullptr, left, 0);
    if (n <= 0) return fail("copy_file_range");
    left -= static_cast<size_t>(n);
  }
  if (off_in != st.st_size) {
    fprintf(stderr, "cfr offset %lld != size\n",
            static_cast<long long>(off_in));
    return 1;
  }
  if (close(out) != 0) return fail("close cfr dest");

  const std::string sf_dest = std::string(dest) + ".sf";
  out = open(sf_dest.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (out < 0) return fail("open sf dest");
  off_t off = 0;
  left = size;
  while (left > 0) {
    const ssize_t n = sendfile(out, fd, &off, left);
    if (n <= 0) return fail("sendfile");
    left -= static_cast<size_t>(n);
  }
  if (off != st.st_size) {
    fprintf(stderr, "sendfile offset %lld != size\n",
            static_cast<long long>(off));
    return 1;
  }
  if (close(out) != 0) return fail("close sf dest");
  if (close(fd) != 0) return fail("close");
  return 0;
}

int scenario_statat64(const char* path) {
  // The LFS64 stat family: glibc's stat64/fstatat64 entry points must fill
  // a real struct stat64 (the shim used to alias the buffer as struct stat).
  struct stat64 st;
  memset(&st, 0xAA, sizeof st);  // poison: stale bytes must be overwritten
  if (fstatat64(AT_FDCWD, path, &st, 0) != 0) return fail("fstatat64");
  if (!S_ISREG(st.st_mode)) {
    fprintf(stderr, "fstatat64: not a regular file (mode %o)\n", st.st_mode);
    return 1;
  }
  struct stat64 st2;
  memset(&st2, 0x55, sizeof st2);
  if (stat64(path, &st2) != 0) return fail("stat64");
  if (st2.st_size != st.st_size || st2.st_mode != st.st_mode) {
    fprintf(stderr, "stat64 and fstatat64 disagree\n");
    return 1;
  }
  struct stat plain;
  if (stat(path, &plain) != 0) return fail("stat");
  if (st.st_size != plain.st_size || st.st_ino != (ino64_t)plain.st_ino) {
    fprintf(stderr, "stat64 and stat disagree\n");
    return 1;
  }
  printf("%lld\n", static_cast<long long>(st.st_size));
  return 0;
}

int scenario_fcntl(const char* path) {
  // fcntl on a routed fd: F_DUPFD must alias the PLFS handle (shared
  // cursor), F_GETFL must report the logical open flags, F_SETFL O_APPEND
  // must change write placement, and F_SETFD must keep working.
  int fd = open(path, O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("open");
  if (write(fd, "0123456789", 10) != 10) return fail("write");
  if (lseek(fd, 0, SEEK_SET) != 0) return fail("lseek");

  const int fd2 = fcntl(fd, F_DUPFD, 10);
  if (fd2 < 10) return fail("fcntl F_DUPFD");
  char a[5], b[5];
  if (read(fd, a, 5) != 5) return fail("read fd");
  if (read(fd2, b, 5) != 5) return fail("read fd2");
  if (memcmp(a, "01234", 5) != 0 || memcmp(b, "56789", 5) != 0) {
    fprintf(stderr, "dup'd fd does not share the cursor\n");
    return 1;
  }

  const int fl = fcntl(fd2, F_GETFL);
  if (fl < 0) return fail("fcntl F_GETFL");
  if ((fl & O_ACCMODE) != O_RDWR) {
    fprintf(stderr, "F_GETFL accmode %d, want O_RDWR\n", fl & O_ACCMODE);
    return 1;
  }
  if (fcntl(fd2, F_SETFL, fl | O_APPEND) != 0) return fail("fcntl F_SETFL");
  if ((fcntl(fd2, F_GETFL) & O_APPEND) == 0) {
    fprintf(stderr, "F_SETFL O_APPEND did not stick\n");
    return 1;
  }
  if (lseek(fd2, 0, SEEK_SET) != 0) return fail("lseek fd2");
  if (write(fd2, "END", 3) != 3) return fail("append write");

  if (fcntl(fd, F_SETFD, FD_CLOEXEC) != 0) return fail("fcntl F_SETFD");
  if ((fcntl(fd, F_GETFD) & FD_CLOEXEC) == 0) {
    fprintf(stderr, "F_SETFD FD_CLOEXEC did not stick\n");
    return 1;
  }
  if (close(fd) != 0) return fail("close fd");
  if (close(fd2) != 0) return fail("close fd2");

  fd = open(path, O_RDONLY);
  if (fd < 0) return fail("reopen");
  char all[32] = {0};
  const ssize_t n = read(fd, all, sizeof all);
  if (n != 13 || memcmp(all, "0123456789END", 13) != 0) {
    fprintf(stderr, "expected 0123456789END, got %zd bytes: %s\n", n, all);
    return 1;
  }
  close(fd);
  return 0;
}

int scenario_mtime(const char* path) {
  // stat and fstat of one open container must agree on st_mtime: the
  // container's own mtime while nothing was written through the open fd
  // (the caller backdates it), and the time of the last write after one.
  struct stat closed_st;
  if (stat(path, &closed_st) != 0) return fail("stat closed");
  int fd = open(path, O_RDONLY);
  if (fd < 0) return fail("open rdonly");
  struct stat st, fst;
  if (stat(path, &st) != 0) return fail("stat open");
  if (fstat(fd, &fst) != 0) return fail("fstat open");
  if (st.st_mtime != closed_st.st_mtime || fst.st_mtime != closed_st.st_mtime) {
    fprintf(stderr, "read-only open: stat %lld fstat %lld, closed %lld\n",
            static_cast<long long>(st.st_mtime),
            static_cast<long long>(fst.st_mtime),
            static_cast<long long>(closed_st.st_mtime));
    return 1;
  }
  if (close(fd) != 0) return fail("close rdonly");

  fd = open(path, O_WRONLY);
  if (fd < 0) return fail("open wronly");
  const time_t before = time(nullptr);
  if (write(fd, "x", 1) != 1) return fail("write");
  const time_t after = time(nullptr);
  if (stat(path, &st) != 0) return fail("stat written");
  if (fstat(fd, &fst) != 0) return fail("fstat written");
  if (st.st_mtime != fst.st_mtime || st.st_mtime < before ||
      st.st_mtime > after) {
    fprintf(stderr, "after write: stat %lld fstat %lld, write in [%lld, %lld]\n",
            static_cast<long long>(st.st_mtime),
            static_cast<long long>(fst.st_mtime),
            static_cast<long long>(before), static_cast<long long>(after));
    return 1;
  }
  if (close(fd) != 0) return fail("close wronly");
  return 0;
}

int scenario_umask(const char* path) {
  // open(O_CREAT) takes the umask off the requested mode, as for a plain
  // file: 0666 under umask 027 is 0640.
  umask(027);
  const int fd = open(path, O_WRONLY | O_CREAT | O_EXCL, 0666);
  if (fd < 0) return fail("open");
  if (close(fd) != 0) return fail("close");
  struct stat st;
  if (stat(path, &st) != 0) return fail("stat");
  if ((st.st_mode & 07777) != 0640) {
    fprintf(stderr, "mode %o, want 640\n", st.st_mode & 07777);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    fprintf(stderr, "usage: preload_victim SCENARIO PATH\n");
    return 2;
  }
  const std::string scenario = argv[1];
  const char* path = argv[2];
  if (scenario == "write") return scenario_write(path);
  if (scenario == "read") return scenario_read(path);
  if (scenario == "stdio") return scenario_stdio(path);
  if (scenario == "stdio_excl") return scenario_stdio_excl(path);
  if (scenario == "stat") return scenario_stat(path);
  if (scenario == "unlink") return scenario_unlink(path);
  if (scenario == "pread") return scenario_pread(path);
  if (scenario == "bigblocks") return scenario_bigblocks(path);
  if (scenario == "vectored") return scenario_vectored(path);
  if (scenario == "mmap_cat") return scenario_mmap_cat(path);
  if (scenario == "mmap_after_close") return scenario_mmap_after_close(path);
  if (scenario == "mmap_offset") return scenario_mmap_offset(path);
  if (scenario == "copy_out") return scenario_copy_out(path);
  if (scenario == "statat64") return scenario_statat64(path);
  if (scenario == "fcntl") return scenario_fcntl(path);
  if (scenario == "mtime") return scenario_mtime(path);
  if (scenario == "umask") return scenario_umask(path);
  fprintf(stderr, "unknown scenario %s\n", scenario.c_str());
  return 2;
}
