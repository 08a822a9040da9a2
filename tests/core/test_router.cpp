// In-process tests of the LDPLFS router: POSIX calls against a temp mount,
// verifying both the PLFS path and the passthrough path, plus the cursor
// bookkeeping the paper describes (lseek on the shadow fd).
#include "core/router.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "plfs/container.hpp"
#include "posix/faults.hpp"
#include "testing/temp_dir.hpp"

namespace ldplfs::core {
namespace {

class RouterTest : public ::testing::Test {
 protected:
  RouterTest() : router_(libc_calls(), mounts_) {
    mounts_.add(mount_.path());
  }

  std::string mpath(const std::string& name) { return mount_.sub(name); }

  ssize_t write_str(int fd, const std::string& s) {
    return router_.write(fd, s.data(), s.size());
  }

  std::string read_str(int fd, std::size_t n) {
    std::string out(n, '\0');
    const ssize_t got = router_.read(fd, out.data(), n);
    EXPECT_GE(got, 0);
    out.resize(got > 0 ? static_cast<std::size_t>(got) : 0);
    return out;
  }

  ldplfs::testing::TempDir mount_;
  ldplfs::testing::TempDir outside_;
  MountTable mounts_;
  Router router_;
};

TEST_F(RouterTest, CreateInsideMountMakesContainer) {
  const int fd = router_.open(mpath("f").c_str(), O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(router_.is_plfs_fd(fd));
  EXPECT_EQ(write_str(fd, "hello"), 5);
  EXPECT_EQ(router_.close(fd), 0);
  EXPECT_TRUE(plfs::is_container(mpath("f")));
}

TEST_F(RouterTest, CreateOutsideMountIsPlainFile) {
  const std::string path = outside_.sub("f");
  const int fd = router_.open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_FALSE(router_.is_plfs_fd(fd));
  EXPECT_EQ(write_str(fd, "hello"), 5);
  EXPECT_EQ(router_.close(fd), 0);
  EXPECT_FALSE(plfs::is_container(path));
  auto content = posix::read_file(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "hello");
}

TEST_F(RouterTest, SequentialWritesAdvanceCursor) {
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(write_str(fd, "abc"), 3);
  EXPECT_EQ(write_str(fd, "def"), 3);
  EXPECT_EQ(router_.lseek(fd, 0, SEEK_SET), 0);
  EXPECT_EQ(read_str(fd, 6), "abcdef");
  EXPECT_EQ(router_.close(fd), 0);
}

TEST_F(RouterTest, LseekSetCurEnd) {
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  write_str(fd, "0123456789");
  EXPECT_EQ(router_.lseek(fd, 2, SEEK_SET), 2);
  EXPECT_EQ(read_str(fd, 3), "234");
  EXPECT_EQ(router_.lseek(fd, 1, SEEK_CUR), 6);
  EXPECT_EQ(read_str(fd, 2), "67");
  EXPECT_EQ(router_.lseek(fd, -4, SEEK_END), 6);
  EXPECT_EQ(read_str(fd, 4), "6789");
  EXPECT_EQ(router_.lseek(fd, 0, SEEK_END), 10);
  EXPECT_EQ(router_.close(fd), 0);
}

TEST_F(RouterTest, SeekBeyondEofThenWriteCreatesHole) {
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  write_str(fd, "X");
  EXPECT_EQ(router_.lseek(fd, 10, SEEK_SET), 10);
  write_str(fd, "Y");
  EXPECT_EQ(router_.lseek(fd, 0, SEEK_SET), 0);
  const std::string content = read_str(fd, 16);
  ASSERT_EQ(content.size(), 11u);
  EXPECT_EQ(content[0], 'X');
  EXPECT_EQ(content[10], 'Y');
  for (int i = 1; i < 10; ++i) EXPECT_EQ(content[i], '\0') << i;
  EXPECT_EQ(router_.close(fd), 0);
}

TEST_F(RouterTest, PreadPwriteDoNotMoveCursor) {
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  write_str(fd, "base");
  EXPECT_EQ(router_.pwrite(fd, "ZZ", 2, 1), 2);
  char buf[4] = {0};
  EXPECT_EQ(router_.pread(fd, buf, 3, 0), 3);
  EXPECT_EQ(std::string(buf, 3), "bZZ");
  // Cursor still at 4 from the initial write.
  EXPECT_EQ(router_.lseek(fd, 0, SEEK_CUR), 4);
  EXPECT_EQ(router_.close(fd), 0);
}

TEST_F(RouterTest, AppendModeWritesAtEof) {
  {
    const int fd = router_.open(mpath("f").c_str(), O_WRONLY | O_CREAT, 0644);
    write_str(fd, "12345");
    router_.close(fd);
  }
  const int fd =
      router_.open(mpath("f").c_str(), O_WRONLY | O_APPEND, 0644);
  ASSERT_GE(fd, 0);
  write_str(fd, "678");
  // Cursor after append = new EOF.
  EXPECT_EQ(router_.lseek(fd, 0, SEEK_CUR), 8);
  router_.close(fd);

  const int rd = router_.open(mpath("f").c_str(), O_RDONLY, 0);
  EXPECT_EQ(read_str(rd, 16), "12345678");
  router_.close(rd);
}

TEST_F(RouterTest, StatSynthesizesRegularFile) {
  const int fd = router_.open(mpath("f").c_str(), O_WRONLY | O_CREAT, 0640);
  write_str(fd, "0123456789");
  router_.close(fd);

  struct ::stat st{};
  ASSERT_EQ(router_.stat(mpath("f").c_str(), &st), 0);
  EXPECT_TRUE(S_ISREG(st.st_mode));
  EXPECT_EQ(st.st_size, 10);
  EXPECT_EQ(st.st_mode & 07777, 0640u);
}

TEST_F(RouterTest, FstatOnPlfsFd) {
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  write_str(fd, "0123456789");
  struct ::stat st{};
  ASSERT_EQ(router_.fstat(fd, &st), 0);
  EXPECT_TRUE(S_ISREG(st.st_mode));
  EXPECT_EQ(st.st_size, 10);
  router_.close(fd);
}

TEST_F(RouterTest, StatPassthroughOutsideMount) {
  const std::string path = outside_.sub("plain");
  ASSERT_TRUE(posix::write_file(path, "xy").ok());
  struct ::stat st{};
  ASSERT_EQ(router_.stat(path.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 2);
}

TEST_F(RouterTest, UnlinkContainer) {
  const int fd = router_.open(mpath("f").c_str(), O_WRONLY | O_CREAT, 0644);
  router_.close(fd);
  ASSERT_TRUE(plfs::is_container(mpath("f")));
  EXPECT_EQ(router_.unlink(mpath("f").c_str()), 0);
  EXPECT_FALSE(posix::exists(mpath("f")));
}

TEST_F(RouterTest, UnlinkMissingSetsEnoent) {
  errno = 0;
  EXPECT_EQ(router_.unlink(mpath("absent").c_str()), -1);
  EXPECT_EQ(errno, ENOENT);
}

TEST_F(RouterTest, TruncatePathAndFtruncate) {
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  write_str(fd, "0123456789");
  EXPECT_EQ(router_.ftruncate(fd, 4), 0);
  EXPECT_EQ(router_.lseek(fd, 0, SEEK_SET), 0);
  EXPECT_EQ(read_str(fd, 16), "0123");
  router_.close(fd);

  EXPECT_EQ(router_.truncate(mpath("f").c_str(), 2), 0);
  struct ::stat st{};
  ASSERT_EQ(router_.stat(mpath("f").c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 2);
}

TEST_F(RouterTest, DupSharesCursor) {
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  write_str(fd, "abcdef");
  router_.lseek(fd, 0, SEEK_SET);
  const int fd2 = router_.dup(fd);
  ASSERT_GE(fd2, 0);
  EXPECT_TRUE(router_.is_plfs_fd(fd2));
  EXPECT_EQ(read_str(fd, 2), "ab");
  EXPECT_EQ(read_str(fd2, 2), "cd");  // shared kernel offset on the shadow
  EXPECT_EQ(router_.close(fd), 0);
  EXPECT_EQ(read_str(fd2, 2), "ef");  // still usable after first close
  EXPECT_EQ(router_.close(fd2), 0);
}

TEST_F(RouterTest, FcntlDupfdRegistersAlias) {
  // F_DUPFD must register the duplicate in the fd table exactly like dup():
  // before the fix the new fd silently passed through to the shadow file.
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  write_str(fd, "abcdef");
  router_.lseek(fd, 0, SEEK_SET);
  const int fd2 = router_.fcntl(fd, F_DUPFD, 0);
  ASSERT_GE(fd2, 0);
  EXPECT_TRUE(router_.is_plfs_fd(fd2));
  EXPECT_EQ(read_str(fd, 2), "ab");
  EXPECT_EQ(read_str(fd2, 2), "cd");  // shared kernel offset on the shadow
  EXPECT_EQ(router_.close(fd), 0);
  EXPECT_EQ(read_str(fd2, 2), "ef");
  EXPECT_EQ(router_.close(fd2), 0);
}

TEST_F(RouterTest, FcntlGetflReportsLogicalFlags) {
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  const int fl = router_.fcntl(fd, F_GETFL, 0);
  ASSERT_GE(fl, 0);
  EXPECT_EQ(fl & O_ACCMODE, O_RDWR);
  EXPECT_EQ(fl & O_APPEND, 0);
  EXPECT_EQ(fl & O_CREAT, 0);  // creation flags are not reported back
  EXPECT_EQ(router_.close(fd), 0);
}

TEST_F(RouterTest, FcntlSetflTurnsOnAppendSemantics) {
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  write_str(fd, "abc");
  router_.lseek(fd, 0, SEEK_SET);
  const int fl = router_.fcntl(fd, F_GETFL, 0);
  ASSERT_EQ(router_.fcntl(fd, F_SETFL, fl | O_APPEND), 0);
  EXPECT_EQ(router_.fcntl(fd, F_GETFL, 0) & O_APPEND, O_APPEND);
  // The write must now land at EOF even though the cursor sits at 0.
  write_str(fd, "def");
  router_.lseek(fd, 0, SEEK_SET);
  EXPECT_EQ(read_str(fd, 8), "abcdef");
  EXPECT_EQ(router_.close(fd), 0);
}

TEST_F(RouterTest, DirectoryOpenOfContainerFailsNotdir) {
  // A container is logically a regular file: open with O_DIRECTORY must
  // fail ENOTDIR just as it would on one. coreutils >= 9 probe the copy
  // target with open(O_PATH|O_DIRECTORY) — before the fix the probe
  // succeeded and `cp src container` copied *into* the container.
  const int fd = router_.open(mpath("f").c_str(), O_RDWR | O_CREAT, 0644);
  write_str(fd, "abc");
  EXPECT_EQ(router_.close(fd), 0);
  errno = 0;
  EXPECT_EQ(router_.open(mpath("f").c_str(), O_DIRECTORY | O_RDONLY, 0), -1);
  EXPECT_EQ(errno, ENOTDIR);
#ifdef O_PATH
  errno = 0;
  EXPECT_EQ(router_.open(mpath("f").c_str(), O_PATH | O_DIRECTORY, 0), -1);
  EXPECT_EQ(errno, ENOTDIR);
#endif
  // The mount root is a real directory — the probe must keep succeeding.
  const int dirfd =
      router_.open(mount_.path().c_str(), O_DIRECTORY | O_RDONLY, 0);
  EXPECT_GE(dirfd, 0);
  if (dirfd >= 0) EXPECT_EQ(router_.close(dirfd), 0);
}

TEST_F(RouterTest, FcntlPassthroughOutsideMount) {
  const std::string path = outside_.sub("plain");
  const int fd = router_.open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_FALSE(router_.is_plfs_fd(fd));
  const int fl = router_.fcntl(fd, F_GETFL, 0);
  ASSERT_GE(fl, 0);
  EXPECT_EQ(fl & O_ACCMODE, O_RDWR);
  EXPECT_EQ(router_.close(fd), 0);
}

TEST_F(RouterTest, TwoAppendersInterleaveAtEof) {
  // Two O_APPEND handles on one logical file in one process. Each handle
  // buffers through its own write-behind stream, so the append position
  // must be EOF over *all* open handles at flush time — before the fix a
  // handle only drained itself and overwrote the other's buffered bytes.
  const int fd1 =
      router_.open(mpath("f").c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  ASSERT_GE(fd1, 0);
  const int fd2 = router_.open(mpath("f").c_str(), O_WRONLY | O_APPEND, 0644);
  ASSERT_GE(fd2, 0);

  EXPECT_EQ(write_str(fd1, "aaa"), 3);
  EXPECT_EQ(write_str(fd2, "bb"), 2);   // must land at 3, not 0
  EXPECT_EQ(write_str(fd1, "c"), 1);    // must land at 5
  EXPECT_EQ(router_.close(fd1), 0);
  EXPECT_EQ(router_.close(fd2), 0);

  const int rd = router_.open(mpath("f").c_str(), O_RDONLY, 0);
  EXPECT_EQ(read_str(rd, 16), "aaabbc");
  struct ::stat st{};
  ASSERT_EQ(router_.fstat(rd, &st), 0);
  EXPECT_EQ(st.st_size, 6);
  EXPECT_EQ(router_.close(rd), 0);
}

TEST_F(RouterTest, RenameWithinMount) {
  const int fd = router_.open(mpath("a").c_str(), O_WRONLY | O_CREAT, 0644);
  write_str(fd, "data");
  router_.close(fd);
  EXPECT_EQ(router_.rename(mpath("a").c_str(), mpath("b").c_str()), 0);
  const int rd = router_.open(mpath("b").c_str(), O_RDONLY, 0);
  EXPECT_EQ(read_str(rd, 4), "data");
  router_.close(rd);
}

TEST_F(RouterTest, RenameOutOfMountIsExdev) {
  const int fd = router_.open(mpath("a").c_str(), O_WRONLY | O_CREAT, 0644);
  router_.close(fd);
  errno = 0;
  EXPECT_EQ(router_.rename(mpath("a").c_str(), outside_.sub("b").c_str()), -1);
  EXPECT_EQ(errno, EXDEV);
}

TEST_F(RouterTest, AccessOnContainer) {
  const int fd = router_.open(mpath("f").c_str(), O_WRONLY | O_CREAT, 0644);
  router_.close(fd);
  EXPECT_EQ(router_.access(mpath("f").c_str(), F_OK), 0);
  EXPECT_EQ(router_.access(mpath("f").c_str(), R_OK | W_OK), 0);
  EXPECT_EQ(router_.access(mpath("ghost").c_str(), F_OK), -1);
}

TEST_F(RouterTest, ForeignFileInsideMountPassesThrough) {
  // Files created behind LDPLFS's back stay plain files.
  ASSERT_TRUE(posix::write_file(mpath("foreign"), "plain bytes").ok());
  const int fd = router_.open(mpath("foreign").c_str(), O_RDONLY, 0);
  ASSERT_GE(fd, 0);
  EXPECT_FALSE(router_.is_plfs_fd(fd));
  EXPECT_EQ(read_str(fd, 64), "plain bytes");
  router_.close(fd);
}

TEST_F(RouterTest, RelativePathResolvesAgainstCwd) {
  char oldcwd[4096];
  ASSERT_NE(::getcwd(oldcwd, sizeof oldcwd), nullptr);
  ASSERT_EQ(::chdir(mount_.path().c_str()), 0);
  const int fd = router_.open("relfile", O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(router_.is_plfs_fd(fd));
  write_str(fd, "rel");
  router_.close(fd);
  ASSERT_EQ(::chdir(oldcwd), 0);
  EXPECT_TRUE(plfs::is_container(mpath("relfile")));
}

TEST_F(RouterTest, FsyncOnPlfsFdSucceeds) {
  const int fd = router_.open(mpath("f").c_str(), O_WRONLY | O_CREAT, 0644);
  write_str(fd, "x");
  EXPECT_EQ(router_.fsync(fd), 0);
  EXPECT_EQ(router_.fdatasync(fd), 0);
  router_.close(fd);
}

TEST_F(RouterTest, ReadsAndAppendsNeverFsync) {
  // Read-your-writes needs visibility, not durability. With every fsync
  // failing, reads after writes and O_APPEND writes must all succeed and
  // match the same calls on a plain file; only fsync reports the failure.
  struct FaultPlan {
    FaultPlan() {
      EXPECT_TRUE(posix::faults::configure("fsync:errno=ENOSPC"));
    }
    ~FaultPlan() { posix::faults::clear(); }
  } plan;
  const std::string plain_rw = outside_.sub("rw");
  const int rw = router_.open(mpath("rw").c_str(), O_RDWR | O_CREAT, 0644);
  const int plain = router_.open(plain_rw.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(rw, 0);
  ASSERT_GE(plain, 0);
  Rng rng(0xF5F5u);
  std::vector<char> wbuf(4096), got(4096), want(4096);
  for (int i = 0; i < 1000; ++i) {
    for (auto& c : wbuf) c = static_cast<char>(rng.next());
    const off_t woff = static_cast<off_t>(rng.below(1u << 20));
    ASSERT_EQ(router_.pwrite(rw, wbuf.data(), wbuf.size(), woff), 4096);
    ASSERT_EQ(router_.pwrite(plain, wbuf.data(), wbuf.size(), woff), 4096);
    const off_t roff = static_cast<off_t>(rng.below(1u << 20));
    const ssize_t n = router_.pread(rw, got.data(), got.size(), roff);
    ASSERT_EQ(n, router_.pread(plain, want.data(), want.size(), roff))
        << "op " << i;
    ASSERT_EQ(std::memcmp(got.data(), want.data(), static_cast<size_t>(n)), 0)
        << "op " << i;
  }

  const int log = router_.open(mpath("log").c_str(),
                               O_RDWR | O_CREAT | O_APPEND, 0644);
  const int plain_log = router_.open(outside_.sub("log").c_str(),
                                     O_RDWR | O_CREAT | O_APPEND, 0644);
  ASSERT_GE(log, 0);
  ASSERT_GE(plain_log, 0);
  for (int i = 0; i < 1000; ++i) {
    char line[100];
    std::memset(line, 'a' + i % 26, sizeof line);
    ASSERT_EQ(router_.write(log, line, sizeof line), 100) << "append " << i;
    ASSERT_EQ(router_.write(plain_log, line, sizeof line), 100);
  }

  // Whole-file comparison of both pairs, still before any fsync.
  for (const auto& [fd, flat] :
       {std::pair{rw, plain}, std::pair{log, plain_log}}) {
    struct ::stat st{}, flat_st{};
    ASSERT_EQ(router_.fstat(fd, &st), 0);
    ASSERT_EQ(router_.fstat(flat, &flat_st), 0);
    ASSERT_EQ(st.st_size, flat_st.st_size);
    std::vector<char> all(static_cast<std::size_t>(st.st_size));
    std::vector<char> flat_all(all.size());
    ASSERT_EQ(router_.pread(fd, all.data(), all.size(), 0), st.st_size);
    ASSERT_EQ(router_.pread(flat, flat_all.data(), flat_all.size(), 0),
              st.st_size);
    EXPECT_TRUE(all == flat_all);
  }

  EXPECT_EQ(router_.fsync(rw), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(router_.fsync(log), -1);
  EXPECT_EQ(errno, ENOSPC);
  for (const int fd : {rw, plain, log, plain_log}) router_.close(fd);
}

TEST_F(RouterTest, OTruncDropsOldContent) {
  {
    const int fd = router_.open(mpath("f").c_str(), O_WRONLY | O_CREAT, 0644);
    write_str(fd, "long old content");
    router_.close(fd);
  }
  const int fd =
      router_.open(mpath("f").c_str(), O_WRONLY | O_TRUNC, 0644);
  write_str(fd, "new");
  router_.close(fd);
  struct ::stat st{};
  ASSERT_EQ(router_.stat(mpath("f").c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 3);
}

TEST_F(RouterTest, ReadWriteOnNonPlfsFdPassesThrough) {
  const std::string path = outside_.sub("p");
  const int fd = router_.open(path.c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(write_str(fd, "pass"), 4);
  EXPECT_EQ(router_.lseek(fd, 0, SEEK_SET), 0);
  EXPECT_EQ(read_str(fd, 4), "pass");
  EXPECT_EQ(router_.close(fd), 0);
}

TEST_F(RouterTest, StatSynthesizesStableUniqueIdentity) {
  for (const char* name : {"ident_a", "ident_b"}) {
    const int fd = router_.open(mpath(name).c_str(), O_WRONLY | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    write_str(fd, "x");
    router_.close(fd);
  }

  struct ::stat a1{};
  struct ::stat a2{};
  struct ::stat b{};
  ASSERT_EQ(router_.stat(mpath("ident_a").c_str(), &a1), 0);
  ASSERT_EQ(router_.stat(mpath("ident_a").c_str(), &a2), 0);
  ASSERT_EQ(router_.stat(mpath("ident_b").c_str(), &b), 0);

  // Tools like `find`, tar and rsync key on (st_dev, st_ino); all-zero
  // answers make every logical file look identical.
  EXPECT_NE(a1.st_ino, 0u);
  EXPECT_NE(a1.st_dev, 0u);
  EXPECT_EQ(a1.st_ino, a2.st_ino);  // stable across calls
  EXPECT_EQ(a1.st_dev, a2.st_dev);
  EXPECT_NE(a1.st_ino, b.st_ino);   // distinct files, distinct inodes
  EXPECT_EQ(a1.st_dev, b.st_dev);   // same mount, same device

  // fstat must agree with stat on the same logical file.
  const int fd = router_.open(mpath("ident_a").c_str(), O_RDONLY, 0);
  ASSERT_GE(fd, 0);
  struct ::stat fs{};
  ASSERT_EQ(router_.fstat(fd, &fs), 0);
  EXPECT_EQ(fs.st_ino, a1.st_ino);
  EXPECT_EQ(fs.st_dev, a1.st_dev);
  router_.close(fd);
}

TEST(RouterDup2Test, FailedDup2PreservesNewfdState) {
  ldplfs::testing::TempDir mount;
  MountTable mounts;
  mounts.add(mount.path());
  RealCalls rc = libc_calls();
  rc.dup2 = [](int, int) -> int {
    errno = EINTR;
    return -1;
  };
  Router router(rc, mounts);

  const int fd1 =
      router.open((mount.path() + "/a").c_str(), O_RDWR | O_CREAT, 0644);
  const int fd2 =
      router.open((mount.path() + "/b").c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(router.write(fd2, "keep", 4), 4);

  // dup2 fails at the kernel level: newfd's PLFS state must survive. The
  // old code retired newfd before calling real dup2, so a failure orphaned
  // a perfectly good descriptor.
  errno = 0;
  EXPECT_EQ(router.dup2(fd1, fd2), -1);
  EXPECT_EQ(errno, EINTR);
  EXPECT_TRUE(router.is_plfs_fd(fd2));

  ASSERT_EQ(router.lseek(fd2, 0, SEEK_SET), 0);
  char buf[4] = {0};
  EXPECT_EQ(router.read(fd2, buf, 4), 4);
  EXPECT_EQ(std::memcmp(buf, "keep", 4), 0);
  EXPECT_EQ(router.close(fd1), 0);
  EXPECT_EQ(router.close(fd2), 0);
}

TEST(RouterShadowFdTest, ShadowFdFailureClosesPlfsHandle) {
  ldplfs::testing::TempDir mount;
  MountTable mounts;
  mounts.add(mount.path());
  // Fail every real open: plfs_open succeeds (it bypasses RealCalls), then
  // make_shadow_fd cannot get a descriptor and open() must unwind.
  RealCalls rc = libc_calls();
  rc.open = [](const char*, int, mode_t) -> int {
    errno = ENFILE;
    return -1;
  };
  Router router(rc, mounts);

  stats::force_enable(true);
  const auto before = stats::snapshot();
  errno = 0;
  const int fd = router.open((mount.path() + "/f").c_str(),
                             O_WRONLY | O_CREAT, 0644);
  EXPECT_EQ(fd, -1);
  EXPECT_EQ(errno, ENFILE);

  // The handle opened before the shadow-fd failure must have been closed
  // again, or its container bookkeeping leaks for the process lifetime.
  const auto delta = stats::snapshot().since(before);
  EXPECT_EQ(delta.get(stats::Counter::kPlfsHandleOpened), 1u);
  EXPECT_EQ(delta.get(stats::Counter::kPlfsHandleClosed),
            delta.get(stats::Counter::kPlfsHandleOpened));
}

TEST_F(RouterTest, RoutedOpsAreCountedExactly) {
  stats::force_enable(true);
  const auto before = stats::snapshot();

  const int fd = router_.open(mpath("counted").c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(write_str(fd, "12345678"), 8);
  EXPECT_EQ(router_.lseek(fd, 0, SEEK_SET), 0);
  EXPECT_EQ(read_str(fd, 8), "12345678");
  EXPECT_EQ(router_.close(fd), 0);

  const auto delta = stats::snapshot().since(before);
  using C = stats::Counter;
  EXPECT_EQ(delta.get(C::kRouterOpenRouted), 1u);
  EXPECT_EQ(delta.get(C::kRouterWriteRouted), 1u);
  EXPECT_EQ(delta.get(C::kRouterWriteBytes), 8u);
  EXPECT_EQ(delta.get(C::kRouterReadRouted), 1u);
  EXPECT_EQ(delta.get(C::kRouterReadBytes), 8u);
  EXPECT_EQ(delta.get(C::kRouterLseekRouted), 1u);
  EXPECT_EQ(delta.get(C::kRouterCloseRouted), 1u);
  EXPECT_EQ(delta.get(C::kRouterOpenPassthrough), 0u);
}

}  // namespace
}  // namespace ldplfs::core
