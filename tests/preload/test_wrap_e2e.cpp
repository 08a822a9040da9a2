// End-to-end tests of the static --wrap interposition mode: the same victim
// scenarios as the LD_PRELOAD suite, but the victim binary has LDPLFS
// linked in at build time with -Wl,--wrap=... — no dynamic loader involved
// (the paper's answer for BlueGene-style systems).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>

#include "plfs/container.hpp"
#include "plfs/plfs.hpp"
#include "posix/fd.hpp"
#include "testing/temp_dir.hpp"

namespace {

using ldplfs::testing::TempDir;

int run_wrap_victim(const std::string& scenario, const std::string& path,
                    const std::string& mount) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::setenv("LDPLFS_MOUNTS", mount.c_str(), 1);
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::execl(LDPLFS_WRAP_VICTIM_BIN, LDPLFS_WRAP_VICTIM_BIN, scenario.c_str(),
            path.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Move the mtime plfs_getattr reports for `container` (the newer of its
/// root's and its metadata directory's) far into the past.
void backdate_container(const std::string& container) {
  for (const auto& dir :
       {container, ldplfs::plfs::ContainerLayout(container).metadata_path()}) {
    ASSERT_TRUE(ldplfs::testing::set_times(dir, 1'000'000'000)) << dir;
  }
}

TEST(WrapE2eTest, WriteCreatesContainer) {
  TempDir mount;
  const std::string file = mount.sub("w.dat");
  ASSERT_EQ(run_wrap_victim("write", file, mount.path()), 0);
  EXPECT_TRUE(ldplfs::plfs::is_container(file));
  auto attr = ldplfs::plfs::plfs_getattr(file);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 12u);
}

TEST(WrapE2eTest, PositionalIoDupAndAppend) {
  TempDir mount;
  EXPECT_EQ(run_wrap_victim("pread", mount.sub("p.dat"), mount.path()), 0);
}

TEST(WrapE2eTest, StatAndUnlink) {
  TempDir mount;
  const std::string file = mount.sub("s.dat");
  ASSERT_EQ(run_wrap_victim("write", file, mount.path()), 0);
  ASSERT_EQ(run_wrap_victim("stat", file, mount.path()), 0);
  ASSERT_EQ(run_wrap_victim("unlink", file, mount.path()), 0);
  EXPECT_FALSE(ldplfs::posix::exists(file));
}

TEST(WrapE2eTest, StatAndFstatAgreeOnMtime) {
  TempDir mount;
  const std::string file = mount.sub("mtime.dat");
  ASSERT_EQ(run_wrap_victim("write", file, mount.path()), 0);
  backdate_container(file);
  EXPECT_EQ(run_wrap_victim("mtime", file, mount.path()), 0);
}

TEST(WrapE2eTest, CreateHonorsUmask) {
  TempDir mount;
  const std::string file = mount.sub("umask.dat");
  ASSERT_EQ(run_wrap_victim("umask", file, mount.path()), 0);
  auto attr = ldplfs::plfs::plfs_getattr(file);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().mode & 07777, 0640u);
}

TEST(WrapE2eTest, BigBlockStream) {
  TempDir mount;
  const std::string file = mount.sub("big.dat");
  ASSERT_EQ(run_wrap_victim("bigblocks", file, mount.path()), 0);
  auto attr = ldplfs::plfs::plfs_getattr(file);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 4ull * (8u << 20));
}

}  // namespace
