// End-to-end LD_PRELOAD tests: spawn an unmodified POSIX binary (the
// "victim") with libldplfs.so preloaded and a temp mount configured, then
// verify from outside that containers were created and logical contents
// match. These are the executable form of the paper's core claim — no
// application modification needed.
//
// Build passes -DLDPLFS_PRELOAD_LIB / -DLDPLFS_VICTIM_BIN with the artifact
// paths.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "plfs/compaction.hpp"
#include "plfs/container.hpp"
#include "plfs/plfs.hpp"
#include "posix/fd.hpp"
#include "testing/temp_dir.hpp"

namespace {

using ldplfs::testing::TempDir;

struct RunResult {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

/// Run the victim with given scenario/path; `preload` toggles libldplfs.
/// `extra_env` entries are NAME=VALUE pairs set in the child only.
RunResult run_victim(const std::string& scenario, const std::string& path,
                     const std::string& mount, bool preload = true,
                     const std::vector<std::pair<std::string, std::string>>&
                         extra_env = {}) {
  int out_pipe[2];
  int err_pipe[2];
  EXPECT_EQ(::pipe(out_pipe), 0);
  EXPECT_EQ(::pipe(err_pipe), 0);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    if (preload) {
      ::setenv("LD_PRELOAD", LDPLFS_PRELOAD_LIB, 1);
      ::setenv("LDPLFS_MOUNTS", mount.c_str(), 1);
    } else {
      ::unsetenv("LD_PRELOAD");
      ::unsetenv("LDPLFS_MOUNTS");
    }
    for (const auto& [key, value] : extra_env) {
      ::setenv(key.c_str(), value.c_str(), 1);
    }
    ::execl(LDPLFS_VICTIM_BIN, LDPLFS_VICTIM_BIN, scenario.c_str(),
            path.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);

  RunResult result;
  auto drain = [](int fd, std::string& into) {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0) {
      into.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
  };
  drain(out_pipe[0], result.stdout_text);
  drain(err_pipe[0], result.stderr_text);

  int status = 0;
  ::waitpid(pid, &status, 0);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Move the mtime plfs_getattr reports for `container` (the newer of its
/// root's and its metadata directory's) far into the past.
void backdate_container(const std::string& container) {
  for (const auto& dir :
       {container, ldplfs::plfs::ContainerLayout(container).metadata_path()}) {
    ASSERT_TRUE(ldplfs::testing::set_times(dir, 1'000'000'000)) << dir;
  }
}

std::string plfs_content(const std::string& container) {
  auto fd = ldplfs::plfs::plfs_open(container, O_RDONLY, 1);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return {};
  std::string out(1 << 16, '\0');
  auto n = fd.value()->read(
      std::span<std::byte>(reinterpret_cast<std::byte*>(out.data()),
                           out.size()),
      0);
  EXPECT_TRUE(n.ok());
  out.resize(n.ok() ? n.value() : 0);
  return out;
}

TEST(PreloadE2eTest, WriteCreatesContainerWithCorrectContent) {
  TempDir mount;
  const std::string file = mount.sub("victim.out");
  const auto result = run_victim("write", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  ASSERT_TRUE(ldplfs::plfs::is_container(file));
  EXPECT_EQ(plfs_content(file), "HELLO world!");
}

TEST(PreloadE2eTest, WithoutPreloadWritesPlainFile) {
  TempDir mount;
  const std::string file = mount.sub("victim.out");
  const auto result = run_victim("write", file, mount.path(), false);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_FALSE(ldplfs::plfs::is_container(file));
  auto content = ldplfs::posix::read_file(file);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "HELLO world!");
}

TEST(PreloadE2eTest, ReadsBackContainerWrittenViaApi) {
  TempDir mount;
  const std::string file = mount.sub("api.dat");
  {
    auto fd = ldplfs::plfs::plfs_open(file, O_CREAT | O_WRONLY, 1);
    ASSERT_TRUE(fd.ok());
    const std::string payload = "written by the PLFS API directly";
    ASSERT_TRUE(fd.value()
                    ->write(ldplfs::testing::as_bytes(payload), 0, 1)
                    .ok());
    ASSERT_TRUE(ldplfs::plfs::plfs_close(fd.value(), 1).ok());
  }
  const auto result = run_victim("read", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(result.stdout_text, "written by the PLFS API directly");
}

TEST(PreloadE2eTest, StdioRoundTripThroughFopencookie) {
  TempDir mount;
  const std::string file = mount.sub("stdio.txt");
  const auto result = run_victim("stdio", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_TRUE(ldplfs::plfs::is_container(file));
  EXPECT_EQ(plfs_content(file), "stdio line one\nvalue=42\n");
}

TEST(PreloadE2eTest, StatReportsLogicalSize) {
  TempDir mount;
  const std::string file = mount.sub("s.dat");
  ASSERT_EQ(run_victim("write", file, mount.path()).exit_code, 0);
  const auto result = run_victim("stat", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(result.stdout_text, "12\n");
}

TEST(PreloadE2eTest, Stat64FamilyReportsLogicalSize) {
  // stat64/fstatat64 used to alias the caller's stat64 buffer as a struct
  // stat; the victim poisons the buffer and cross-checks all three entry
  // points, so a layout regression shows up as a size/mode mismatch.
  TempDir mount;
  const std::string file = mount.sub("s64.dat");
  ASSERT_EQ(run_victim("write", file, mount.path()).exit_code, 0);
  const auto result = run_victim("statat64", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(result.stdout_text, "12\n");
}

TEST(PreloadE2eTest, StatAndFstatAgreeOnMtime) {
  // Backdate the container so a stat answering 0, or an fstat answering
  // the current time, cannot pass for its real mtime.
  TempDir mount;
  const std::string file = mount.sub("mtime.dat");
  ASSERT_EQ(run_victim("write", file, mount.path()).exit_code, 0);
  backdate_container(file);
  const auto result = run_victim("mtime", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
}

TEST(PreloadE2eTest, CreateHonorsUmask) {
  TempDir mount;
  const std::string file = mount.sub("umask.dat");
  const auto result = run_victim("umask", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  auto attr = ldplfs::plfs::plfs_getattr(file);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().mode & 07777, 0640u);
}

TEST(PreloadE2eTest, FcntlDupflagsAndAppendOnRoutedFd) {
  TempDir mount;
  const std::string file = mount.sub("fcntl.dat");
  const auto result = run_victim("fcntl", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_TRUE(ldplfs::plfs::is_container(file));
  EXPECT_EQ(plfs_content(file), "0123456789END");
}

TEST(PreloadE2eTest, UnlinkRemovesContainer) {
  TempDir mount;
  const std::string file = mount.sub("u.dat");
  ASSERT_EQ(run_victim("write", file, mount.path()).exit_code, 0);
  ASSERT_TRUE(ldplfs::plfs::is_container(file));
  const auto result = run_victim("unlink", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_FALSE(ldplfs::posix::exists(file));
}

TEST(PreloadE2eTest, PositionalIoDupAndAppend) {
  TempDir mount;
  const auto result =
      run_victim("pread", mount.sub("p.dat"), mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
}

TEST(PreloadE2eTest, EightMiBBlockStream) {
  TempDir mount;
  const std::string file = mount.sub("big.dat");
  const auto result = run_victim("bigblocks", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  auto attr = ldplfs::plfs::plfs_getattr(file);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 4ull * (8u << 20));
}

TEST(PreloadE2eTest, VectoredIoThroughShim) {
  TempDir mount;
  const std::string file = mount.sub("v.dat");
  const auto result = run_victim("vectored", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(plfs_content(file), "alpha-bravo-charlie");
}

TEST(PreloadE2eTest, StdioExclusiveHonorsModeModifiers) {
  // fopen("wx") on an existing container must fail EEXIST without
  // truncating; "b"/"e" modifiers must be accepted. The victim asserts the
  // mode semantics itself; we assert the surviving content from outside.
  TempDir mount;
  const std::string file = mount.sub("excl.txt");
  const auto result = run_victim("stdio_excl", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_TRUE(ldplfs::plfs::is_container(file));
  EXPECT_EQ(plfs_content(file), "first\nsecond\n");
}

TEST(PreloadE2eTest, StatsDumpMatchesIssuedOps) {
  // LDPLFS_STATS=/path.json on an unmodified victim: the exit-time dump's
  // routed-op counts and byte totals must equal exactly what the victim
  // issued (scenario "write": 1 open, 3 writes totalling 17 bytes, 1 lseek,
  // 1 close — see scenario_write in preload_victim.cpp).
  TempDir mount;
  TempDir scratch;
  const std::string dump = scratch.sub("stats.json");
  const auto result = run_victim("write", mount.sub("s.out"), mount.path(),
                                 true, {{"LDPLFS_STATS", dump}});
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  auto body = ldplfs::posix::read_file(dump);
  ASSERT_TRUE(body.ok());
  for (const char* needle :
       {"\"router.open.routed\": 1", "\"router.write.routed\": 3",
        "\"router.write.bytes\": 17", "\"router.lseek.routed\": 1",
        "\"router.close.routed\": 1"}) {
    EXPECT_NE(body.value().find(needle), std::string::npos)
        << "missing " << needle << " in:\n"
        << body.value();
  }
}

TEST(PreloadE2eTest, FileOutsideMountIsUntouched) {
  TempDir mount;
  TempDir outside;
  const std::string file = outside.sub("plain.out");
  const auto result = run_victim("write", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_FALSE(ldplfs::plfs::is_container(file));
  auto content = ldplfs::posix::read_file(file);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), "HELLO world!");
}

// --- mmap / zero-copy interposition --------------------------------------

/// A container written through the PLFS API, then flattened by compaction
/// into the identity-flat shape the mmap/zero-copy paths require.
void make_flat_container(const std::string& path, const std::string& content) {
  auto fd = ldplfs::plfs::plfs_open(path, O_CREAT | O_WRONLY, 1);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fd.value()->write(ldplfs::testing::as_bytes(content), 0, 1).ok());
  ASSERT_TRUE(ldplfs::plfs::plfs_close(fd.value(), 1).ok());
  ASSERT_TRUE(ldplfs::plfs::plfs_compact(path).ok());
}

/// A container whose extents span two data droppings — not mappable.
void make_log_container(const std::string& path, const std::string& a,
                        const std::string& b) {
  auto fd = ldplfs::plfs::plfs_open(path, O_CREAT | O_WRONLY, 1);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fd.value()->write(ldplfs::testing::as_bytes(a), 0, 1).ok());
  ASSERT_TRUE(
      fd.value()->write(ldplfs::testing::as_bytes(b), a.size(), 2).ok());
  ASSERT_TRUE(fd.value()->close(1).ok());
  ASSERT_TRUE(ldplfs::plfs::plfs_close(fd.value(), 2).ok());
}

TEST(PreloadMmapTest, FlattenedContainerGetsRealMapping) {
  TempDir mount;
  const std::string file = mount.sub("flat.dat");
  const std::string content = "mapped straight from the dropping\n";
  make_flat_container(file, content);
  const auto result = run_victim("mmap_cat", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(result.stderr_text, "MMAP_SERVED\n");
  EXPECT_EQ(result.stdout_text, content);
}

TEST(PreloadMmapTest, LogContainerRefusalFallsBackToReadLikeGrep) {
  // The regression the deterministic ENODEV exists for: a GNU-grep-style
  // caller must see the refusal, fall back to read(2), and still get the
  // right logical bytes.
  TempDir mount;
  const std::string file = mount.sub("log.dat");
  make_log_container(file, "first dropping, ", "second dropping");
  const auto result = run_victim("mmap_cat", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(result.stderr_text, "MMAP_FALLBACK\n");
  EXPECT_EQ(result.stdout_text, "first dropping, second dropping");
}

TEST(PreloadMmapTest, MappingSurvivesFdClose) {
  TempDir mount;
  const std::string file = mount.sub("flat.dat");
  const std::string content = "pages outlive the fd\n";
  make_flat_container(file, content);
  const auto result = run_victim("mmap_after_close", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(result.stdout_text, content);
}

TEST(PreloadMmapTest, MapAtPageOffsetIsNotTruncated) {
  // mmap64's offset must reach the dropping untruncated (the old route
  // through mmap cast it to off_t); a second-page map must see page two.
  TempDir mount;
  const std::string file = mount.sub("paged.dat");
  const std::string content = std::string(4096, 'A') + std::string(4096, 'B');
  make_flat_container(file, content);
  const auto result = run_victim("mmap_offset", file, mount.path());
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  EXPECT_EQ(result.stdout_text, std::string(4096, 'B'));
}

TEST(PreloadZeroCopyTest, CopyFileRangeAndSendfileOutOfFlatContainer) {
  TempDir mount;
  TempDir scratch;
  const std::string file = mount.sub("src.dat");
  const std::string content = "zero copies of this payload were made\n";
  make_flat_container(file, content);
  const std::string dump = scratch.sub("stats.json");
  const auto result = run_victim(
      "copy_out", file, mount.path(), true,
      {{"VICTIM_DEST", scratch.sub("out")}, {"LDPLFS_STATS", dump}});
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  for (const char* suffix : {".cfr", ".sf"}) {
    auto copied = ldplfs::posix::read_file(scratch.sub("out") + suffix);
    ASSERT_TRUE(copied.ok()) << suffix;
    EXPECT_EQ(copied.value(), content) << suffix;
  }
  // Both copies must have taken the true kernel-side path, not the
  // emulated read/write loop.
  auto body = ldplfs::posix::read_file(dump);
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body.value().find("\"zerocopy.ops\": 2"), std::string::npos)
      << body.value();
}

TEST(PreloadZeroCopyTest, LogContainerCopiesThroughEmulation) {
  // Non-flat input keeps the emulated loop — correctness over speed.
  TempDir mount;
  TempDir scratch;
  const std::string file = mount.sub("log.dat");
  make_log_container(file, "part one and ", "part two");
  const std::string dump = scratch.sub("stats.json");
  const auto result = run_victim(
      "copy_out", file, mount.path(), true,
      {{"VICTIM_DEST", scratch.sub("out")}, {"LDPLFS_STATS", dump}});
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
  for (const char* suffix : {".cfr", ".sf"}) {
    auto copied = ldplfs::posix::read_file(scratch.sub("out") + suffix);
    ASSERT_TRUE(copied.ok()) << suffix;
    EXPECT_EQ(copied.value(), "part one and part two") << suffix;
  }
  auto body = ldplfs::posix::read_file(dump);
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body.value().find("\"zerocopy.ops\": 0"), std::string::npos)
      << body.value();
}

}  // namespace
