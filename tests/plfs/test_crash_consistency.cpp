// Crash-consistency soak: fork writer children, kill each at a randomized
// syscall via the fault injector (crash:after=N), and assert that
// plfs_recover always turns the debris into a readable, prefix-consistent
// container. The soak runs once per write engine — synchronous and
// write-behind (with a buffer small enough that rotations happen mid-run,
// so kills can land inside a pool thread's background flush). Also pins
// the POSIX write-back contract the injector exists to test: a failed data
// pwrite poisons the writer stream, and the original errno resurfaces from
// plfs_sync / plfs_close — immediately on the synchronous engine (that
// test forces LDPLFS_WRITE_BEHIND=0), deferred on the write-behind engine
// (covered by test_write_behind.cpp). A third writer reads back after
// every chunk and SIGKILLs itself: reads must not make unsynced bytes
// survive, so recovery finds exactly the synced prefix.
//
// Everything is deterministic: kill points come from a fixed-seed Rng, and
// iteration 0 uses a kill point beyond the child's op count as the
// no-crash control.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "plfs/plfs.hpp"
#include "plfs/recovery.hpp"
#include "posix/faults.hpp"
#include "testing/temp_dir.hpp"

namespace ldplfs::plfs {
namespace {

using ldplfs::testing::TempDir;
using ldplfs::testing::as_bytes;

constexpr std::size_t kChunk = 1024;
constexpr std::size_t kChunks = 16;
constexpr pid_t kWriterPid = 7;
constexpr int kIterations = 24;  // acceptance floor is 20 kill points

char chunk_fill(std::size_t index) {
  return static_cast<char>('A' + static_cast<char>(index));
}

/// Child body: write kChunks sequential chunks under `fault_spec`, syncing
/// every `sync_every` chunks. In write-behind mode the buffer holds four
/// chunks and the sync interval holds eight, so every interval rotates the
/// double buffer once — half the data travels through a pool-thread flush,
/// half through the drain barrier. Exit 0 = ran to completion; injected
/// crash clauses _exit(137).
[[noreturn]] void run_doomed_writer(const std::string& path,
                                    const std::string& fault_spec,
                                    bool write_behind) {
  if (write_behind) {
    ::setenv("LDPLFS_WRITE_BEHIND", "1", 1);
    ::setenv("LDPLFS_WRITE_BUFFER", "4096", 1);  // 4 chunks per buffer
  } else {
    ::setenv("LDPLFS_WRITE_BEHIND", "0", 1);
  }
  const std::size_t sync_every = write_behind ? 8 : 1;
  posix::faults::clear();
  if (!posix::faults::configure(fault_spec)) ::_exit(2);
  auto fd = plfs_open(path, O_CREAT | O_WRONLY, kWriterPid);
  if (!fd.ok()) ::_exit(3);
  for (std::size_t i = 0; i < kChunks; ++i) {
    const std::string chunk(kChunk, chunk_fill(i));
    if (!fd.value()->write(as_bytes(chunk), i * kChunk, kWriterPid).ok()) {
      ::_exit(4);
    }
    // Sync so every surviving index record describes data that a completed
    // pwrite already put in the page cache: the recovered prefix can only
    // ever be whole chunks.
    if (i % sync_every == sync_every - 1) {
      if (!plfs_sync(*fd.value(), kWriterPid).ok()) ::_exit(5);
    }
  }
  if (!plfs_close(fd.value(), kWriterPid).ok()) ::_exit(6);
  ::_exit(0);
}

/// Child body: kChunks sequential chunks through an O_RDWR handle, synced
/// every kReadBackSyncEvery chunks, every chunk read back (whole prefix,
/// checked) before the next is written; SIGKILLs itself right after reading
/// back chunk `kill_after`. Exit 7 = a read-back mismatch.
constexpr std::size_t kReadBackSyncEvery = 4;

[[noreturn]] void run_reading_writer(const std::string& path,
                                     std::size_t kill_after,
                                     bool write_behind) {
  ::setenv("LDPLFS_WRITE_BEHIND", write_behind ? "1" : "0", 1);
  ::setenv("LDPLFS_WRITE_BUFFER", "4096", 1);
  auto fd = plfs_open(path, O_CREAT | O_RDWR, kWriterPid);
  if (!fd.ok()) ::_exit(3);
  std::vector<std::byte> buf(kChunks * kChunk);
  for (std::size_t i = 0; i < kChunks; ++i) {
    const std::string chunk(kChunk, chunk_fill(i));
    if (!fd.value()->write(as_bytes(chunk), i * kChunk, kWriterPid).ok()) {
      ::_exit(4);
    }
    if (i % kReadBackSyncEvery == kReadBackSyncEvery - 1 &&
        !plfs_sync(*fd.value(), kWriterPid).ok()) {
      ::_exit(5);
    }
    const std::size_t want = (i + 1) * kChunk;
    auto got = plfs_read(*fd.value(), {buf.data(), want}, 0);
    if (!got.ok() || got.value() != want) ::_exit(7);
    for (std::size_t off = 0; off < want; ++off) {
      if (static_cast<char>(buf[off]) != chunk_fill(off / kChunk)) ::_exit(7);
    }
    if (i == kill_after) ::kill(::getpid(), SIGKILL);
  }
  ::_exit(plfs_close(fd.value(), kWriterPid).ok() ? 0 : 6);
}

/// Recover `path` and assert the strongest invariant a killed sequential
/// writer allows: the container holds an intact prefix of whole chunks.
void assert_prefix_consistent(const std::string& path, int iteration) {
  auto stats = plfs_recover(path);
  ASSERT_TRUE(stats.ok()) << "iteration " << iteration << ": "
                          << stats.error().message();
  const std::uint64_t size = stats.value().logical_size;
  EXPECT_EQ(size % kChunk, 0u) << "iteration " << iteration
                               << ": torn chunk survived recovery";
  EXPECT_LE(size, kChunks * kChunk) << "iteration " << iteration;

  auto attr = plfs_getattr(path);
  ASSERT_TRUE(attr.ok()) << "iteration " << iteration;
  EXPECT_EQ(attr.value().size, size) << "iteration " << iteration;

  auto fd = plfs_open(path, O_RDONLY, 1);
  ASSERT_TRUE(fd.ok()) << "iteration " << iteration;
  std::vector<std::byte> buf(size);
  auto got = plfs_read(*fd.value(), buf, 0);
  ASSERT_TRUE(got.ok()) << "iteration " << iteration;
  ASSERT_EQ(got.value(), size) << "iteration " << iteration;
  for (std::uint64_t off = 0; off < size; ++off) {
    ASSERT_EQ(static_cast<char>(buf[off]), chunk_fill(off / kChunk))
        << "iteration " << iteration << ": byte " << off;
  }
  ASSERT_TRUE(plfs_close(fd.value(), 1).ok()) << "iteration " << iteration;
}

class CrashConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    posix::faults::clear();
    ::unsetenv("LDPLFS_WRITE_BEHIND");
    ::unsetenv("LDPLFS_WRITE_BUFFER");
  }
  void TearDown() override {
    posix::faults::clear();
    ::unsetenv("LDPLFS_WRITE_BEHIND");
    ::unsetenv("LDPLFS_WRITE_BUFFER");
  }

  /// Fork a doomed writer for `path`, wait, and return its exit code (or -1
  /// after flagging a test failure): 0 = finished, 137 = injected crash.
  int reap_doomed_writer(const std::string& path,
                         const std::string& fault_spec, bool write_behind,
                         int iteration = -1) {
    const pid_t pid = ::fork();
    if (pid == 0) run_doomed_writer(path, fault_spec, write_behind);
    EXPECT_GT(pid, 0);
    if (pid < 0) return -1;
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status)) << "iteration " << iteration;
    if (!WIFEXITED(status)) return -1;
    const int code = WEXITSTATUS(status);
    EXPECT_TRUE(code == 0 || code == 137)
        << "iteration " << iteration << ": writer exited " << code
        << " (injected faults must crash, never error)";
    return code == 0 || code == 137 ? code : -1;
  }

  /// The soak body, once per engine. `kill_span` bounds the random kill
  /// point; it tracks the engine's instrumented-op count per full run so
  /// most kills land inside the run (write-behind batches syscalls, so its
  /// runs are much shorter).
  void run_soak(bool write_behind, std::uint64_t kill_span) {
    int crashed = 0;
    int completed = 0;
    int recovered = 0;
    for (int iteration = 0; iteration < kIterations; ++iteration) {
      const std::string path = tmp_.sub("soak." + std::to_string(iteration));
      Rng rng(0xC0FFEEu + static_cast<std::uint64_t>(iteration) +
              (write_behind ? 0x5EEDu : 0u));
      const std::uint64_t kill_at_op =
          iteration == 0 ? 10'000 : 1 + rng.next() % kill_span;
      const int code = reap_doomed_writer(
          path, "crash:after=" + std::to_string(kill_at_op), write_behind,
          iteration);
      if (code < 0) return;
      code == 0 ? ++completed : ++crashed;

      if (!plfs_is_container(path)) {
        // Killed before the access marker: nothing was committed, and
        // recovery must say so rather than conjure a container.
        EXPECT_EQ(plfs_recover(path).error_code(), ENOENT)
            << "iteration " << iteration;
        continue;
      }
      ++recovered;
      assert_prefix_consistent(path, iteration);
      if (code == 0) {
        auto attr = plfs_getattr(path);
        ASSERT_TRUE(attr.ok());
        EXPECT_EQ(attr.value().size, kChunks * kChunk);
      }
    }
    // The fixed seed must actually exercise both fates.
    EXPECT_GT(crashed, 0);
    EXPECT_GT(completed, 0);
    EXPECT_GT(recovered, 0);
  }

  TempDir tmp_;
};

TEST_F(CrashConsistencyTest, RandomKillPointsAlwaysRecoverable) {
  // ~86 instrumented ops per full synchronous run; [1, 90] spans container
  // creation, every write/sync round, and close-time metadata.
  run_soak(/*write_behind=*/false, /*kill_span=*/90);
}

TEST_F(CrashConsistencyTest, RandomKillPointsAlwaysRecoverableWriteBehind) {
  // Write-behind batches 16 writes into 4 pwrites (2 background, 2 drain)
  // and 2 fsyncs, so a full run is ~28 instrumented ops.
  run_soak(/*write_behind=*/true, /*kill_span=*/28);
}

TEST_F(CrashConsistencyTest, ReadBackKeepsExactlyTheSyncedPrefix) {
  // A read makes the writer's bytes visible to its own handle only: no
  // index write, no fsync. So a writer that reads back after every chunk
  // and is SIGKILLed recovers to exactly its synced prefix — not to the
  // larger prefix it last read.
  for (const bool write_behind : {false, true}) {
    for (std::size_t kill_after = 0; kill_after < kChunks; kill_after += 3) {
      const std::string path =
          tmp_.sub("readback." + std::to_string(write_behind) + "." +
                   std::to_string(kill_after));
      const pid_t pid = ::fork();
      if (pid == 0) run_reading_writer(path, kill_after, write_behind);
      ASSERT_GT(pid, 0);
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << "kill_after " << kill_after << ": writer exited "
          << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      const int iteration = static_cast<int>(kill_after);
      assert_prefix_consistent(path, iteration);
      const std::size_t synced =
          (kill_after + 1) / kReadBackSyncEvery * kReadBackSyncEvery;
      auto attr = plfs_getattr(path);
      ASSERT_TRUE(attr.ok());
      EXPECT_EQ(attr.value().size, synced * kChunk)
          << "write_behind " << write_behind << ", kill_after " << kill_after;
    }
  }
}

TEST_F(CrashConsistencyTest, CrashInFirstBackgroundFlushCommitsNothing) {
  const std::string path = tmp_.sub("flushcrash");
  // Data appends are the only pwrites in a writer's life, and under
  // write-behind the first one is issued by the pool thread (the first
  // double-buffer rotation). pwrite:crash therefore kills the process
  // inside the background flush, before any index record was flushed:
  // recovery must find an intact, empty container.
  const int code =
      reap_doomed_writer(path, "pwrite:crash", /*write_behind=*/true);
  if (code < 0) return;
  EXPECT_EQ(code, 137) << "crash clause must fire inside the first flush";
  ASSERT_TRUE(plfs_is_container(path));
  auto stats = plfs_recover(path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().logical_size, 0u);
}

TEST_F(CrashConsistencyTest, SyncedPrefixSurvivesCrashInLaterFlush) {
  const std::string path = tmp_.sub("flushcrash2");
  // pwrites in a write-behind run land in order: background flush (chunks
  // 0-3), drain at the first sync (chunks 4-7), background flush (chunks
  // 8-11), drain at the second sync. after=2 lets the first sync interval
  // complete and crashes the pool thread mid-flush of the second: exactly
  // the synced 8-chunk prefix must survive.
  const int code = reap_doomed_writer(path, "pwrite:after=2:crash",
                                      /*write_behind=*/true);
  if (code < 0) return;
  EXPECT_EQ(code, 137);
  ASSERT_TRUE(plfs_is_container(path));
  assert_prefix_consistent(path, /*iteration=*/-1);
  auto stats = plfs_recover(path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().logical_size, 8 * kChunk);
}

TEST_F(CrashConsistencyTest, FailedPwritePoisonsSyncAndClose) {
  // This test pins the *synchronous* engine's immediate-error contract
  // (write-behind defers the same poisoning to the flush; see
  // test_write_behind.cpp for that side).
  ::setenv("LDPLFS_WRITE_BEHIND", "0", 1);
  const std::string path = tmp_.sub("enospc");
  // One injected ENOSPC (count=1): the syscall layer would succeed again
  // afterwards, so every later failure below is the writer's sticky
  // deferred error, not the injector.
  ASSERT_TRUE(
      posix::faults::configure("pwrite:after=1:errno=ENOSPC:count=1"));
  auto fd = plfs_open(path, O_CREAT | O_WRONLY, kWriterPid);
  ASSERT_TRUE(fd.ok());
  const std::string chunk(kChunk, chunk_fill(0));
  ASSERT_TRUE(fd.value()->write(as_bytes(chunk), 0, kWriterPid).ok());

  EXPECT_EQ(
      fd.value()->write(as_bytes(chunk), kChunk, kWriterPid).error_code(),
      ENOSPC);
  EXPECT_EQ(
      fd.value()->write(as_bytes(chunk), 2 * kChunk, kWriterPid).error_code(),
      ENOSPC);
  EXPECT_EQ(plfs_sync(*fd.value(), kWriterPid).error_code(), ENOSPC);
  EXPECT_EQ(plfs_close(fd.value(), kWriterPid).error_code(), ENOSPC);

  // The stream reported the loss; what was acknowledged before it is intact.
  posix::faults::clear();
  auto stats = plfs_recover(path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().logical_size, kChunk);
  auto rfd = plfs_open(path, O_RDONLY, 1);
  ASSERT_TRUE(rfd.ok());
  std::vector<std::byte> buf(kChunk);
  auto got = plfs_read(*rfd.value(), buf, 0);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value(), kChunk);
  for (std::size_t i = 0; i < kChunk; ++i) {
    ASSERT_EQ(static_cast<char>(buf[i]), chunk_fill(0));
  }
  ASSERT_TRUE(plfs_close(rfd.value(), 1).ok());
}

}  // namespace
}  // namespace ldplfs::plfs
