// Write-behind engine suite: the aggregated, double-buffered async append
// path (see write_file.hpp).
//
// The heart is a randomized oracle test: the same fixed-seed op sequence
// (strided writes, truncates, syncs, read checkpoints) runs once under the
// write-behind engine and once under the synchronous engine, each checked
// against an in-memory byte model at every checkpoint. The two containers
// must then agree byte-for-byte — identical data-dropping contents and
// identical index records modulo timestamps — which pins the engines to the
// same log-structured layout, not merely the same logical contents.
//
// A second randomized oracle pins the read path's patched snapshot: a
// writing handle serves read-your-writes by patching its own copy of the
// index snapshot, and must rebuild exactly once whenever a patch could
// differ from a full merge, and never otherwise.
//
// The fault tests pin the deferred-error half of the contract: a background
// flush failure on a pool thread poisons the stream, the original errno
// resurfaces from the next write/sync/close, and no index record ever
// describes bytes the failed flush did not land.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/paths.hpp"
#include "common/units.hpp"
#include "plfs/container.hpp"
#include "plfs/index_format.hpp"
#include "plfs/plfs.hpp"
#include "plfs/recovery.hpp"
#include "plfs/write_file.hpp"
#include "posix/faults.hpp"
#include "posix/fd.hpp"
#include "testing/temp_dir.hpp"

namespace ldplfs::plfs {
namespace {

using ldplfs::testing::TempDir;
using ldplfs::testing::as_bytes;

constexpr pid_t kPid = 9;
constexpr std::size_t kChunk = 1024;

char chunk_fill(std::size_t index) {
  return static_cast<char>('A' + static_cast<char>(index));
}

class WriteBehindTest : public ::testing::Test {
 protected:
  void SetUp() override { posix::faults::clear(); }
  void TearDown() override {
    posix::faults::clear();
    ::unsetenv("LDPLFS_WRITE_BEHIND");
    ::unsetenv("LDPLFS_WRITE_BUFFER");
    ::unsetenv("LDPLFS_COALESCE");
  }
  TempDir tmp_;
};

TEST_F(WriteBehindTest, EnvKnobs) {
  ::unsetenv("LDPLFS_WRITE_BEHIND");
  EXPECT_TRUE(WriteFile::env_write_behind());  // on by default
  ::setenv("LDPLFS_WRITE_BEHIND", "0", 1);
  EXPECT_FALSE(WriteFile::env_write_behind());
  ::setenv("LDPLFS_WRITE_BEHIND", "1", 1);
  EXPECT_TRUE(WriteFile::env_write_behind());

  ::unsetenv("LDPLFS_WRITE_BUFFER");
  EXPECT_EQ(WriteFile::env_write_buffer(), std::size_t{4} << 20);
  ::setenv("LDPLFS_WRITE_BUFFER", "8K", 1);
  EXPECT_EQ(WriteFile::env_write_buffer(), std::size_t{8} << 10);
  ::setenv("LDPLFS_WRITE_BUFFER", "1", 1);  // clamped to the 4 KiB floor
  EXPECT_EQ(WriteFile::env_write_buffer(), std::size_t{4} << 10);
  ::setenv("LDPLFS_WRITE_BUFFER", "1G", 1);  // clamped to the 256 MiB cap
  EXPECT_EQ(WriteFile::env_write_buffer(), std::size_t{256} << 20);
  ::setenv("LDPLFS_WRITE_BUFFER", "banana", 1);  // malformed: default
  EXPECT_EQ(WriteFile::env_write_buffer(), std::size_t{4} << 20);
}

/// Random lowercase payload of `len` bytes.
std::string random_payload(Rng& rng, std::size_t len) {
  std::string data(len, '\0');
  for (auto& c : data) c = static_cast<char>('a' + rng.below(26));
  return data;
}

void apply_to_model(std::vector<char>& model, std::uint64_t off,
                    const std::string& data) {
  if (model.size() < off + data.size()) model.resize(off + data.size(), '\0');
  std::copy(data.begin(), data.end(),
            model.begin() + static_cast<std::ptrdiff_t>(off));
}

/// What one oracle run leaves behind, for cross-engine comparison.
struct WorkloadResult {
  std::vector<char> model;        // final oracle contents
  std::string dropping_bytes;     // raw data-dropping contents
  std::vector<IndexRecord> records;  // on-disk index records
};

/// Run the fixed-seed random workload against one container and the byte
/// model, checking read-your-writes at every checkpoint. The 4 KiB buffer
/// forces many double-buffer rotations; occasional oversized writes take
/// the buffer-dodging path.
WorkloadResult run_workload(const TempDir& tmp, const char* name,
                            bool write_behind, bool coalesce = false) {
  ::setenv("LDPLFS_WRITE_BEHIND", write_behind ? "1" : "0", 1);
  ::setenv("LDPLFS_WRITE_BUFFER", "4096", 1);
  // Off by default here: the byte-identical oracle below compares the
  // write-behind log against the synchronous engine's, and coalescing
  // legitimately drops dead overwrite bytes from the former.
  ::setenv("LDPLFS_COALESCE", coalesce ? "1" : "0", 1);
  WorkloadResult result;
  const std::string path = tmp.sub(name);
  auto fd = plfs_open(path, O_CREAT | O_RDWR, kPid);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return result;

  std::vector<char>& model = result.model;
  const auto checkpoint = [&](int op) {
    auto size = fd.value()->size();
    ASSERT_TRUE(size.ok()) << "op " << op;
    EXPECT_EQ(size.value(), model.size()) << "op " << op;
    std::vector<std::byte> buf(model.size());
    auto got = plfs_read(*fd.value(), buf, 0);
    ASSERT_TRUE(got.ok()) << "op " << op;
    ASSERT_EQ(got.value(), model.size()) << "op " << op;
    if (!model.empty()) {
      EXPECT_EQ(std::memcmp(buf.data(), model.data(), model.size()), 0)
          << "op " << op;
    }
  };

  Rng rng(0xFEEDFACEu);  // same seed for both engines → identical ops
  for (int op = 0; op < 240; ++op) {
    const std::uint64_t kind = rng.below(10);
    if (kind < 7) {
      const std::uint64_t off = rng.below(48 * 1024);
      // Mostly sub-buffer writes; every 31st is oversized (> 4 KiB buffer)
      // to exercise the drain-then-write-through dodge.
      const std::size_t len =
          1 + static_cast<std::size_t>(rng.below(op % 31 == 0 ? 6000 : 3000));
      const std::string data = random_payload(rng, len);
      auto n = fd.value()->write(as_bytes(data), off, kPid);
      EXPECT_TRUE(n.ok()) << "op " << op;
      apply_to_model(model, off, data);
    } else if (kind == 7) {
      // Truncate, mostly down but sometimes past EOF (hole at the tail).
      const std::uint64_t size = rng.below(model.size() + model.size() / 4 + 1);
      EXPECT_TRUE(fd.value()->truncate(size, kPid).ok()) << "op " << op;
      model.resize(size, '\0');
    } else if (kind == 8) {
      EXPECT_TRUE(plfs_sync(*fd.value(), kPid).ok()) << "op " << op;
    } else {
      checkpoint(op);
      if (::testing::Test::HasFatalFailure()) return result;
    }
  }
  checkpoint(-1);
  EXPECT_TRUE(plfs_close(fd.value(), kPid).ok());

  // The closed container must agree with the oracle from a cold start too.
  auto attr = plfs_getattr(path);
  EXPECT_TRUE(attr.ok());
  if (attr.ok()) EXPECT_EQ(attr.value().size, model.size());
  auto rfd = plfs_open(path, O_RDONLY, kPid + 1);
  EXPECT_TRUE(rfd.ok());
  if (rfd.ok()) {
    std::vector<std::byte> buf(model.size());
    auto got = plfs_read(*rfd.value(), buf, 0);
    EXPECT_TRUE(got.ok());
    if (got.ok() && !model.empty()) {
      EXPECT_EQ(got.value(), model.size());
      EXPECT_EQ(std::memcmp(buf.data(), model.data(), model.size()), 0);
    }
    EXPECT_TRUE(plfs_close(rfd.value(), kPid + 1).ok());
  }

  auto data_paths = find_data_droppings(path);
  EXPECT_TRUE(data_paths.ok());
  if (data_paths.ok()) {
    EXPECT_EQ(data_paths.value().size(), 1u);  // one writer, one log
    if (!data_paths.value().empty()) {
      auto bytes = posix::read_file(data_paths.value().front());
      EXPECT_TRUE(bytes.ok());
      if (bytes.ok()) result.dropping_bytes = std::move(bytes).value();
    }
  }
  auto index_paths = find_index_droppings(path);
  EXPECT_TRUE(index_paths.ok());
  if (index_paths.ok() && index_paths.value().size() == 1) {
    auto dropping = load_index_dropping(index_paths.value().front());
    EXPECT_TRUE(dropping.ok());
    if (dropping.ok()) result.records = std::move(dropping).value().records;
  }
  return result;
}

TEST_F(WriteBehindTest, RandomizedOracleBothEnginesAgree) {
  auto wb = run_workload(tmp_, "wb", /*write_behind=*/true);
  auto sync = run_workload(tmp_, "sync", /*write_behind=*/false);
  if (HasFatalFailure()) return;

  // Identical logical contents (both already matched the model, but compare
  // directly so a shared-oracle bug cannot hide a divergence).
  EXPECT_TRUE(wb.model == sync.model);

  // Byte-identical physical log: every write lands at the tail in arrival
  // order under both engines, so aggregation must not reorder or pad.
  EXPECT_EQ(wb.dropping_bytes.size(), sync.dropping_bytes.size());
  EXPECT_TRUE(wb.dropping_bytes == sync.dropping_bytes)
      << "aggregation changed the physical log layout";

  // Identical index records modulo timestamps: staging records per buffer
  // and merging them after the flush must coalesce exactly like the
  // synchronous engine's inline add_write path (flush boundaries — syncs
  // and read checkpoints — are the same in both runs).
  ASSERT_EQ(wb.records.size(), sync.records.size());
  for (std::size_t i = 0; i < wb.records.size(); ++i) {
    EXPECT_EQ(wb.records[i].logical_offset, sync.records[i].logical_offset)
        << "record " << i;
    EXPECT_EQ(wb.records[i].length, sync.records[i].length) << "record " << i;
    EXPECT_EQ(wb.records[i].physical_offset, sync.records[i].physical_offset)
        << "record " << i;
    EXPECT_EQ(wb.records[i].kind, sync.records[i].kind) << "record " << i;
  }
}

TEST_F(WriteBehindTest, RandomizedOracleCoalescingPreservesContents) {
  // Same op stream with flush-time coalescing enabled: the physical log may
  // differ (dead overwrite bytes dropped, adjacent runs merged), but every
  // in-workload checkpoint, the cold-start re-read, and the final model must
  // still agree with the uncoalesced engines — and the log must only have
  // gotten smaller.
  stats::force_enable(true);
  const auto before = stats::snapshot();
  auto coalesced = run_workload(tmp_, "wbc", /*write_behind=*/true,
                                /*coalesce=*/true);
  auto sync = run_workload(tmp_, "syncref", /*write_behind=*/false);
  if (HasFatalFailure()) return;

  EXPECT_TRUE(coalesced.model == sync.model);
  EXPECT_LE(coalesced.dropping_bytes.size(), sync.dropping_bytes.size());
  EXPECT_LE(coalesced.records.size(), sync.records.size());

  // The overwrite-heavy op mix must actually exercise the rewrite path.
  const auto delta = stats::snapshot().since(before);
  EXPECT_GT(delta.get(stats::Counter::kWbCoalesceMerged), 0u);
}

TEST_F(WriteBehindTest, ReadYourWritesWithoutSync) {
  // Default 4 MiB buffer: nothing below forces a flush, so the data lives
  // purely in the aggregation buffer until the reader's drain barrier.
  ::setenv("LDPLFS_WRITE_BEHIND", "1", 1);
  const std::string path = tmp_.sub("ryw");
  auto fd = plfs_open(path, O_CREAT | O_RDWR, kPid);
  ASSERT_TRUE(fd.ok());
  std::string expect;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string chunk(kChunk, chunk_fill(i));
    ASSERT_TRUE(fd.value()->write(as_bytes(chunk), i * kChunk, kPid).ok());
    expect += chunk;
  }

  auto size = fd.value()->size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 3 * kChunk);
  std::vector<std::byte> buf(3 * kChunk);
  auto got = plfs_read(*fd.value(), buf, 0);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value(), 3 * kChunk);
  EXPECT_EQ(std::memcmp(buf.data(), expect.data(), expect.size()), 0);

  // Truncate is a drain barrier too; the clipped view must be immediate.
  ASSERT_TRUE(fd.value()->truncate(1500, kPid).ok());
  size = fd.value()->size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 1500u);

  ASSERT_TRUE(plfs_close(fd.value(), kPid).ok());
  auto attr = plfs_getattr(path);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr.value().size, 1500u);
}

/// Plant the index and data droppings of a writer that never ran here,
/// holding one record of `data` at logical `off` stamped `stamp`.
void plant_foreign_dropping(const std::string& root, pid_t pid,
                            std::uint64_t stamp, std::uint64_t off,
                            const std::string& data) {
  ContainerLayout layout(root);
  const WriterId ghost{"ghost", pid, stamp};
  const std::string hostdir = layout.hostdir_for(ghost.host);
  ASSERT_TRUE(posix::make_dirs(hostdir).ok());
  ASSERT_TRUE(posix::write_file(layout.data_dropping_path(ghost), data).ok());
  std::string index = encode_index_header(
      {path_join(path_basename(hostdir),
                 ContainerLayout::data_dropping_name(ghost))});
  const IndexRecord rec{off, data.size(), 0, stamp, 0,
                        static_cast<std::uint32_t>(RecordKind::kData)};
  index.append(reinterpret_cast<const char*>(&rec), sizeof rec);
  ASSERT_TRUE(
      posix::write_file(layout.index_dropping_path(ghost), index).ok());
}

TEST_F(WriteBehindTest, PatchedSnapshotEqualsFullMergeAndRebuildsOnFallback) {
  // Reads through a writing handle patch its snapshot with the records its
  // writers publish. Random writes and checked reads run between events
  // that each make a patch unsound; the read after each event must rebuild
  // exactly once, every other read not at all, and every read must match
  // the byte model. Stamp order equals real-time order throughout, so the
  // model is what a full merge of the same records gives. The counts assume
  // the default validation: index cache on, shared plane off (fingerprints).
  ::setenv("LDPLFS_WRITE_BEHIND", "1", 1);
  ::setenv("LDPLFS_WRITE_BUFFER", "4096", 1);
  stats::force_enable(true);
  const std::string path = tmp_.sub("patched");
  auto fd = plfs_open(path, O_CREAT | O_RDWR, kPid);
  ASSERT_TRUE(fd.ok());
  FileHandle& handle = *fd.value();
  std::vector<char> model;
  std::vector<pid_t> pids{kPid};
  Rng rng(0xB1A5EDu);

  const auto write = [&](pid_t pid, std::uint64_t off, std::size_t len) {
    const std::string data = random_payload(rng, len);
    ASSERT_TRUE(handle.write(as_bytes(data), off, pid).ok());
    apply_to_model(model, off, data);
  };
  const auto random_write = [&] {
    const pid_t pid = pids[rng.below(pids.size())];
    write(pid, rng.below(48 * 1024),
          1 + static_cast<std::size_t>(rng.below(3000)));
  };
  const auto small_write = [&] { write(kPid, rng.below(48 * 1024), 100); };
  // One random read checked against the model, plus the merges it cost.
  const auto check_read = [&](const std::string& what,
                              std::uint64_t want_merges) {
    const auto before = stats::snapshot();
    auto size = handle.size();
    ASSERT_TRUE(size.ok()) << what;
    EXPECT_EQ(size.value(), model.size()) << what;
    const std::uint64_t off = rng.below(model.size() + 1);
    std::vector<std::byte> buf(1 + rng.below(8192));
    auto got = plfs_read(handle, buf, off);
    ASSERT_TRUE(got.ok()) << what;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf.size(), model.size() - off));
    ASSERT_EQ(got.value(), want) << what;
    EXPECT_EQ(std::memcmp(buf.data(), model.data() + off, want), 0) << what;
    EXPECT_EQ(stats::snapshot().since(before).get(
                  stats::Counter::kPlfsIndexMerges),
              want_merges)
        << what;
  };

  // Each event changes the container behind the snapshot; the caller then
  // writes through the handle (a read with nothing new to publish keeps
  // its snapshot) and expects one rebuild.
  int sibling = 0;
  const std::vector<std::pair<std::string, std::function<void()>>> events{
      {"sibling close",
       [&] {
         const pid_t pid = kPid + 100 + sibling++;
         auto other = plfs_open(path, O_RDWR, pid);
         ASSERT_TRUE(other.ok());
         const std::string data = random_payload(rng, 2000);
         const std::uint64_t off = rng.below(48 * 1024);
         ASSERT_TRUE(other.value()->write(as_bytes(data), off, pid).ok());
         apply_to_model(model, off, data);
         ASSERT_TRUE(plfs_close(other.value(), pid).ok());
       }},
      {"sibling truncate",
       [&] {
         const pid_t pid = kPid + 100 + sibling++;
         auto other = plfs_open(path, O_RDWR, pid);
         ASSERT_TRUE(other.ok());
         const std::uint64_t size = rng.below(model.size() + 1);
         ASSERT_TRUE(other.value()->truncate(size, pid).ok());
         model.resize(size, '\0');
         ASSERT_TRUE(plfs_close(other.value(), pid).ok());
       }},
      {"second pid",
       [&] {
         const pid_t pid = kPid + 1 + static_cast<pid_t>(pids.size());
         pids.push_back(pid);
         write(pid, rng.below(48 * 1024), 500);
       }},
      {"forked plfs_sync",
       [&] {
         const std::string data = random_payload(rng, 1500);
         const std::uint64_t off = rng.below(48 * 1024);
         const pid_t child = ::fork();
         if (child == 0) {
           constexpr pid_t kChildPid = 4000;
           auto cfd = plfs_open(path, O_RDWR, kChildPid);
           if (!cfd.ok()) ::_exit(1);
           if (!cfd.value()->write(as_bytes(data), off, kChildPid).ok()) {
             ::_exit(2);
           }
           ::_exit(plfs_sync(*cfd.value(), kChildPid).ok() ? 0 : 3);
         }
         ASSERT_GT(child, 0);
         int status = 0;
         ASSERT_EQ(::waitpid(child, &status, 0), child);
         ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
         apply_to_model(model, off, data);
         // fork copied the stamp counter: step past the child's stamps so
         // this process's next writes still sort after them.
         for (int i = 0; i < 64; ++i) (void)next_timestamp();
       }},
      {"own plfs_sync",
       [&] { ASSERT_TRUE(plfs_sync(handle, kPid).ok()); }},
  };

  small_write();
  check_read("first read builds the snapshot", 1);
  for (int round = 0; round < 3; ++round) {
    for (const auto& [name, event] : events) {
      for (int op = 0; op < 16; ++op) {
        if (rng.below(10) < 7) {
          random_write();
        } else {
          check_read("patched read before " + name, 0);
        }
        if (HasFatalFailure()) return;
      }
      event();
      if (HasFatalFailure()) return;
      small_write();
      check_read("read after " + name, 1);
      if (HasFatalFailure()) return;
    }

    // A foreign dropping stamped one past the handle's next write: its
    // appearance fails rule 1 (the fingerprint moved); the write stamped
    // at or below it then fails rule 2 against the rebuilt snapshot, and
    // patching resumes once the handle's stamps pass it. It sits past
    // every other write, so no overlap depends on that order.
    check_read("drain before the foreign dropping", 0);
    const std::uint64_t stamp = next_timestamp() + 2;
    const std::string ghost = random_payload(rng, 256);
    plant_foreign_dropping(path, 5000 + round, stamp, 56 * 1024, ghost);
    if (HasFatalFailure()) return;
    apply_to_model(model, 56 * 1024, ghost);
    small_write();  // stamped stamp - 1
    check_read("read after the foreign dropping appeared", 1);
    small_write();  // stamped stamp: not newer than the snapshot
    check_read("read of a write not newer than the snapshot", 1);
    small_write();
    check_read("patched read after the foreign stamp", 0);
    if (HasFatalFailure()) return;
  }
  ASSERT_TRUE(plfs_close(fd.value(), kPid).ok());

  // Cold start: a fresh full merge of what reached disk agrees too.
  auto rfd = plfs_open(path, O_RDONLY, kPid);
  ASSERT_TRUE(rfd.ok());
  std::vector<std::byte> buf(model.size());
  auto got = plfs_read(*rfd.value(), buf, 0);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value(), model.size());
  EXPECT_EQ(std::memcmp(buf.data(), model.data(), model.size()), 0);
  EXPECT_TRUE(plfs_close(rfd.value(), kPid).ok());
}

TEST_F(WriteBehindTest, PatchedReadsFollowCoalescedAppends) {
  // A sequential stream coalesces into one growing index record. Each read
  // between appends patches with that record again (its stamp grew), so
  // every read sees every byte and only the first read merges.
  stats::force_enable(true);
  for (const char* engine : {"0", "1"}) {
    ::setenv("LDPLFS_WRITE_BEHIND", engine, 1);
    ::setenv("LDPLFS_WRITE_BUFFER", "4096", 1);
    const std::string path = tmp_.sub(std::string("appends") + engine);
    auto fd = plfs_open(path, O_CREAT | O_RDWR, kPid);
    ASSERT_TRUE(fd.ok());
    std::string model;
    const auto before = stats::snapshot();
    for (std::size_t i = 0; i < 40; ++i) {
      const std::string chunk(1000, chunk_fill(i % 26));
      ASSERT_TRUE(
          fd.value()->write(as_bytes(chunk), model.size(), kPid).ok());
      model += chunk;
      std::vector<std::byte> buf(model.size());
      auto got = plfs_read(*fd.value(), buf, 0);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got.value(), model.size()) << "engine " << engine;
      ASSERT_EQ(std::memcmp(buf.data(), model.data(), model.size()), 0)
          << "engine " << engine << ", append " << i;
    }
    EXPECT_EQ(stats::snapshot().since(before).get(
                  stats::Counter::kPlfsIndexMerges),
              1u)
        << "engine " << engine;
    ASSERT_TRUE(plfs_close(fd.value(), kPid).ok());
  }
}

TEST_F(WriteBehindTest, FailedIndexLoadKeepsPublishedRecordsVisible) {
  // A read publishes its writers' records before it loads the index. When
  // that load fails, the records must not be lost: the next read, with
  // nothing new to publish, still sees them. Both loads are covered: the
  // first read's snapshot, and the rebuild after a sibling's close made
  // patching unsound.
  ::setenv("LDPLFS_WRITE_BEHIND", "1", 1);
  ::setenv("LDPLFS_WRITE_BUFFER", "4096", 1);
  const std::string path = tmp_.sub("failed_load");
  auto fd = plfs_open(path, O_CREAT | O_RDWR, kPid);
  ASSERT_TRUE(fd.ok());
  FileHandle& handle = *fd.value();
  std::vector<char> model;
  Rng rng(0xFA11u);
  const auto write = [&](FileHandle& h, pid_t pid) {
    const std::string data = random_payload(rng, 3000);
    const std::uint64_t off = rng.below(16 * 1024);
    ASSERT_TRUE(h.write(as_bytes(data), off, pid).ok());
    apply_to_model(model, off, data);
  };
  const auto read_after_failed_load = [&](const std::string& what) {
    // Every index-dropping pread fails (past the retries) until cleared.
    ASSERT_TRUE(
        posix::faults::configure("pread:errno=EIO:path=dropping.index"));
    std::vector<std::byte> buf(model.size());
    auto failed = plfs_read(handle, buf, 0);
    posix::faults::clear();
    ASSERT_FALSE(failed.ok()) << what;
    EXPECT_EQ(failed.error_code(), EIO) << what;
    auto got = plfs_read(handle, buf, 0);
    ASSERT_TRUE(got.ok()) << what;
    ASSERT_EQ(got.value(), model.size()) << what;
    EXPECT_EQ(std::memcmp(buf.data(), model.data(), model.size()), 0)
        << what;
  };

  write(handle, kPid);
  read_after_failed_load("first read");
  if (HasFatalFailure()) return;

  constexpr pid_t kSibling = kPid + 100;
  auto other = plfs_open(path, O_RDWR, kSibling);
  ASSERT_TRUE(other.ok());
  write(*other.value(), kSibling);
  ASSERT_TRUE(plfs_close(other.value(), kSibling).ok());
  write(handle, kPid);
  read_after_failed_load("rebuild after a sibling's close");
  if (HasFatalFailure()) return;
  ASSERT_TRUE(plfs_close(fd.value(), kPid).ok());
}

TEST_F(WriteBehindTest, BackgroundFlushFailurePoisonsStream) {
  ::setenv("LDPLFS_WRITE_BEHIND", "1", 1);
  ::setenv("LDPLFS_WRITE_BUFFER", "4096", 1);
  const std::string path = tmp_.sub("poison");
  auto fd = plfs_open(path, O_CREAT | O_WRONLY, kPid);
  ASSERT_TRUE(fd.ok());

  // count=1: only the background flush's pwrite fails; everything after is
  // the stream's sticky deferred error, with the ORIGINAL errno.
  ASSERT_TRUE(posix::faults::configure("pwrite:errno=ENOSPC:count=1"));
  const std::string chunk(kChunk, 'x');
  for (std::size_t i = 0; i < 5; ++i) {
    // The 5th write rotates the buffer and submits the doomed flush. The
    // writes themselves are acknowledged (write-back semantics) unless the
    // non-blocking poll already saw the failure land.
    auto n = fd.value()->write(as_bytes(chunk), i * kChunk, kPid);
    if (!n.ok()) EXPECT_EQ(n.error_code(), ENOSPC);
  }

  // sync joins the flush: the failure MUST surface here at the latest...
  EXPECT_EQ(plfs_sync(*fd.value(), kPid).error_code(), ENOSPC);
  // ...and every later operation keeps reporting the original errno.
  EXPECT_EQ(fd.value()->write(as_bytes(chunk), 5 * kChunk, kPid).error_code(),
            ENOSPC);
  EXPECT_EQ(fd.value()->truncate(0, kPid).error_code(), ENOSPC);
  EXPECT_EQ(plfs_close(fd.value(), kPid).error_code(), ENOSPC);

  // Nothing was ever indexed: the flush that failed carried the first four
  // chunks, and the fifth was dropped with the poisoned stream.
  posix::faults::clear();
  auto stats = plfs_recover(path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().logical_size, 0u);
}

TEST_F(WriteBehindTest, AcknowledgedPrefixSurvivesLaterFlushFailure) {
  ::setenv("LDPLFS_WRITE_BEHIND", "1", 1);
  ::setenv("LDPLFS_WRITE_BUFFER", "4096", 1);
  const std::string path = tmp_.sub("prefix");
  auto fd = plfs_open(path, O_CREAT | O_WRONLY, kPid);
  ASSERT_TRUE(fd.ok());

  // First flush (chunks 0-3) succeeds; second flush (chunks 4-7) hits EIO
  // on the pool thread; chunks 8-11 are still buffered when the poison
  // lands and must be dropped with it — no record past the torn tail.
  ASSERT_TRUE(posix::faults::configure("pwrite:after=1:errno=EIO"));
  for (std::size_t i = 0; i < 12; ++i) {
    const std::string chunk(kChunk, chunk_fill(i));
    auto n = fd.value()->write(as_bytes(chunk), i * kChunk, kPid);
    if (!n.ok()) EXPECT_EQ(n.error_code(), EIO);
  }
  EXPECT_EQ(plfs_sync(*fd.value(), kPid).error_code(), EIO);
  EXPECT_EQ(plfs_close(fd.value(), kPid).error_code(), EIO);

  // Only the first buffer — whose pwrite completed before the failure —
  // may be visible after recovery.
  posix::faults::clear();
  auto stats = plfs_recover(path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().logical_size, 4 * kChunk);
  auto rfd = plfs_open(path, O_RDONLY, 1);
  ASSERT_TRUE(rfd.ok());
  std::vector<std::byte> buf(4 * kChunk);
  auto got = plfs_read(*rfd.value(), buf, 0);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value(), 4 * kChunk);
  for (std::uint64_t off = 0; off < 4 * kChunk; ++off) {
    ASSERT_EQ(static_cast<char>(buf[off]), chunk_fill(off / kChunk))
        << "byte " << off;
  }
  ASSERT_TRUE(plfs_close(rfd.value(), 1).ok());
}

}  // namespace
}  // namespace ldplfs::plfs
