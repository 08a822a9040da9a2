#include "bench_harness/harness.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/md5.hpp"
#include "common/rng.hpp"
#include "core/mounts.hpp"
#include "core/router.hpp"
#include "plfs/compaction.hpp"
#include "plfs/container.hpp"
#include "plfs/index_format.hpp"
#include "plfs/plfs.hpp"
#include "plfs/read_file.hpp"
#include "plfs/recovery.hpp"
#include "posix/fd.hpp"
#include "workloads/posix_patterns.hpp"

namespace ldplfs::bench {
namespace {

using Clock = std::chrono::steady_clock;
using workloads::fill_payload;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void die(const char* scenario, const char* what) {
  std::fprintf(stderr, "ldp-bench: scenario %s: %s failed\n", scenario, what);
  std::abort();
}

/// Scenario sizes. One place, so smoke-vs-full scaling stays coherent:
/// smoke keeps every rep in the tens-of-milliseconds range (the tier-1
/// budget), full multiplies volume ~16x for real measurement runs.
struct Scale {
  int writers;
  int blocks_per_writer;
  std::size_t block_bytes;
  std::uint64_t tool_bytes;   // unix_tools content size
  int storm_files;            // metadata_storm names
  int mixed_ops;              // mixed_rw operations
  std::uint64_t mixed_bytes;  // mixed_rw base file size
};

Scale scale_for(const Workspace& ws) {
  if (ws.smoke) {
    return {4, 16, 64 * 1024, 4ull << 20, 48, 192, 2ull << 20};
  }
  return {16, 64, 64 * 1024, 64ull << 20, 512, 2048, 32ull << 20};
}

/// Write a strided N-1 pattern into a fresh container at `path`,
/// interleaving ranks block-by-block (checkpoint style), then close every
/// rank. Returns the elapsed seconds including the final drain/close.
double write_strided_container(const char* who, const std::string& path,
                               const workloads::StridedPattern& pattern) {
  std::vector<std::byte> buf(pattern.block_bytes);
  const auto start = Clock::now();
  auto fd = plfs::plfs_open(path, O_CREAT | O_WRONLY, 1);
  if (!fd) die(who, "plfs_open");
  for (int b = 0; b < pattern.blocks_per_writer; ++b) {
    for (int w = 0; w < pattern.writers; ++w) {
      const auto& op =
          pattern.per_writer[static_cast<std::size_t>(w)][static_cast<
              std::size_t>(b)];
      fill_payload({buf.data(), op.length}, op.fill_seed);
      if (!fd.value()->write({buf.data(), op.length}, op.offset,
                             1000 + w)) {
        die(who, "write");
      }
    }
  }
  for (int w = 0; w < pattern.writers; ++w) {
    if (!fd.value()->close(1000 + w).ok()) die(who, "close");
  }
  return seconds_since(start);
}

// --- n1_strided -----------------------------------------------------------

class StridedWriteScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const override { return "strided_write"; }
  [[nodiscard]] const char* family() const override { return "n1_strided"; }

  double run_once(Workspace& ws) override {
    const Scale s = scale_for(ws);
    const auto pattern = workloads::make_strided_n1(
        s.writers, s.blocks_per_writer, s.block_bytes, ws.seed);
    const std::string path =
        ws.dir + "/strided_write." + std::to_string(rep_++);
    return write_strided_container(name(), path, pattern);
  }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace& ws) const override {
    const Scale s = scale_for(ws);
    return {{"bytes_per_rep",
             static_cast<double>(workloads::make_strided_n1(
                                     s.writers, s.blocks_per_writer,
                                     s.block_bytes, ws.seed)
                                     .total_bytes())}};
  }

 private:
  int rep_ = 0;
};

class StridedReadScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const override { return "strided_read"; }
  [[nodiscard]] const char* family() const override { return "n1_strided"; }

  void setup(Workspace& ws) override {
    const Scale s = scale_for(ws);
    const auto pattern = workloads::make_strided_n1(
        s.writers, s.blocks_per_writer, s.block_bytes, ws.seed);
    path_ = ws.dir + "/strided_read";
    total_ = pattern.total_bytes();
    write_strided_container(name(), path_, pattern);
  }

  double run_once(Workspace&) override {
    std::vector<std::byte> out(total_);
    const auto start = Clock::now();
    auto rf = plfs::ReadFile::open(path_);
    if (!rf) die(name(), "ReadFile::open");
    auto n = rf.value()->read(out, 0);
    const double elapsed = seconds_since(start);
    if (!n || n.value() != total_) die(name(), "read");
    return elapsed;
  }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace&) const override {
    return {{"bytes_per_rep", static_cast<double>(total_)}};
  }

 private:
  std::string path_;
  std::uint64_t total_ = 0;
};

// --- list_io --------------------------------------------------------------

/// One rank reads back its own strided slice through the list-I/O batch
/// API: logically strided segments, physically contiguous in the rank's
/// dropping — data sieving collapses the whole batch into one covering
/// pread per dropping instead of one per block.
class StridedReadvScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const override { return "strided_readv"; }
  [[nodiscard]] const char* family() const override { return "list_io"; }

  void setup(Workspace& ws) override {
    const Scale s = scale_for(ws);
    pattern_ = workloads::make_strided_n1(s.writers, s.blocks_per_writer,
                                          s.block_bytes, ws.seed);
    path_ = ws.dir + "/strided_readv";
    write_strided_container(name(), path_, pattern_);
    slice_bytes_ = static_cast<std::uint64_t>(pattern_.blocks_per_writer) *
                   pattern_.block_bytes;
  }

  double run_once(Workspace& ws) override {
    const int reader = rep_++ % pattern_.writers;
    const auto segs = workloads::make_strided_readv(
        pattern_, reader, ws.seed + static_cast<std::uint64_t>(rep_));
    std::vector<std::byte> arena(slice_bytes_);
    std::vector<plfs::ReadSegment> batch;
    batch.reserve(segs.size());
    std::size_t used = 0;
    for (const auto& seg : segs) {
      batch.push_back({seg.offset, {arena.data() + used, seg.length}});
      used += seg.length;
    }
    const auto start = Clock::now();
    auto fd = plfs::plfs_open(path_, O_RDONLY, 1);
    if (!fd) die(name(), "plfs_open");
    auto n = fd.value()->readx(batch);
    const double elapsed = seconds_since(start);
    if (!n || n.value() != slice_bytes_) die(name(), "readx");
    if (!plfs::plfs_close(fd.value(), 1).ok()) die(name(), "close");
    return elapsed;
  }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace&) const override {
    return {{"bytes_per_rep", static_cast<double>(slice_bytes_)}};
  }

 private:
  workloads::StridedPattern pattern_;
  std::string path_;
  std::uint64_t slice_bytes_ = 0;
  int rep_ = 0;
};

/// Randomly permuted small writes through the list-I/O batch API with the
/// write-behind engine: scattered at issue time, densely covering the
/// file, so flush-boundary extent coalescing relays each aggregation
/// window into contiguous runs — one pwrite region and one index record
/// per run instead of one per 4 KiB write.
class CoalescedWriteScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const override {
    return "coalesced_write";
  }
  [[nodiscard]] const char* family() const override { return "list_io"; }

  void setup(Workspace&) override {
    // The engines under test; latched per stream at the first write, so
    // set for the scenario's whole lifetime (defaults are on — this pins
    // the measurement against ambient overrides).
    ::setenv("LDPLFS_WRITE_BEHIND", "1", 1);
    ::setenv("LDPLFS_COALESCE", "1", 1);
  }

  void teardown(Workspace&) override {
    ::unsetenv("LDPLFS_WRITE_BEHIND");
    ::unsetenv("LDPLFS_COALESCE");
  }

  double run_once(Workspace& ws) override {
    const Scale s = scale_for(ws);
    const int nblocks = s.writers * s.blocks_per_writer *
                        static_cast<int>(s.block_bytes / kWriteBlock);
    const auto ops = workloads::make_permuted_writes(
        nblocks, kWriteBlock, ws.seed + static_cast<std::uint64_t>(rep_));
    // Untimed: materialise every payload into one arena so the timed
    // section measures the engine, not the generator.
    std::vector<std::byte> arena(static_cast<std::size_t>(nblocks) *
                                 kWriteBlock);
    std::vector<plfs::WriteSegment> batch;
    batch.reserve(ops.size());
    std::size_t used = 0;
    for (const auto& op : ops) {
      fill_payload({arena.data() + used, op.length}, op.fill_seed);
      batch.push_back({op.offset, {arena.data() + used, op.length}});
      used += op.length;
    }
    const std::string path =
        ws.dir + "/coalesced." + std::to_string(rep_++);
    const auto start = Clock::now();
    auto fd = plfs::plfs_open(path, O_CREAT | O_WRONLY, 1);
    if (!fd) die(name(), "plfs_open");
    auto n = fd.value()->writex(batch, 1);
    if (!n || n.value() != arena.size()) die(name(), "writex");
    if (!plfs::plfs_close(fd.value(), 1).ok()) die(name(), "close");
    return seconds_since(start);
  }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace& ws) const override {
    const Scale s = scale_for(ws);
    return {{"bytes_per_rep",
             static_cast<double>(s.writers) *
                 static_cast<double>(s.blocks_per_writer) *
                 static_cast<double>(s.block_bytes)}};
  }

 private:
  static constexpr std::size_t kWriteBlock = 4096;
  int rep_ = 0;
};

// --- flat_read (zero-copy mapped reads) -----------------------------------

/// Shared scaffolding for the mapped-read measurements: a strided N-1
/// container flattened by compaction in setup, with LDPLFS_MMAP_READS
/// pinned on for the scenario's lifetime (checked per open, same
/// setenv-in-setup pattern as coalesced_write). Reads are served by memcpy
/// from the registry's mapping of the single dropping — zero preads. An
/// ambient LDPLFS_MMAP_FORCE_FALLBACK=1 fails every acquire and drops the
/// same reps onto the pread/sieve path: that one knob yields both the
/// mapped-vs-pread --compare and the gate's detectable fallback storm.
class FlatReadScenario : public Scenario {
 public:
  [[nodiscard]] const char* family() const override { return "flat_read"; }

  void setup(Workspace& ws) override {
    const Scale s = scale_for(ws);
    pattern_ = workloads::make_strided_n1(s.writers, s.blocks_per_writer,
                                          s.block_bytes, ws.seed);
    path_ = ws.dir + "/" + std::string(name());
    total_ = pattern_.total_bytes();
    write_strided_container(name(), path_, pattern_);
    if (!plfs::plfs_compact(path_)) die(name(), "plfs_compact");
    ::setenv("LDPLFS_MMAP_READS", "1", 1);
  }

  void teardown(Workspace&) override { ::unsetenv("LDPLFS_MMAP_READS"); }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace&) const override {
    return {{"bytes_per_rep", static_cast<double>(bytes_per_rep_)}};
  }

 protected:
  workloads::StridedPattern pattern_;
  std::string path_;
  std::uint64_t total_ = 0;
  std::uint64_t bytes_per_rep_ = 0;
};

class FlatSeqReadScenario final : public FlatReadScenario {
 public:
  [[nodiscard]] const char* name() const override { return "flat_seq_read"; }

  void setup(Workspace& ws) override {
    FlatReadScenario::setup(ws);
    bytes_per_rep_ = total_;
  }

  double run_once(Workspace&) override {
    std::vector<std::byte> out(total_);
    const auto start = Clock::now();
    auto rf = plfs::ReadFile::open(path_);
    if (!rf) die(name(), "ReadFile::open");
    auto n = rf.value()->read(out, 0);
    const double elapsed = seconds_since(start);
    if (!n || n.value() != total_) die(name(), "read");
    return elapsed;
  }
};

class FlatStridedReadScenario final : public FlatReadScenario {
 public:
  [[nodiscard]] const char* name() const override {
    return "flat_strided_read";
  }

  void setup(Workspace& ws) override {
    FlatReadScenario::setup(ws);
    bytes_per_rep_ = static_cast<std::uint64_t>(pattern_.blocks_per_writer) *
                     pattern_.block_bytes;
  }

  double run_once(Workspace& ws) override {
    const int reader = rep_++ % pattern_.writers;
    const auto segs = workloads::make_strided_readv(
        pattern_, reader, ws.seed + static_cast<std::uint64_t>(rep_));
    std::vector<std::byte> arena(bytes_per_rep_);
    std::vector<plfs::ReadSegment> batch;
    batch.reserve(segs.size());
    std::size_t used = 0;
    for (const auto& seg : segs) {
      batch.push_back({seg.offset, {arena.data() + used, seg.length}});
      used += seg.length;
    }
    const auto start = Clock::now();
    auto fd = plfs::plfs_open(path_, O_RDONLY, 1);
    if (!fd) die(name(), "plfs_open");
    auto n = fd.value()->readx(batch);
    const double elapsed = seconds_since(start);
    if (!n || n.value() != bytes_per_rep_) die(name(), "readx");
    if (!plfs::plfs_close(fd.value(), 1).ok()) die(name(), "close");
    return elapsed;
  }

 private:
  int rep_ = 0;
};

// --- nn_per_process -------------------------------------------------------

class NnWriteScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const override { return "nn_write"; }
  [[nodiscard]] const char* family() const override {
    return "nn_per_process";
  }

  double run_once(Workspace& ws) override {
    const Scale s = scale_for(ws);
    std::vector<std::byte> buf(s.block_bytes);
    Rng rng(ws.seed);
    const auto start = Clock::now();
    for (int p = 0; p < s.writers; ++p) {
      const std::string path = ws.dir + "/nn." + std::to_string(rep_) + "." +
                               std::to_string(p);
      auto fd = plfs::plfs_open(path, O_CREAT | O_WRONLY, 1);
      if (!fd) die(name(), "plfs_open");
      for (int b = 0; b < s.blocks_per_writer; ++b) {
        fill_payload(buf, rng.next());
        if (!fd.value()->write(buf,
                               static_cast<std::uint64_t>(b) * s.block_bytes,
                               1)) {
          die(name(), "write");
        }
      }
      if (!plfs::plfs_close(fd.value(), 1).ok()) die(name(), "close");
    }
    ++rep_;
    return seconds_since(start);
  }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace& ws) const override {
    const Scale s = scale_for(ws);
    return {{"bytes_per_rep", static_cast<double>(s.writers) *
                                  static_cast<double>(s.blocks_per_writer) *
                                  static_cast<double>(s.block_bytes)}};
  }

 private:
  int rep_ = 0;
};

// --- metadata_storm -------------------------------------------------------

class MetadataStormScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const override { return "metadata_storm"; }
  [[nodiscard]] const char* family() const override {
    return "metadata_storm";
  }

  double run_once(Workspace& ws) override {
    const Scale s = scale_for(ws);
    const auto names = workloads::make_storm_names(s.storm_files, ws.seed);
    const auto start = Clock::now();
    for (const auto& n : names) {
      auto fd = plfs::plfs_open(ws.dir + "/" + n, O_CREAT | O_WRONLY, 1);
      if (!fd) die(name(), "create");
      if (!plfs::plfs_close(fd.value(), 1).ok()) die(name(), "close");
    }
    for (const auto& n : names) {
      if (!plfs::plfs_getattr(ws.dir + "/" + n)) die(name(), "stat");
    }
    for (const auto& n : names) {
      if (!plfs::plfs_unlink(ws.dir + "/" + n).ok()) die(name(), "unlink");
    }
    return seconds_since(start);
  }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace& ws) const override {
    // create + stat + unlink per name
    return {{"ops_per_rep", 3.0 * scale_for(ws).storm_files}};
  }
};

// --- mixed_rw -------------------------------------------------------------

class MixedRwScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const override { return "mixed_rw"; }
  [[nodiscard]] const char* family() const override { return "mixed_rw"; }

  double run_once(Workspace& ws) override {
    const Scale s = scale_for(ws);
    const std::string path = ws.dir + "/mixed." + std::to_string(rep_++);
    // Untimed: populate the base file (sequential seeded content) and keep
    // its image, which every read of the stream is checked against.
    std::vector<std::byte> image(s.mixed_bytes);
    {
      auto fd = plfs::plfs_open(path, O_CREAT | O_WRONLY, 1);
      if (!fd) die(name(), "plfs_open(base)");
      std::uint64_t off = 0;
      Rng rng(ws.seed ^ 0x6d69786564ULL);  // "mixed"
      while (off < s.mixed_bytes) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(1u << 20, s.mixed_bytes - off));
        const std::span<std::byte> block(image.data() + off, n);
        fill_payload(block, rng.next());
        if (!fd.value()->write(block, off, 1)) die(name(), "write(base)");
        off += n;
      }
      if (!plfs::plfs_close(fd.value(), 1).ok()) die(name(), "close(base)");
    }
    const auto stream = workloads::make_mixed_rw(
        s.mixed_bytes, s.mixed_ops, 64 * 1024, 0.5, ws.seed);
    std::vector<std::byte> buf(64 * 1024);
    Clock::duration checking{};  // kept out of the timed result
    const auto start = Clock::now();
    auto fd = plfs::plfs_open(path, O_RDWR, 1);
    if (!fd) die(name(), "plfs_open(rw)");
    for (const auto& op : stream) {
      std::byte* const at = image.data() + op.offset;
      if (op.is_read) {
        auto n = fd.value()->read({buf.data(), op.length}, op.offset);
        if (!n) die(name(), "read");
        const auto check = Clock::now();
        if (n.value() != op.length ||
            std::memcmp(buf.data(), at, op.length) != 0) {
          die(name(), "read check");
        }
        checking += Clock::now() - check;
      } else {
        fill_payload({buf.data(), op.length}, op.fill_seed);
        if (!fd.value()->write({buf.data(), op.length}, op.offset, 1)) {
          die(name(), "write");
        }
        const auto check = Clock::now();
        std::memcpy(at, buf.data(), op.length);
        checking += Clock::now() - check;
      }
    }
    if (!plfs::plfs_close(fd.value(), 1).ok()) die(name(), "close");
    return seconds_since(start) -
           std::chrono::duration<double>(checking).count();
  }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace& ws) const override {
    return {{"ops_per_rep", static_cast<double>(scale_for(ws).mixed_ops)}};
  }

 private:
  int rep_ = 0;
};

// --- unix_tools (Table II) ------------------------------------------------

/// grep -c NEEDLE over a stream fed in arbitrary chunks: counts the
/// newline-terminated lines that contain NEEDLE.
class NeedleCounter {
 public:
  void feed(std::string_view chunk) {
    std::size_t pos = 0;
    while (true) {
      const std::size_t nl = chunk.find('\n', pos);
      if (nl == std::string_view::npos) {
        carry_.append(chunk.substr(pos));
        return;
      }
      if (!carry_.empty()) {
        // A line spanning a chunk boundary.
        carry_.append(chunk.substr(pos, nl - pos));
        if (carry_.find("NEEDLE") != std::string::npos) ++hits_;
        carry_.clear();
      } else if (chunk.substr(pos, nl - pos).find("NEEDLE") !=
                 std::string_view::npos) {
        ++hits_;
      }
      pos = nl + 1;
    }
  }
  [[nodiscard]] long long hits() const { return hits_; }

 private:
  long long hits_ = 0;
  std::string carry_;
};

/// Shared scaffolding: a router whose mount table covers ws.dir/mnt, a
/// text container at mnt/data (NEEDLE lines every ~512), and a flat
/// destination area outside the mount. Setup also records the content's
/// NEEDLE line count and MD5, which the tools' results must match.
class UnixToolScenario : public Scenario {
 public:
  [[nodiscard]] const char* family() const override { return "unix_tools"; }

  void setup(Workspace& ws) override {
    mnt_ = ws.dir + "/mnt";
    flat_ = ws.dir + "/flat";
    if (!posix::make_dirs(mnt_).ok() || !posix::make_dirs(flat_).ok()) {
      die(name(), "mkdir");
    }
    mounts_.add(mnt_);
    router_ = std::make_unique<core::Router>(core::libc_calls(), mounts_);
    src_ = mnt_ + "/data";
    bytes_ = scale_for(ws).tool_bytes;

    const int fd = router_->open(src_.c_str(),
                                 O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) die(name(), "open(src)");
    Rng rng(ws.seed);
    std::vector<char> block(1u << 20);
    NeedleCounter needles;
    Md5 hasher;
    std::uint64_t written = 0;
    while (written < bytes_) {
      for (std::size_t i = 0; i < block.size(); i += 64) {
        std::snprintf(block.data() + i, 64,
                      "line %12llu payload %016llx pattern %s",
                      static_cast<unsigned long long>(written + i),
                      static_cast<unsigned long long>(rng.next()),
                      (rng.below(512) == 0) ? "NEEDLE" : "hay");
        block[i + 63] = '\n';
      }
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(block.size(), bytes_ - written));
      if (router_->write(fd, block.data(), n) != static_cast<ssize_t>(n)) {
        die(name(), "write(src)");
      }
      needles.feed({block.data(), n});
      hasher.update(block.data(), n);
      written += n;
    }
    if (router_->close(fd) != 0) die(name(), "close(src)");
    expected_hits_ = needles.hits();
    expected_md5_ = Md5::to_hex(hasher.finish());
  }

  void teardown(Workspace&) override { router_.reset(); }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace&) const override {
    return {{"bytes_per_rep", static_cast<double>(bytes_)}};
  }

 protected:
  core::MountTable mounts_;
  std::unique_ptr<core::Router> router_;
  std::string mnt_;
  std::string flat_;
  std::string src_;
  std::uint64_t bytes_ = 0;
  long long expected_hits_ = 0;
  std::string expected_md5_;
};

class UnixCpScenario final : public UnixToolScenario {
 public:
  [[nodiscard]] const char* name() const override { return "unix_cp"; }

  double run_once(Workspace&) override {
    const std::string dst = flat_ + "/copy." + std::to_string(rep_++);
    std::vector<char> buf(1u << 20);
    const auto start = Clock::now();
    const int in = router_->open(src_.c_str(), O_RDONLY, 0);
    const int out =
        router_->open(dst.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (in < 0 || out < 0) die(name(), "open");
    ssize_t n;
    while ((n = router_->read(in, buf.data(), buf.size())) > 0) {
      if (router_->write(out, buf.data(), static_cast<std::size_t>(n)) != n) {
        die(name(), "write");
      }
    }
    if (n < 0) die(name(), "read");
    router_->close(in);
    if (router_->close(out) != 0) die(name(), "close");
    return seconds_since(start);
  }

 private:
  int rep_ = 0;
};

class UnixGrepScenario final : public UnixToolScenario {
 public:
  [[nodiscard]] const char* name() const override { return "unix_grep"; }

  double run_once(Workspace&) override {
    std::vector<char> buf(1u << 20);
    const auto start = Clock::now();
    const int fd = router_->open(src_.c_str(), O_RDONLY, 0);
    if (fd < 0) die(name(), "open");
    NeedleCounter needles;
    ssize_t n;
    while ((n = router_->read(fd, buf.data(), buf.size())) > 0) {
      needles.feed({buf.data(), static_cast<std::size_t>(n)});
    }
    if (n < 0) die(name(), "read");
    router_->close(fd);
    const double elapsed = seconds_since(start);
    if (needles.hits() != expected_hits_) die(name(), "hit count check");
    return elapsed;
  }
};

class UnixMd5Scenario final : public UnixToolScenario {
 public:
  [[nodiscard]] const char* name() const override { return "unix_md5sum"; }

  double run_once(Workspace&) override {
    std::vector<char> buf(1u << 20);
    const auto start = Clock::now();
    const int fd = router_->open(src_.c_str(), O_RDONLY, 0);
    if (fd < 0) die(name(), "open");
    Md5 hasher;
    ssize_t n;
    while ((n = router_->read(fd, buf.data(), buf.size())) > 0) {
      hasher.update(buf.data(), static_cast<std::size_t>(n));
    }
    if (n < 0) die(name(), "read");
    router_->close(fd);
    const std::string digest = Md5::to_hex(hasher.finish());
    const double elapsed = seconds_since(start);
    if (digest != expected_md5_) die(name(), "digest check");
    return elapsed;
  }
};

// --- crash_recovery -------------------------------------------------------

class CrashRecoveryScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const override { return "crash_recovery"; }
  [[nodiscard]] const char* family() const override {
    return "crash_recovery";
  }

  double run_once(Workspace& ws) override {
    const Scale s = scale_for(ws);
    const std::string path = ws.dir + "/crash." + std::to_string(rep_++);
    // Untimed: a healthy container, then the debris a killed writer
    // leaves — an unindexed data dropping, a torn index tail, and a stale
    // openhosts registration (same planting as the recovery tests).
    const auto pattern = workloads::make_strided_n1(
        s.writers, s.blocks_per_writer / 2, s.block_bytes, ws.seed);
    write_strided_container(name(), path, pattern);
    plant_debris(path);
    const auto start = Clock::now();
    auto stats = plfs::plfs_recover(path);
    const double elapsed = seconds_since(start);
    if (!stats || !stats.value().index_readable) die(name(), "plfs_recover");
    if (stats.value().stale_openhosts_removed == 0) {
      die(name(), "debris check");
    }
    return elapsed;
  }

 private:
  void plant_debris(const std::string& path) {
    plfs::ContainerLayout layout(path);
    plfs::WriterId ghost{"benchghost", 4242, plfs::next_timestamp()};
    if (!posix::make_dirs(layout.hostdir_for(ghost.host)).ok()) {
      die(name(), "mkdir(debris)");
    }
    if (!posix::write_file(layout.data_dropping_path(ghost),
                           "never-indexed bytes")
             .ok()) {
      die(name(), "write(orphan)");
    }
    std::string idx = plfs::encode_index_header(
        {"hostdir.0/dropping.data.benchghost"});
    idx.append(23, '\x5a');  // torn record tail
    if (!posix::write_file(layout.index_dropping_path(ghost), idx).ok()) {
      die(name(), "write(torn index)");
    }
    if (!posix::write_file(layout.openhost_path(ghost), "").ok()) {
      die(name(), "write(openhost)");
    }
  }

  int rep_ = 0;
};

// --- multiproc ------------------------------------------------------------
// Cross-process coherence costs — the shared metadata plane's measurement
// surface. Both scenarios fork real child processes, so the ambient
// environment decides the regime: with LDPLFS_SHM set the children share
// one generation table and a warm cache revalidates with one atomic load
// instead of the per-open fingerprint stat storm; with LDPLFS_FAST_CREATE
// the create storm elides the per-file container scaffolding. Run the suite
// once bare and once with the knobs set, then `ldp-bench --compare`.

/// Reap every pid, die()ing unless each exited 0.
void reap_children(const char* who, const std::vector<pid_t>& pids) {
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) die(who, "waitpid");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) die(who, "child");
  }
}

/// N forked readers re-open one multi-writer container over and over. The
/// parent warms its IndexCache in setup, each child starts from a COW copy
/// of it, so every open measures pure revalidation work: list hostdirs +
/// stat every index dropping (baseline) vs one generation load (LDPLFS_SHM).
class MpSharedReopenScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const override {
    return "mp_shared_reopen";
  }
  [[nodiscard]] const char* family() const override { return "multiproc"; }

  void setup(Workspace& ws) override {
    const Scale s = scale_for(ws);
    block_bytes_ = s.block_bytes;
    path_ = ws.dir + "/shared";
    const auto pattern = workloads::make_strided_n1(
        s.writers, s.blocks_per_writer, s.block_bytes, ws.seed);
    write_strided_container(name(), path_, pattern);
    // Warm the parent's cache so forked children inherit a populated entry.
    auto fd = plfs::plfs_open(path_, O_RDONLY, 1);
    if (!fd) die(name(), "plfs_open(warm)");
    std::vector<std::byte> probe(64);
    if (!fd.value()->read(probe, 0)) die(name(), "read(warm)");
    if (!plfs::plfs_close(fd.value(), 1).ok()) die(name(), "close(warm)");
  }

  double run_once(Workspace& ws) override {
    const int kids = children(ws);
    const int opens = opens_per_child(ws);
    const auto start = Clock::now();
    std::vector<pid_t> pids;
    for (int c = 0; c < kids; ++c) {
      const pid_t pid = ::fork();
      if (pid == 0) run_reader(c, opens);
      if (pid < 0) die(name(), "fork");
      pids.push_back(pid);
    }
    reap_children(name(), pids);
    return seconds_since(start);
  }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace& ws) const override {
    return {{"opens_per_rep",
             static_cast<double>(children(ws)) * opens_per_child(ws)}};
  }

 private:
  static int children(const Workspace& ws) { return ws.smoke ? 2 : 4; }
  static int opens_per_child(const Workspace& ws) {
    return ws.smoke ? 24 : 128;
  }

  [[noreturn]] void run_reader(int child, int opens) {
    std::vector<std::byte> buf(block_bytes_);
    for (int i = 0; i < opens; ++i) {
      auto fd = plfs::plfs_open(path_, O_RDONLY, 1);
      if (!fd) ::_exit(10);
      const std::uint64_t offset =
          static_cast<std::uint64_t>((child + i) % 4) * block_bytes_;
      if (!fd.value()->read(buf, offset)) ::_exit(11);
      if (!plfs::plfs_close(fd.value(), 1).ok()) ::_exit(12);
    }
    ::_exit(0);
  }

  std::string path_;
  std::size_t block_bytes_ = 0;
};

/// mdtest-style create storm split across forked children, each creating
/// its own batch of files in a per-rep directory. Measures container
/// create cost end to end; LDPLFS_FAST_CREATE collapses the per-file
/// scaffolding to mkdir + one marker write.
class MpCreateStormScenario final : public Scenario {
 public:
  [[nodiscard]] const char* name() const override { return "mp_create_storm"; }
  [[nodiscard]] const char* family() const override { return "multiproc"; }

  double run_once(Workspace& ws) override {
    const Scale s = scale_for(ws);
    const int kids = ws.smoke ? 2 : 4;
    const int files = s.storm_files / kids;
    // Per-rep unique directory: creates must be creates, never re-opens.
    const std::string dir = ws.dir + "/storm." + std::to_string(rep_++);
    if (!posix::make_dir(dir).ok()) die(name(), "mkdir(rep)");
    const auto start = Clock::now();
    std::vector<pid_t> pids;
    for (int c = 0; c < kids; ++c) {
      const pid_t pid = ::fork();
      if (pid == 0) run_creator(dir, c, files);
      if (pid < 0) die(name(), "fork");
      pids.push_back(pid);
    }
    reap_children(name(), pids);
    return seconds_since(start);
  }

  [[nodiscard]] std::map<std::string, double> extras(
      const Workspace& ws) const override {
    const Scale s = scale_for(ws);
    const int kids = ws.smoke ? 2 : 4;
    return {{"creates_per_rep", static_cast<double>(kids * (s.storm_files /
                                                            kids))}};
  }

 private:
  [[noreturn]] static void run_creator(const std::string& dir, int child,
                                       int files) {
    for (int i = 0; i < files; ++i) {
      const std::string path = dir + "/f." + std::to_string(child) + "." +
                               std::to_string(i);
      auto fd = plfs::plfs_open(path, O_CREAT | O_WRONLY, 1);
      if (!fd) ::_exit(10);
      if (!plfs::plfs_close(fd.value(), 1).ok()) ::_exit(11);
    }
    ::_exit(0);
  }

  int rep_ = 0;
};

}  // namespace

std::vector<std::unique_ptr<Scenario>> make_suite() {
  std::vector<std::unique_ptr<Scenario>> suite;
  suite.push_back(std::make_unique<UnixCpScenario>());
  suite.push_back(std::make_unique<UnixGrepScenario>());
  suite.push_back(std::make_unique<UnixMd5Scenario>());
  suite.push_back(std::make_unique<StridedWriteScenario>());
  suite.push_back(std::make_unique<StridedReadScenario>());
  suite.push_back(std::make_unique<StridedReadvScenario>());
  suite.push_back(std::make_unique<CoalescedWriteScenario>());
  suite.push_back(std::make_unique<FlatSeqReadScenario>());
  suite.push_back(std::make_unique<FlatStridedReadScenario>());
  suite.push_back(std::make_unique<NnWriteScenario>());
  suite.push_back(std::make_unique<MetadataStormScenario>());
  suite.push_back(std::make_unique<MixedRwScenario>());
  suite.push_back(std::make_unique<CrashRecoveryScenario>());
  suite.push_back(std::make_unique<MpSharedReopenScenario>());
  suite.push_back(std::make_unique<MpCreateStormScenario>());
  return suite;
}

}  // namespace ldplfs::bench
