#include "plfs/read_file.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>

#include "common/paths.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "plfs/fd_cache.hpp"
#include "plfs/index_cache.hpp"
#include "plfs/mapped_container.hpp"
#include "plfs/shared_meta.hpp"
#include "posix/fd.hpp"

namespace ldplfs::plfs {

namespace {

constexpr std::size_t kDefaultSieveMaxHole = std::size_t{64} << 10;
constexpr std::size_t kMaxSieveMaxHole = std::size_t{16} << 20;
constexpr std::size_t kDefaultSieveBuffer = std::size_t{4} << 20;
constexpr std::size_t kMinSieveBuffer = std::size_t{64} << 10;
constexpr std::size_t kMaxSieveBuffer = std::size_t{256} << 20;

}  // namespace

bool ReadFile::env_sieve() {
  const char* env = std::getenv("LDPLFS_SIEVE");
  return env == nullptr || std::string(env) != "0";
}

std::size_t ReadFile::env_sieve_max_hole() {
  const char* env = std::getenv("LDPLFS_SIEVE_MAX_HOLE");
  if (env == nullptr || *env == '\0') return kDefaultSieveMaxHole;
  const std::uint64_t parsed = parse_bytes(env);
  if (parsed == 0) return kDefaultSieveMaxHole;  // malformed: stay safe
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(parsed, kMaxSieveMaxHole));
}

std::size_t ReadFile::env_sieve_buffer() {
  const char* env = std::getenv("LDPLFS_SIEVE_BUFFER");
  if (env == nullptr || *env == '\0') return kDefaultSieveBuffer;
  const std::uint64_t parsed = parse_bytes(env);
  if (parsed == 0) return kDefaultSieveBuffer;  // malformed: stay safe
  return static_cast<std::size_t>(
      std::clamp<std::uint64_t>(parsed, kMinSieveBuffer, kMaxSieveBuffer));
}

ReadFile::ReadFile(std::string root, std::shared_ptr<const GlobalIndex> index)
    : root_(std::move(root)),
      base_(std::move(index)),
      index_(base_),
      threads_(ThreadPool::env_threads()),
      sieve_(env_sieve()),
      sieve_max_hole_(env_sieve_max_hole()),
      sieve_buffer_(env_sieve_buffer()) {
  // Mapped reads bypass the per-read revalidation preads get for free, so
  // keep them off while another process holds the container open for write
  // (registered in the shared plane) — this snapshot would read the live
  // dropping's pages instead of the index's view of them.
  if (MappedContainerRegistry::reads_enabled() &&
      !shmeta::has_foreign_writers(root_)) {
    mapped_dropping_ = single_dropping_of(*index_);
  }
}

Result<std::unique_ptr<ReadFile>> ReadFile::open(const std::string& root) {
  auto index = IndexCache::shared().get(root);
  if (!index) return index.error();
  return std::unique_ptr<ReadFile>(
      new ReadFile(root, std::move(index).value()));
}

std::unique_ptr<ReadFile> ReadFile::with_index(std::string root,
                                               GlobalIndex index) {
  return std::unique_ptr<ReadFile>(new ReadFile(
      std::move(root),
      std::make_shared<const GlobalIndex>(std::move(index))));
}

void ReadFile::patch(std::span<const WriterRecords> batches) {
  if (batches.empty()) return;
  if (!patched_) {
    patched_ = std::make_shared<GlobalIndex>(*base_);
    index_ = patched_;
    mapped_dropping_.reset();
  }
  patched_->patch(batches);
}

bool ReadFile::try_mapped_read(const std::vector<PieceRef>& refs) {
  auto region = MappedContainerRegistry::shared().acquire(
      path_join(root_, index_->data_paths()[*mapped_dropping_]));
  if (!region) return false;
  const MappedRegion& map = region.value();
  // All-or-nothing: a piece past the mapping (index ahead of data, torn
  // tail) sends the whole batch down the pread path rather than mixing.
  for (const auto& ref : refs) {
    if (ref.piece.physical + ref.piece.length > map.size()) return false;
  }
  std::uint64_t bytes = 0;
  for (const auto& ref : refs) {
    std::memcpy(ref.dst, map.data() + ref.piece.physical, ref.piece.length);
    bytes += ref.piece.length;
  }
  stats::add(stats::Counter::kMmapReads);
  stats::add(stats::Counter::kMmapBytes, bytes);
  return true;
}

int ReadFile::read_dropping(std::uint32_t dropping,
                            const std::vector<PieceRef>& refs,
                            std::size_t* failing_seq) {
  // Zero-copy fast path: a flattened container's one dropping is served
  // straight from the page cache, no preads at all.
  if (mapped_dropping_ && dropping == *mapped_dropping_) {
    if (try_mapped_read(refs)) return 0;
    stats::add(stats::Counter::kMmapFallbacks);
  }

  auto fd = DroppingFdCache::shared().acquire(
      path_join(root_, index_->data_paths()[dropping]));
  if (!fd) {
    *failing_seq = refs.front().seq;
    return fd.error_code();
  }

  std::vector<std::byte> scratch;  // reused across sieve runs
  std::size_t i = 0;
  while (i < refs.size()) {
    // Grow the run while the next piece is close enough that one covering
    // pread beats separate calls: physical gap bounded by the max-hole
    // knob, covering span bounded by the sieve buffer.
    std::size_t j = i;
    const std::uint64_t base = refs[i].piece.physical;
    std::uint64_t end = base + refs[i].piece.length;
    if (sieve_) {
      while (j + 1 < refs.size()) {
        const auto& next = refs[j + 1].piece;
        const std::uint64_t gap = next.physical > end ? next.physical - end : 0;
        const std::uint64_t reach = std::max(end, next.physical + next.length);
        if (gap > sieve_max_hole_ || reach - base > sieve_buffer_) break;
        end = reach;
        ++j;
      }
    }

    if (j == i) {
      // Singleton run: pread straight into the destination, no extra copy.
      const auto& ref = refs[i];
      stats::add(stats::Counter::kSieveDirectReads);
      auto s = posix::pread_all(
          fd.value().get(), std::span<std::byte>(ref.dst, ref.piece.length),
          static_cast<off_t>(ref.piece.physical));
      if (!s) {
        *failing_seq = ref.seq;
        return s.error_code();
      }
    } else {
      // Sieved run: one covering pread, scatter in memory. The covering
      // range may include bytes no piece asked for (physical holes between
      // pieces); they are read and dropped — that is the sieving trade.
      const std::size_t span = static_cast<std::size_t>(end - base);
      scratch.resize(span);
      auto s = posix::pread_all(fd.value().get(),
                                std::span<std::byte>(scratch.data(), span),
                                static_cast<off_t>(base));
      if (!s) {
        std::size_t seq = refs[i].seq;
        for (std::size_t k = i + 1; k <= j; ++k) {
          seq = std::min(seq, refs[k].seq);
        }
        *failing_seq = seq;
        return s.error_code();
      }
      std::uint64_t delivered = 0;
      for (std::size_t k = i; k <= j; ++k) {
        const auto& ref = refs[k];
        std::memcpy(ref.dst, scratch.data() + (ref.piece.physical - base),
                    ref.piece.length);
        delivered += ref.piece.length;
      }
      stats::add(stats::Counter::kSieveReads);
      stats::add(stats::Counter::kSieveBytesRead, span);
      stats::add(stats::Counter::kSieveBytesDelivered, delivered);
      stats::add(stats::Counter::kSieveHoleBytes, span - delivered);
    }
    i = j + 1;
  }
  return 0;
}

Result<std::size_t> ReadFile::read(std::span<std::byte> out,
                                   std::uint64_t offset) {
  const ReadSegment seg{offset, out};
  return read_batch(std::span<const ReadSegment>(&seg, 1));
}

Result<std::size_t> ReadFile::read_batch(std::span<const ReadSegment> segs) {
  const std::uint64_t file_size = index_->size();

  // Resolve every segment against the snapshot up front. Holes are pure
  // memset; only data pieces queue for I/O. A segment past EOF (or one that
  // EOF cuts short) ends the batch: POSIX readv semantics, the cumulative
  // count covers everything delivered up to that point.
  std::size_t total = 0;
  std::vector<PieceRef> refs;
  for (const auto& seg : segs) {
    if (seg.buf.empty()) continue;
    if (seg.offset >= file_size) break;
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(seg.buf.size(), file_size - seg.offset));
    const auto pieces = index_->lookup(seg.offset, want);
    for (const auto& piece : pieces) {
      std::byte* dst = seg.buf.data() + (piece.logical - seg.offset);
      if (piece.hole) {
        std::memset(dst, 0, piece.length);
      } else {
        refs.push_back(PieceRef{piece, dst, refs.size()});
      }
    }
    total += want;
    if (want < seg.buf.size()) break;  // EOF inside this segment
  }
  if (refs.empty()) return total;

  // Batching by dropping keeps each worker's preads on one descriptor,
  // which is both the unit of parallelism a strided N-1 container exposes
  // and the unit data sieving coalesces within. Physical order inside a
  // dropping is what makes runs contiguous.
  std::map<std::uint32_t, std::vector<PieceRef>> batches;
  for (const auto& ref : refs) batches[ref.piece.dropping].push_back(ref);
  for (auto& [dropping, batch] : batches) {
    std::sort(batch.begin(), batch.end(),
              [](const PieceRef& a, const PieceRef& b) {
                if (a.piece.physical != b.piece.physical) {
                  return a.piece.physical < b.piece.physical;
                }
                return a.seq < b.seq;
              });
  }

  struct BatchOutcome {
    int err = 0;
    std::size_t seq = ~std::size_t{0};  // of the first failing piece
  };
  std::vector<BatchOutcome> outcomes(batches.size());

  if (threads_ < 2 || batches.size() < 2) {
    std::size_t slot = 0;
    for (const auto& [dropping, batch] : batches) {
      outcomes[slot].err =
          read_dropping(dropping, batch, &outcomes[slot].seq);
      ++slot;
    }
  } else {
    TaskGroup group(ThreadPool::shared());
    std::size_t slot = 0;
    for (const auto& [dropping, batch] : batches) {
      group.run([this, dropping = dropping, batch = &batch,
                 outcome = &outcomes[slot]] {
        outcome->err = read_dropping(dropping, *batch, &outcome->seq);
      });
      ++slot;
    }
    group.wait();
  }

  const BatchOutcome* first_error = nullptr;
  for (const auto& outcome : outcomes) {
    if (outcome.err != 0 &&
        (first_error == nullptr || outcome.seq < first_error->seq)) {
      first_error = &outcome;
    }
  }
  if (first_error != nullptr) return Errno{first_error->err};
  return total;
}

}  // namespace ldplfs::plfs
