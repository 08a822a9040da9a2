#include "plfs/write_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "common/health.hpp"
#include "common/logging.hpp"
#include "common/paths.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"
#include "plfs/shared_meta.hpp"
#include "posix/fd.hpp"

namespace ldplfs::plfs {

namespace {

constexpr std::size_t kDefaultWriteBuffer = std::size_t{4} << 20;
constexpr std::size_t kMinWriteBuffer = std::size_t{4} << 10;
constexpr std::size_t kMaxWriteBuffer = std::size_t{256} << 20;

}  // namespace

/// One in-flight background flush, self-contained so a deadline-expired
/// flush can be abandoned: the task owns the bytes being flushed and a dup
/// of the data fd (closed by UniqueFd when the last reference dies), and
/// publishes done/err under its own mutex.
struct WriteFile::FlushTask {
  std::vector<std::byte> data;
  std::uint64_t base = 0;
  posix::UniqueFd fd;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  int err = 0;
};

bool WriteFile::env_write_behind() {
  const char* env = std::getenv("LDPLFS_WRITE_BEHIND");
  return env == nullptr || std::string(env) != "0";
}

bool WriteFile::env_coalesce() {
  const char* env = std::getenv("LDPLFS_COALESCE");
  return env == nullptr || std::string(env) != "0";
}

std::size_t WriteFile::env_write_buffer() {
  const char* env = std::getenv("LDPLFS_WRITE_BUFFER");
  if (env == nullptr || *env == '\0') return kDefaultWriteBuffer;
  const std::uint64_t parsed = parse_bytes(env);
  if (parsed == 0) return kDefaultWriteBuffer;  // malformed: stay safe
  return static_cast<std::size_t>(
      std::clamp<std::uint64_t>(parsed, kMinWriteBuffer, kMaxWriteBuffer));
}

std::uint64_t WriteFile::env_flush_deadline_ms() {
  const char* env = std::getenv("LDPLFS_FLUSH_DEADLINE_MS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') return 0;  // malformed: watchdog off
  return static_cast<std::uint64_t>(parsed);
}

WriteFile::WriteFile(std::string root, WriterId writer)
    : root_(std::move(root)), writer_(std::move(writer)) {}

Result<std::unique_ptr<WriteFile>> WriteFile::open(const std::string& root,
                                                   const WriterId& writer) {
  ContainerLayout layout(root);
  const std::string hostdir = layout.hostdir_for(writer.host);
  if (auto s = posix::make_dirs(hostdir); !s) return s.error();

  auto wf = std::unique_ptr<WriteFile>(new WriteFile(root, writer));

  const std::string data_path = layout.data_dropping_path(writer);
  auto data_fd = posix::open_fd(data_path, O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (!data_fd) return data_fd.error();
  wf->data_fd_ = data_fd.value().release();
  wf->data_path_ = data_path;

  // The path table stores the dropping path relative to the container root
  // so containers stay relocatable (cp -r of a container keeps working).
  wf->data_rel_ = path_join(path_basename(hostdir),
                            ContainerLayout::data_dropping_name(writer));
  auto index =
      IndexWriter::create(layout.index_dropping_path(writer), wf->data_rel_);
  if (!index) {
    // Roll back the data dropping: with no paired index it could only ever
    // be an orphan for recovery to flag.
    (void)posix::close_fd(std::exchange(wf->data_fd_, -1));
    (void)posix::remove_file(data_path);
    return index.error();
  }
  wf->index_ = std::make_unique<IndexWriter>(std::move(index).value());

  wf->write_behind_ = env_write_behind();
  if (wf->write_behind_) {
    wf->coalesce_ = env_coalesce();
    wf->buffer_capacity_ = env_write_buffer();
    wf->active_.reserve(wf->buffer_capacity_);
    wf->flush_deadline_ms_ = env_flush_deadline_ms();
  }

  if (auto s = posix::write_file(layout.openhost_path(writer), ""); !s) {
    // Fast-created containers (see create_container_fast) defer openhosts/
    // scaffolding to the first writer — create it on demand and retry.
    if (s.error_code() == ENOENT &&
        posix::make_dirs(layout.openhosts_path()).ok()) {
      s = posix::write_file(layout.openhost_path(writer), "");
    }
    if (!s) {
      LDPLFS_LOG_WARN("could not register openhost for %s: %s",
                      root.c_str(), s.error().message().c_str());
    }
  }
  stats::add(stats::Counter::kPlfsWriterOpened);
  stats::add(stats::Counter::kPlfsDroppingsOpened);  // the data dropping
  return wf;
}

Result<std::size_t> WriteFile::write_through(std::span<const std::byte> data,
                                             std::uint64_t offset) {
  const std::uint64_t physical = physical_end_;
  if (auto s = posix::pwrite_all(data_fd_, data,
                                 static_cast<off_t>(physical));
      !s) {
    // The log tail may now hold a partial, unindexed append. Never index it,
    // never write past it: poison the stream so sync()/close() surface the
    // failure with this errno (POSIX deferred-error semantics).
    deferred_errno_ = s.error_code();
    return s.error();
  }
  index_->add_write(offset, data.size(), physical, next_timestamp());
  physical_end_ += data.size();
  active_base_ = physical_end_;  // active_ is empty; keep its base at the tail
  max_eof_ = std::max(max_eof_, offset + data.size());
  index_dirty_ = true;
  return data.size();
}

void WriteFile::stage_record(std::uint64_t offset, std::uint64_t length,
                             std::uint64_t physical) {
  // Same coalescing rule as IndexWriter::add_write: extend the previous
  // record when both the logical and physical runs continue exactly AND
  // the stamps are consecutive — extension re-stamps the old bytes, which
  // is only sound when nothing can sit between the two stamps in the
  // global order (an interleaved stream leaves a gap and gets refused).
  const std::uint64_t ts = next_timestamp();
  if (!active_records_.empty()) {
    IndexRecord& last = active_records_.back();
    if (last.logical_offset + last.length == offset &&
        last.physical_offset + last.length == physical &&
        ts == last.timestamp + 1) {
      last.length += length;
      last.timestamp = ts;  // block grows to [first .. ts]
      return;
    }
  }
  active_records_.push_back(
      IndexRecord{offset, length, physical, ts, 0,
                  static_cast<std::uint32_t>(RecordKind::kData)});
  active_first_stamps_.push_back(ts);
}

void WriteFile::coalesce_active() {
  if (!coalesce_ || active_records_.size() < 2) return;
  // Stage order is authority order: replay the staged records through an
  // ExtentMap (newest wins) keyed on buffer-relative physical offsets, so
  // bytes a later staged write overwrote drop out entirely.
  ExtentMap map;
  for (std::size_t i = 0; i < active_records_.size(); ++i) {
    const auto& rec = active_records_[i];
    map.insert(Extent{rec.logical_offset, rec.length,
                      static_cast<std::uint32_t>(i),
                      rec.physical_offset - active_base_, rec.timestamp});
  }
  const auto extents = map.extents();  // logical order, no overlap

  scratch_.clear();
  scratch_.reserve(active_.size());
  std::vector<IndexRecord> records;
  records.reserve(extents.size());
  std::vector<std::uint64_t> firsts;
  firsts.reserve(extents.size());
  // Stamp span [span_first, span_last] of the staged records contributing
  // to records.back(). A merged record carries one stamp for bytes written
  // at several; that is only exact when no record anywhere — another
  // writer stream, an earlier flush — can hold a stamp between the
  // contributors. next_timestamp() hands out consecutive integers, so
  // "the contributing blocks form one contiguous block" guarantees exactly
  // that, and stamping the block end is then sound: anything older than
  // the block loses to every contributor, anything newer beats them all.
  // Back-to-back writes from one stream (the writev / sequential case this
  // optimisation targets) merge; interleaved streams leave stamp gaps and
  // keep their own records.
  //
  // The contributor set stays one contiguous stamp span by construction (a
  // refused merge starts a fresh record), and staged records partition the
  // stamp space disjointly, so membership and adjacency are O(1) interval
  // checks: a candidate block is already a contributor iff its first stamp
  // falls inside the span, and the union stays contiguous iff the block
  // abuts either end. No per-extent rescan of the contributors.
  std::uint64_t span_first = 0, span_last = 0;
  for (const auto& ext : extents) {
    const std::uint64_t physical = active_base_ + scratch_.size();
    const std::byte* src =
        active_.data() + static_cast<std::size_t>(ext.physical);
    scratch_.insert(scratch_.end(), src,
                    src + static_cast<std::size_t>(ext.length));
    // ext.dropping carries the staged-record index (set above); split
    // pieces of one record share its full block.
    const std::uint64_t blk_first = active_first_stamps_[ext.dropping];
    const std::uint64_t blk_last = active_records_[ext.dropping].timestamp;
    if (!records.empty() &&
        records.back().logical_offset + records.back().length ==
            ext.logical) {
      const bool present =
          blk_first >= span_first && blk_first <= span_last;
      const bool adjacent =
          blk_first == span_last + 1 || blk_last + 1 == span_first;
      if (present || adjacent) {
        span_first = std::min(span_first, blk_first);
        span_last = std::max(span_last, blk_last);
        records.back().length += ext.length;
        records.back().timestamp = span_last;
        firsts.back() = span_first;
        continue;
      }
    }
    records.push_back(IndexRecord{ext.logical, ext.length, physical,
                                  blk_last, 0,
                                  static_cast<std::uint32_t>(RecordKind::kData)});
    firsts.push_back(blk_first);
    span_first = blk_first;
    span_last = blk_last;
  }
  // Skip the swap when nothing got cheaper — the rewrite only pays when a
  // record or a byte actually drops out of the flush. (Records can also
  // *grow*: a stamp gap refusing the re-merge of a split record; only go
  // through with that when overlap elimination shrank the data.)
  if (records.size() >= active_records_.size() &&
      scratch_.size() == active_.size()) {
    return;
  }
  if (records.size() < active_records_.size()) {
    stats::add(stats::Counter::kWbCoalesceMerged,
               active_records_.size() - records.size());
  }
  active_.swap(scratch_);
  active_records_.swap(records);
  active_first_stamps_.swap(firsts);
  // Overlap elimination may have shrunk the staged bytes; the accepted-byte
  // counter must keep matching the log tail the drained stream will have.
  physical_end_ = active_base_ + active_.size();
}

void WriteFile::submit_active() {
  coalesce_active();
  auto task = std::make_shared<FlushTask>();
  task->data.swap(active_);
  active_.swap(spare_);  // reuse the last completed flush's storage
  active_.clear();
  inflight_records_.swap(active_records_);
  active_records_.clear();
  inflight_first_stamps_.swap(active_first_stamps_);
  active_first_stamps_.clear();
  task->base = active_base_;
  inflight_base_ = task->base;
  active_base_ = task->base + task->data.size();
  inflight_task_ = task;
  stats::add(stats::Counter::kWbFlushBytes, task->data.size());

  // The task flushes through its own dup of the data fd so that an
  // abandoned (deadline-expired) flush keeps a valid descriptor no matter
  // what this WriteFile does afterwards. Register the dup's origin so the
  // health tracker and path=-scoped fault clauses attribute it correctly.
  task->fd = posix::UniqueFd(::fcntl(data_fd_, F_DUPFD_CLOEXEC, 0));
  if (!task->fd.valid()) {
    // Out of descriptors: flush inline on the caller and pre-complete the
    // task; the next complete_inflight() absorbs the result as usual.
    stats::add(stats::Counter::kWbFlushSync);
    stats::Timer flush_timer(stats::Histogram::kWbFlushLatency);
    auto s = posix::pwrite_all(
        data_fd_,
        std::span<const std::byte>(task->data.data(), task->data.size()),
        static_cast<off_t>(task->base));
    flush_timer.stop();
    task->err = s.ok() ? 0 : s.error_code();
    task->done = true;
    return;
  }
  posix::note_fd_origin(task->fd.get(), data_path_);
  stats::add(stats::Counter::kWbFlushAsync);
  ThreadPool::shared().submit([task] {
    stats::Timer flush_timer(stats::Histogram::kWbFlushLatency);
    auto s = posix::pwrite_all(
        task->fd.get(),
        std::span<const std::byte>(task->data.data(), task->data.size()),
        static_cast<off_t>(task->base));
    flush_timer.stop();
    // Publish under the task's lock: a waiter may drop its reference the
    // moment it observes done, so the lambda must be finished with the
    // shared state before any waiter can get past the mutex.
    std::lock_guard lock(task->mu);
    task->err = s.ok() ? 0 : s.error_code();
    task->done = true;
    task->cv.notify_all();
  });
}

Status WriteFile::complete_inflight() {
  if (!inflight_task_) {
    return deferred_errno_ == 0 ? Status::success()
                                : Status(Errno{deferred_errno_});
  }
  const std::shared_ptr<FlushTask> task = inflight_task_;
  int err = 0;
  bool timed_out = false;
  {
    std::unique_lock lock(task->mu);
    if (flush_deadline_ms_ == 0) {
      task->cv.wait(lock, [&task] { return task->done; });
    } else if (!task->cv.wait_for(lock,
                                  std::chrono::milliseconds(flush_deadline_ms_),
                                  [&task] { return task->done; })) {
      timed_out = true;
    }
    if (!timed_out) err = task->err;
  }
  inflight_task_.reset();
  if (timed_out) {
    // The flush blew its deadline: abandon it rather than wait out a hung
    // backend. The task owns its own descriptor and buffer, so it finishes
    // (or fails) harmlessly in the background; any bytes it eventually
    // lands were never indexed and stay invisible. Poison the stream with
    // ETIMEDOUT and trip the backend's breaker so sibling streams fail
    // fast instead of queueing up behind the same hang.
    err = ETIMEDOUT;
    stats::add(stats::Counter::kWbFlushTimeout);
    LDPLFS_LOG_WARN(
        "flush of %s missed the %llu ms deadline; abandoning it and "
        "poisoning the stream (ETIMEDOUT)",
        data_path_.c_str(),
        static_cast<unsigned long long>(flush_deadline_ms_));
    health::trip(data_path_, ETIMEDOUT);
  }
  if (err != 0) {
    // The flush tore the log tail at some point inside [inflight_base_,
    // inflight_base_ + size): nothing from this buffer gets indexed, and
    // nothing may ever be appended past the tear — drop the in-flight
    // records *and* everything still staged behind them. The first logical
    // failure wins; later barriers keep reporting this errno.
    if (deferred_errno_ == 0) {
      deferred_errno_ = err;
      stats::add(stats::Counter::kWbPoisoned);
    }
    inflight_records_.clear();
    inflight_first_stamps_.clear();
    active_.clear();
    active_records_.clear();
    active_first_stamps_.clear();
    physical_end_ = inflight_base_;
    active_base_ = inflight_base_;
    return Errno{deferred_errno_};
  }
  // Sole owner of the finished task (the pool lambda has dropped its
  // reference): reclaim its buffer so the next rotation reuses the pages
  // instead of growing a cold vector from scratch.
  if (task.use_count() == 1 && spare_.capacity() < task->data.capacity()) {
    spare_ = std::move(task->data);
    spare_.clear();
  }
  // The data is in the log; only now may its records reach the index
  // (the index must always describe bytes that are really there).
  index_->add_records(inflight_records_, inflight_first_stamps_);
  inflight_records_.clear();
  inflight_first_stamps_.clear();
  return deferred_errno_ == 0 ? Status::success()
                              : Status(Errno{deferred_errno_});
}

void WriteFile::poll_inflight() {
  if (!inflight_task_) return;
  {
    std::lock_guard lock(inflight_task_->mu);
    if (!inflight_task_->done) return;
  }
  (void)complete_inflight();  // will not block: the task has finished
}

Status WriteFile::drain() {
  if (auto s = complete_inflight(); !s) return s;
  if (active_.empty()) return Status::success();
  if (flush_deadline_ms_ > 0) {
    // Under a deadline the barrier flush goes through the abandonable task
    // machinery too, so even a never-rotated buffer cannot hang close().
    submit_active();
    return complete_inflight();
  }
  coalesce_active();
  stats::add(stats::Counter::kWbFlushSync);
  stats::add(stats::Counter::kWbFlushBytes, active_.size());
  stats::Timer flush_timer(stats::Histogram::kWbFlushLatency);
  if (auto s = posix::pwrite_all(
          data_fd_,
          std::span<const std::byte>(active_.data(), active_.size()),
          static_cast<off_t>(active_base_));
      !s) {
    if (deferred_errno_ == 0) stats::add(stats::Counter::kWbPoisoned);
    deferred_errno_ = s.error_code();
    active_.clear();
    active_records_.clear();
    active_first_stamps_.clear();
    physical_end_ = active_base_;
    return s;
  }
  index_->add_records(active_records_, active_first_stamps_);
  active_records_.clear();
  active_first_stamps_.clear();
  active_base_ += active_.size();
  active_.clear();
  return Status::success();
}

Status WriteFile::write_index() {
  // Drain first: index records may only reach the index dropping once the
  // data they describe is in the log.
  if (auto s = drain(); !s) return s;
  if (auto s = index_->flush(); !s) {
    deferred_errno_ = s.error_code();
    return s;
  }
  return Status::success();
}

void WriteFile::bump_if_dirty() {
  if (!index_dirty_) return;
  shmeta::bump(root_);
  index_dirty_ = false;
}

Result<std::size_t> WriteFile::write(std::span<const std::byte> data,
                                     std::uint64_t offset) {
  if (closed_) return Errno{EBADF};
  poll_inflight();  // surface a finished background-flush failure now
  if (deferred_errno_ != 0) return Errno{deferred_errno_};
  if (data.empty()) return std::size_t{0};
  if (!write_behind_) return write_through(data, offset);

  // Oversized writes dodge the buffer: after a drain the log tail is
  // current, and one big pwrite beats staging through a smaller buffer.
  if (data.size() >= buffer_capacity_) {
    stats::add(stats::Counter::kWbBypass);
    if (auto s = drain(); !s) return s.error();
    return write_through(data, offset);
  }

  // One up-front reservation per buffer generation: the staging loop may
  // append thousands of small writes, and growing to capacity through
  // vector doubling would copy the whole window several times over.
  if (active_.capacity() < buffer_capacity_) active_.reserve(buffer_capacity_);

  std::size_t copied = 0;
  while (copied < data.size()) {
    if (active_.size() == buffer_capacity_) {
      // Double-buffer rotation: absorb the previous flush (this is the
      // only point a healthy stream ever waits on the pool), then hand
      // the full buffer over and keep filling the other one.
      if (auto s = complete_inflight(); !s) return s.error();
      submit_active();
    }
    const std::size_t take =
        std::min(buffer_capacity_ - active_.size(), data.size() - copied);
    stage_record(offset + copied, take, active_base_ + active_.size());
    active_.insert(active_.end(), data.begin() + static_cast<std::ptrdiff_t>(copied),
                   data.begin() + static_cast<std::ptrdiff_t>(copied + take));
    copied += take;
    physical_end_ += take;
    stats::add(stats::Counter::kWbBufferedBytes, take);
  }
  max_eof_ = std::max(max_eof_, offset + data.size());
  index_dirty_ = true;
  return data.size();
}

Status WriteFile::truncate(std::uint64_t size) {
  if (closed_) return Errno{EBADF};
  if (deferred_errno_ != 0) return Errno{deferred_errno_};
  // Drain barrier: every buffered append must be in the log (and its
  // records staged ahead of the truncate record) before the truncate is
  // made visible, or replay order would mask acknowledged writes.
  if (auto s = drain(); !s) return s;
  index_->add_truncate(size, next_timestamp());
  max_eof_ = size;
  // Existing metadata hints describe pre-truncate EOFs; drop them so the
  // plfs_getattr fast path cannot resurrect a stale size. (Writers still
  // open will re-drop a fresh hint when they close.)
  ContainerLayout layout(root_);
  if (auto names = posix::list_dir(layout.metadata_path())) {
    for (const auto& name : names.value()) {
      (void)posix::remove_file(path_join(layout.metadata_path(), name));
    }
  } else if (names.error_code() == ENOENT) {
    // Fast-created container: no metadata/ dir yet means no hints to drop.
  } else {
    // Failing to drop stale hints does not lose data, but it can let the
    // getattr fast path serve a pre-truncate size until the next writer
    // close rewrites them — worth a warning, like the close() path.
    LDPLFS_LOG_WARN(
        "truncate(%s): could not list metadata dir to drop stale size "
        "hints (errno=%d %s); stat may overreport until the next close",
        root_.c_str(), names.error_code(), names.error().message().c_str());
  }
  if (auto s = write_index(); !s) return s;
  // The truncate record is on disk: other processes' cached indexes are
  // stale regardless of whether any bytes were staged since the last bump.
  shmeta::bump(root_);
  index_dirty_ = false;
  return Status::success();
}

Result<WriterRecords> WriteFile::publish() {
  if (closed_) return Errno{EBADF};
  if (deferred_errno_ != 0) return Errno{deferred_errno_};
  if (auto s = drain(); !s) return s.error();
  return WriterRecords{data_rel_, index_->take_unpublished()};
}

Status WriteFile::flush_index() {
  if (closed_) return Errno{EBADF};
  if (deferred_errno_ != 0) return Errno{deferred_errno_};
  if (auto s = write_index(); !s) return s;
  bump_if_dirty();
  return Status::success();
}

Status WriteFile::sync() {
  if (closed_) return Errno{EBADF};
  if (deferred_errno_ != 0) return Errno{deferred_errno_};
  if (auto s = write_index(); !s) return s;
  if (auto s = posix::fsync_fd(data_fd_); !s) {
    deferred_errno_ = s.error_code();
    return s;
  }
  bump_if_dirty();
  return Status::success();
}

Status WriteFile::close() {
  if (closed_) return Status::success();
  closed_ = true;
  // index_ is null when WriteFile::open failed part-way and the half-built
  // object is being destroyed; there is no stream to tear down then.
  if (!index_) return Status::success();
  stats::add(stats::Counter::kPlfsWriterClosed);
  // Drain barrier. Bounded by LDPLFS_FLUSH_DEADLINE_MS when set; a flush
  // that misses the deadline is abandoned to finish against its own dup'd
  // descriptor, so nothing here can block forever and nothing the task
  // still touches belongs to this object. A failure (or timeout) poisons
  // deferred_errno_ and is surfaced below.
  (void)drain();
  Status result = index_->close();
  if (deferred_errno_ != 0) result = Errno{deferred_errno_};  // original wins
  if (data_fd_ >= 0) {
    if (auto s = posix::close_fd(data_fd_); !s && result.ok()) result = s;
    data_fd_ = -1;
  }

  ContainerLayout layout(root_);
  // Drop the open registration and leave a size hint (name-encoded so that
  // future getattr calls can avoid a full index merge). Failures here do not
  // lose data, but they do leave the container looking writer-occupied,
  // which disables the getattr fast path and blocks compaction until
  // ldp-recover — worth a warning so operators can see why.
  if (auto s = posix::remove_file(layout.openhost_path(writer_)); !s) {
    LDPLFS_LOG_WARN(
        "close(%s): openhost registration not removed (errno=%d %s); "
        "getattr fast path stays disabled until ldp-recover",
        root_.c_str(), s.error_code(), s.error().message().c_str());
  }
  MetaHint hint{max_eof_, physical_end_, writer_.host, writer_.pid};
  const std::string hint_path =
      path_join(layout.metadata_path(), ContainerLayout::meta_name(hint));
  if (auto s = posix::write_file(hint_path, ""); !s) {
    // Fast-created containers defer metadata/ to the first closing writer.
    if (s.error_code() == ENOENT &&
        posix::make_dirs(layout.metadata_path()).ok()) {
      s = posix::write_file(hint_path, "");
    }
    if (!s) {
      LDPLFS_LOG_WARN(
          "close(%s): metadata size hint not written (errno=%d %s); "
          "stat of this container will need a full index merge",
          root_.c_str(), s.error_code(), s.error().message().c_str());
    }
  }
  // Everything this stream made visible is on disk: tell the other
  // processes' caches. The writer *registration* outlives this stream —
  // it is held by the owning FileHandle for the whole open, so a
  // foreign-writer check can never miss both the registration and the bump.
  bump_if_dirty();
  return result;
}

WriteFile::~WriteFile() { (void)close(); }

}  // namespace ldplfs::plfs
