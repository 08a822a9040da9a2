#include "plfs/index.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/paths.hpp"
#include "common/stats.hpp"
#include "plfs/container.hpp"
#include "posix/fd.hpp"

namespace ldplfs::plfs {

namespace {

/// A record tagged with its resolved (global) dropping reference.
struct TaggedRecord {
  IndexRecord rec;
  std::uint32_t global_ref = 0;
  std::uint32_t source = 0;  // tie-break for equal timestamps
};

/// Authority order: ascending timestamp, ties broken by source.
void sort_by_stamp(std::vector<TaggedRecord>& tagged) {
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const TaggedRecord& a, const TaggedRecord& b) {
                     if (a.rec.timestamp != b.rec.timestamp) {
                       return a.rec.timestamp < b.rec.timestamp;
                     }
                     return a.source < b.source;
                   });
}

}  // namespace

void GlobalIndex::apply(const IndexRecord& rec, std::uint32_t global_ref) {
  newest_stamp_ = std::max(newest_stamp_, rec.timestamp);
  if (rec.kind == static_cast<std::uint32_t>(RecordKind::kTruncate)) {
    extents_.truncate(rec.length);
    logical_size_ = rec.length;
    return;
  }
  if (rec.length == 0) return;
  extents_.insert(Extent{rec.logical_offset, rec.length, global_ref,
                         rec.physical_offset, rec.timestamp});
  logical_size_ = std::max(logical_size_, rec.logical_offset + rec.length);
}

GlobalIndex GlobalIndex::merge(const std::vector<IndexDropping>& sources) {
  stats::add(stats::Counter::kPlfsIndexMerges);
  stats::Timer timer(stats::Histogram::kPlfsIndexMergeLatency);
  GlobalIndex index;
  std::unordered_map<std::string, std::uint32_t> path_ids;
  std::vector<TaggedRecord> tagged;
  for (std::uint32_t src = 0; src < sources.size(); ++src) {
    const auto& dropping = sources[src];
    // Resolve each source's local path table into the global one.
    std::vector<std::uint32_t> remap(dropping.data_paths.size());
    for (std::size_t i = 0; i < dropping.data_paths.size(); ++i) {
      const auto& path = dropping.data_paths[i];
      auto [it, inserted] = path_ids.try_emplace(
          path, static_cast<std::uint32_t>(index.data_paths_.size()));
      if (inserted) index.data_paths_.push_back(path);
      remap[i] = it->second;
    }
    for (const auto& rec : dropping.records) {
      const std::uint32_t global_ref =
          rec.kind == static_cast<std::uint32_t>(RecordKind::kData)
              ? remap[rec.dropping_ref]
              : 0;
      tagged.push_back({rec, global_ref, src});
    }
  }
  sort_by_stamp(tagged);
  for (const auto& t : tagged) index.apply(t.rec, t.global_ref);
  return index;
}

bool GlobalIndex::can_patch(std::span<const WriterRecords> batches) const {
  for (const auto& batch : batches) {
    for (const auto& rec : batch.records) {
      if (rec.timestamp <= newest_stamp_) return false;
    }
  }
  return true;
}

void GlobalIndex::patch(std::span<const WriterRecords> batches) {
  std::vector<TaggedRecord> tagged;
  for (std::uint32_t src = 0; src < batches.size(); ++src) {
    const auto& batch = batches[src];
    const auto known =
        std::find(data_paths_.begin(), data_paths_.end(), batch.data_path);
    const auto ref = static_cast<std::uint32_t>(known - data_paths_.begin());
    if (known == data_paths_.end()) data_paths_.push_back(batch.data_path);
    for (const auto& rec : batch.records) tagged.push_back({rec, ref, src});
  }
  sort_by_stamp(tagged);
  for (const auto& t : tagged) apply(t.rec, t.global_ref);
}

Result<GlobalIndex> GlobalIndex::build(const std::string& container_root) {
  auto index_paths = find_index_droppings(container_root);
  if (!index_paths) return index_paths.error();
  std::vector<IndexDropping> sources;
  sources.reserve(index_paths.value().size());
  for (const auto& path : index_paths.value()) {
    auto dropping = load_index_dropping(path);
    if (!dropping) return dropping.error();
    sources.push_back(std::move(dropping).value());
  }
  return merge(sources);
}

std::string GlobalIndex::encode_flattened() const {
  std::string out = encode_index_header(data_paths_);
  std::vector<IndexRecord> records;
  for (const auto& extent : extents_.extents()) {
    IndexRecord rec;
    rec.logical_offset = extent.logical;
    rec.length = extent.length;
    rec.physical_offset = extent.physical;
    rec.timestamp = extent.timestamp;
    rec.dropping_ref = extent.dropping;
    rec.kind = static_cast<std::uint32_t>(RecordKind::kData);
    records.push_back(rec);
  }
  // If truncate-up left the size beyond the mapped extent, preserve it.
  if (logical_size_ > extents_.mapped_end()) {
    IndexRecord rec;
    rec.kind = static_cast<std::uint32_t>(RecordKind::kTruncate);
    rec.length = logical_size_;
    rec.timestamp = records.empty() ? 1 : records.back().timestamp;
    records.push_back(rec);
  }
  out.append(reinterpret_cast<const char*>(records.data()),
             records.size() * sizeof(IndexRecord));
  return out;
}

IndexWriter::IndexWriter(IndexWriter&& other) noexcept
    : index_path_(std::move(other.index_path_)),
      fd_(std::exchange(other.fd_, -1)),
      pending_(std::move(other.pending_)),
      published_(other.published_),
      records_written_(other.records_written_),
      deferred_errno_(other.deferred_errno_) {}

IndexWriter& IndexWriter::operator=(IndexWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    index_path_ = std::move(other.index_path_);
    fd_ = std::exchange(other.fd_, -1);
    pending_ = std::move(other.pending_);
    published_ = other.published_;
    records_written_ = other.records_written_;
    deferred_errno_ = other.deferred_errno_;
  }
  return *this;
}

IndexWriter::~IndexWriter() {
  // Best effort: never lose buffered records on destruction.
  (void)close();
}

Result<IndexWriter> IndexWriter::create(const std::string& index_path,
                                        const std::string& data_path_rel) {
  auto fd = posix::open_fd(index_path, O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (!fd) return fd.error();
  const std::string header = encode_index_header({data_path_rel});
  if (auto s = posix::write_all(
          fd.value().get(),
          std::span<const std::byte>(
              reinterpret_cast<const std::byte*>(header.data()),
              header.size()));
      !s) {
    return s.error();
  }
  IndexWriter writer;
  writer.index_path_ = index_path;
  writer.fd_ = fd.value().release();
  return writer;
}

void IndexWriter::add_write(std::uint64_t offset, std::uint64_t length,
                            std::uint64_t physical, std::uint64_t timestamp,
                            std::uint64_t timestamp_first) {
  if (length == 0) return;
  if (timestamp_first == 0) timestamp_first = timestamp;
  // Coalesce with the previous record when both the logical and physical
  // runs continue exactly — the common case for streaming checkpoints —
  // AND the incoming stamp block starts right past the previous record's
  // block end (see the header: the merge re-stamps old bytes, which is
  // only sound when nothing can hold a stamp between the blocks).
  if (!pending_.empty()) {
    IndexRecord& last = pending_.back();
    if (last.kind == static_cast<std::uint32_t>(RecordKind::kData) &&
        last.logical_offset + last.length == offset &&
        last.physical_offset + last.length == physical &&
        timestamp_first == pending_last_stamp_ + 1) {
      last.length += length;
      last.timestamp = timestamp;
      pending_last_stamp_ = timestamp;
      published_ = std::min(published_, pending_.size() - 1);  // republish
      return;
    }
  }
  pending_.push_back(IndexRecord{offset, length, physical, timestamp, 0,
                                 static_cast<std::uint32_t>(RecordKind::kData)});
  pending_last_stamp_ = timestamp;
}

void IndexWriter::add_records(std::span<const IndexRecord> records,
                              std::span<const std::uint64_t> first_stamps) {
  pending_.reserve(pending_.size() + records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& rec = records[i];
    if (rec.kind == static_cast<std::uint32_t>(RecordKind::kData)) {
      add_write(rec.logical_offset, rec.length, rec.physical_offset,
                rec.timestamp,
                i < first_stamps.size() ? first_stamps[i] : rec.timestamp);
    } else {
      add_truncate(rec.length, rec.timestamp);
    }
  }
}

void IndexWriter::add_truncate(std::uint64_t size, std::uint64_t timestamp) {
  pending_.push_back(IndexRecord{
      0, size, 0, timestamp, 0,
      static_cast<std::uint32_t>(RecordKind::kTruncate)});
  pending_last_stamp_ = timestamp;
}

std::vector<IndexRecord> IndexWriter::take_unpublished() {
  std::vector<IndexRecord> out(
      pending_.begin() + static_cast<std::ptrdiff_t>(published_),
      pending_.end());
  published_ = pending_.size();
  return out;
}

Status IndexWriter::flush() {
  if (deferred_errno_ != 0) return Errno{deferred_errno_};
  if (fd_ < 0) return Errno{EBADF};
  if (pending_.empty()) return Status::success();
  auto s = posix::write_all(
      fd_, std::span<const std::byte>(
               reinterpret_cast<const std::byte*>(pending_.data()),
               pending_.size() * sizeof(IndexRecord)));
  if (!s) {
    // The append may have torn a record at the tail; writing more would
    // misalign everything after it. Poison the writer instead (see header).
    deferred_errno_ = s.error_code();
    pending_.clear();
    published_ = 0;
    return s;
  }
  records_written_ += pending_.size();
  pending_.clear();
  published_ = 0;
  return Status::success();
}

Status IndexWriter::close() {
  if (fd_ < 0) return Status::success();
  Status s = flush();
  if (auto c = posix::close_fd(fd_); !c && s.ok()) s = c;
  fd_ = -1;
  return s;
}

}  // namespace ldplfs::plfs
