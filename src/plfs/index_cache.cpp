#include "plfs/index_cache.hpp"

#include <cstdlib>

#include "common/stats.hpp"
#include "plfs/container.hpp"
#include "plfs/shared_meta.hpp"
#include "posix/fd.hpp"

namespace ldplfs::plfs {

IndexCache::IndexCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool IndexCache::enabled() {
  const char* env = std::getenv("LDPLFS_INDEX_CACHE");
  return env == nullptr || std::string_view(env) != "0";
}

Result<IndexCache::Fingerprint> IndexCache::fingerprint(
    const std::string& root) {
  auto paths = find_index_droppings(root);
  if (!paths) return paths.error();
  Fingerprint fp;
  fp.paths = std::move(paths).value();
  fp.stamps.reserve(fp.paths.size() * 2);
  for (const auto& path : fp.paths) {
    auto st = posix::stat_path(path);
    if (!st) return st.error();  // dropping vanished mid-stat: treat as stale
    const auto& s = st.value();
    fp.stamps.push_back(static_cast<std::uint64_t>(s.st_mtim.tv_sec) *
                            1'000'000'000ull +
                        static_cast<std::uint64_t>(s.st_mtim.tv_nsec));
    fp.stamps.push_back(static_cast<std::uint64_t>(s.st_size));
  }
  return fp;
}

Result<IndexCache::Probe> IndexCache::probe(const std::string& root) {
  // Read the shared generation BEFORE validating or building: a bump that
  // lands between this load and the build only makes the cached entry look
  // stale earlier than necessary — never fresh when it isn't. With the
  // shared plane active for this root, that one atomic load replaces the
  // list-every-hostdir + stat-every-dropping fingerprint storm.
  Probe probe;
  probe.gen = shmeta::generation(root);
  if (!probe.gen.has_value()) {
    auto fp = fingerprint(root);
    if (!fp) return fp.error();
    probe.fp = std::move(fp).value();
  }

  std::lock_guard lock(mu_);
  auto it = map_.find(root);
  if (it == map_.end()) return probe;
  const Entry& entry = it->second.first;
  const bool fresh = probe.gen.has_value()
                         ? entry.gen_valid && entry.gen == *probe.gen
                         : entry.fp == probe.fp;
  if (!fresh) {
    if (probe.gen.has_value()) stats::add(stats::Counter::kShmGenStale);
    return probe;
  }
  lru_.splice(lru_.begin(), lru_, it->second.second);
  it->second.second = lru_.begin();
  ++stats_.hits;
  stats::add(stats::Counter::kCacheIndexHit);
  if (probe.gen.has_value()) {
    stats::add(stats::Counter::kShmGenHit);
    stats::add(stats::Counter::kShmStatSkipped);
  }
  probe.fresh = entry.index;
  return probe;
}

bool IndexCache::serves(const std::string& root,
                        const std::shared_ptr<const GlobalIndex>& snapshot) {
  if (!enabled()) return false;
  auto found = probe(root);
  return found && found.value().fresh == snapshot;
}

Result<std::shared_ptr<const GlobalIndex>> IndexCache::get(
    const std::string& root) {
  if (!enabled()) {
    auto index = GlobalIndex::build(root);
    if (!index) return index.error();
    return std::make_shared<const GlobalIndex>(std::move(index).value());
  }

  auto found = probe(root);
  if (!found) return found.error();
  if (found.value().fresh) return found.value().fresh;

  // Build outside the lock: merges are the expensive part and distinct
  // containers must not serialise on each other. A racing build of the
  // same root does redundant work but both results are correct snapshots.
  auto index = GlobalIndex::build(root);
  if (!index) return index.error();
  auto shared_index =
      std::make_shared<const GlobalIndex>(std::move(index).value());

  const auto gen = found.value().gen;
  Entry entry{std::move(found.value().fp), shared_index, gen.value_or(0),
              gen.has_value()};

  std::lock_guard lock(mu_);
  ++stats_.misses;
  stats::add(stats::Counter::kCacheIndexMiss);
  auto it = map_.find(root);
  if (it != map_.end()) {
    it->second.first = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.second);
    it->second.second = lru_.begin();
  } else {
    lru_.push_front(root);
    map_.emplace(root, std::make_pair(std::move(entry), lru_.begin()));
    while (map_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
  }
  return shared_index;
}

void IndexCache::invalidate(const std::string& root) {
  std::lock_guard lock(mu_);
  auto it = map_.find(root);
  if (it == map_.end()) return;
  lru_.erase(it->second.second);
  map_.erase(it);
  ++stats_.invalidations;
  stats::add(stats::Counter::kCacheIndexInvalidation);
}

void IndexCache::clear() {
  std::lock_guard lock(mu_);
  stats_.invalidations += map_.size();
  stats::add(stats::Counter::kCacheIndexInvalidation, map_.size());
  map_.clear();
  lru_.clear();
}

IndexCache::Stats IndexCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

IndexCache& IndexCache::shared() {
  // Deliberately leaked — see DroppingFdCache::shared(): exit-drained pool
  // tasks may still consult the cache after static destruction begins.
  static IndexCache* cache = new IndexCache(64);
  return *cache;
}

}  // namespace ldplfs::plfs
