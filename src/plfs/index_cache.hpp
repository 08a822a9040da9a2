// Process-wide cache of merged global indexes, keyed by container root.
//
// Every plfs open used to re-read and re-merge every index dropping — the
// N-1 re-open cost PLFS is notorious for. This cache memoises the merged
// GlobalIndex and validates it on each hit against a cheap fingerprint of
// the container's index droppings (the sorted path list plus each file's
// mtime and size), so appends by other processes, flattening, compaction
// and recovery are all detected by stat alone. In-process mutators
// (writer close, truncate, rename, unlink — see plfs.cpp) additionally
// invalidate explicitly, which keeps the cache correct even when a
// same-second append leaves mtime unchanged (size still changes; the
// explicit hook is belt and braces plus prompt memory release).
//
// When the shared metadata plane is attached (LDPLFS_SHM, see
// plfs/shared_meta.hpp) the fingerprint stat storm is replaced by one
// atomic load: entries record the container's shared generation at build
// time and a hit is fresh exactly when the slot still holds that value.
// Containers whose slot table is exhausted fall back to fingerprints.
//
// LDPLFS_INDEX_CACHE=0 disables the cache (checked per lookup, so tests
// can toggle it); entries are LRU-bounded so a process touching thousands
// of containers cannot hoard every merged index forever.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "plfs/index.hpp"

namespace ldplfs::plfs {

class IndexCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;        // built because absent or stale
    std::uint64_t invalidations = 0;
  };

  explicit IndexCache(std::size_t capacity);

  /// The merged index for the container at `root`: cached when fresh,
  /// rebuilt (and re-cached) otherwise. With the cache disabled this is
  /// exactly GlobalIndex::build.
  Result<std::shared_ptr<const GlobalIndex>> get(const std::string& root);

  /// True when get(root) would hand back `snapshot` itself: the entry for
  /// `root` is cached, still fresh, and is that snapshot. Never builds. A
  /// writing handle asks this to learn that nothing outside it changed the
  /// container since its snapshot was taken.
  bool serves(const std::string& root,
              const std::shared_ptr<const GlobalIndex>& snapshot);

  /// Drop the entry for `root` (exact key).
  void invalidate(const std::string& root);

  /// Drop everything (tests, truncate-to-zero storms).
  void clear();

  [[nodiscard]] Stats stats() const;

  /// True unless LDPLFS_INDEX_CACHE=0.
  static bool enabled();

  /// Process-wide cache (capacity 64 containers).
  static IndexCache& shared();

 private:
  /// One (path, mtime, mtime_nsec, size) row per index dropping, in
  /// find_index_droppings order.
  struct Fingerprint {
    std::vector<std::string> paths;
    std::vector<std::uint64_t> stamps;  // 2 per path: mtime_ns, size
    bool operator==(const Fingerprint&) const = default;
  };
  struct Entry {
    Fingerprint fp;
    std::shared_ptr<const GlobalIndex> index;
    // Shared-plane generation observed before the index was built;
    // meaningful only when gen_valid (plane attached at build time).
    std::uint64_t gen = 0;
    bool gen_valid = false;
  };
  using LruList = std::list<std::string>;  // front = most recently used
  /// What a validation of `root` found: the fresh cached index (null on a
  /// miss) and the state a rebuild records in its entry.
  struct Probe {
    std::shared_ptr<const GlobalIndex> fresh;
    Fingerprint fp;  // filled only when the shared plane is off
    std::optional<std::uint64_t> gen;
  };

  static Result<Fingerprint> fingerprint(const std::string& root);
  Result<Probe> probe(const std::string& root);

  mutable std::mutex mu_;
  std::size_t capacity_;
  LruList lru_;
  std::unordered_map<std::string, std::pair<Entry, LruList::iterator>> map_;
  Stats stats_;
};

}  // namespace ldplfs::plfs
