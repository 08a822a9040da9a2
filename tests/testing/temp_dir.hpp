// Test scaffolding: RAII temporary directory + small data helpers.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "posix/fd.hpp"

namespace ldplfs::testing {

/// mkdtemp-backed scratch directory, removed (recursively) on destruction.
class TempDir {
 public:
  TempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                       "/ldplfs_test_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::abort();  // tests cannot proceed without scratch space
    }
    path_ = buf.data();
  }

  ~TempDir() { (void)posix::remove_tree(path_); }

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Path of an entry inside the directory.
  [[nodiscard]] std::string sub(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// Set `path`'s access and modification times to `when`.
inline bool set_times(const std::string& path, time_t when) {
  const struct timespec times[2] = {{when, 0}, {when, 0}};
  return ::utimensat(AT_FDCWD, path.c_str(), times, 0) == 0;
}

/// Deterministic pseudo-random bytes (seeded) for content checks.
inline std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  std::size_t i = 0;
  while (i + 8 <= n) {
    const std::uint64_t word = rng.next();
    std::memcpy(out.data() + i, &word, 8);
    i += 8;
  }
  for (; i < n; ++i) out[i] = static_cast<std::byte>(rng.next() & 0xFF);
  return out;
}

inline std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

inline std::string to_string(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace ldplfs::testing
