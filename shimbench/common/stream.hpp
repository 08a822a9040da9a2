// Seeded payloads and op streams shared by the load app and the in-process
// replay, so both issue byte-identical streams for one seed. Header-only
// and free of LDPLFS code: the load app must stay an unmodified POSIX
// program.
#pragma once

#include <time.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace shimbench {

using u64 = std::uint64_t;

inline u64 now_ns() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ULL +
         static_cast<u64>(ts.tv_nsec);
}

inline u64 splitmix64(u64 x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed) {}
  u64 next() { return splitmix64(state_++); }
  u64 below(u64 n) { return next() % n; }

 private:
  u64 state_;
};

// Payload of logical block `block`: word i is h + i * K with h derived from
// (seed, block). Cheap to generate and to verify at any offset, and no two
// blocks of one run share content.
inline constexpr u64 kWordStep = 0xD1B54A32D192ED03ULL;

inline u64 block_base(u64 seed, u64 block) {
  return splitmix64(seed ^ splitmix64(block + 1));
}

inline void fill_block(unsigned char* dst, std::size_t bytes, u64 seed,
                       u64 block) {
  const u64 h = block_base(seed, block);
  for (std::size_t i = 0; i * 8 < bytes; ++i) {
    const u64 w = h + i * kWordStep;
    const std::size_t n = bytes - i * 8 < 8 ? bytes - i * 8 : 8;
    std::memcpy(dst + i * 8, &w, n);
  }
}

// True when `data` equals the payload at logical [offset, offset + len) of
// a file made of `block`-byte blocks.
inline bool check_range(const unsigned char* data, std::size_t len,
                        u64 offset, u64 block, u64 seed) {
  std::size_t done = 0;
  while (done < len) {
    const u64 off = offset + done;
    const u64 b = off / block;
    const u64 in_block = off % block;
    const u64 h = block_base(seed, b);
    const std::size_t take = static_cast<std::size_t>(
        block - in_block < len - done ? block - in_block : len - done);
    for (std::size_t k = 0; k < take;) {
      const u64 pos = in_block + k;
      const u64 w = h + (pos / 8) * kWordStep;
      unsigned char wb[8];
      std::memcpy(wb, &w, 8);
      const std::size_t skip = static_cast<std::size_t>(pos % 8);
      std::size_t n = 8 - skip;
      if (n > take - k) n = take - k;
      if (std::memcmp(data + done + k, wb + skip, n) != 0) return false;
      k += n;
    }
    done += take;
  }
  return true;
}

inline constexpr u64 kFnvBasis = 0xCBF29CE484222325ULL;

inline u64 fnv1a(const unsigned char* p, std::size_t n, u64 h) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

// The small_rw stream: writes and reads alternate at seeded random offsets,
// so every read follows a write. A random op order would make only about
// half the reads pay for the write before them, and a median read latency
// would then sit on the edge between the two populations.
struct RwOp {
  bool is_read;
  u64 offset;
};

class RwStream {
 public:
  RwStream(u64 seed, u64 base, u64 io)
      : rng_(splitmix64(seed ^ 0x736d616c6c5f7277ULL)), blocks_(base / io),
        io_(io) {}
  RwOp next() { return {(count_++ & 1) != 0, rng_.below(blocks_) * io_}; }

 private:
  Rng rng_;
  u64 blocks_;
  u64 io_;
  u64 count_ = 0;
};

}  // namespace shimbench
