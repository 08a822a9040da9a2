// ldp-bench-app: the load generator of the end-to-end shim benchmark.
//
// A plain POSIX program with no LDPLFS linkage, like the preload victim in
// the test suite: the benchmark runs it under LD_PRELOAD=libldplfs.so, so
// every call below goes through the real interposition layer exactly as an
// unmodified application's would. The same binary also runs each stream on
// a plain file, with and without the shim, as the off-mount reference.
//
// Usage: ldp-bench-app MODE key=value...
//   ckpt-write file= rank= ranks= blocks= block= seed= out= [gate=1]
//   ckpt-read  file= ranks= blocks= block= seed= chunk= out= [unlink=1]
//   small-rw   file= base= ops= io= seed= out=
//   gen-text   file= bytes= seed=
// Every data mode also takes [delay_us=N]: sleep N us before each read,
// pread and pwrite, the per-call latency LDPLFS_FAULTS models for the
// shim's backend. It makes a plain file the reference on the same modeled
// file system.
//
// Every call is timed with CLOCK_MONOTONIC around the call alone, and every
// result is checked: a failed call, a short transfer or wrong content
// counts in `failed`. The result file holds `key value` lines and
// `lat NAME v1 v2 ...` lines of per-call latencies in nanoseconds. The
// exit code is 0 only when nothing failed.
#include <errno.h>
#include <fcntl.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

#include <map>
#include <string>
#include <vector>

#include "common/stream.hpp"

namespace {

using namespace shimbench;

struct Args {
  std::map<std::string, std::string> kv;

  [[nodiscard]] std::string str(const char* key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      fprintf(stderr, "ldp-bench-app: missing %s=\n", key);
      exit(2);
    }
    return it->second;
  }
  [[nodiscard]] u64 num(const char* key) const {
    return strtoull(str(key).c_str(), nullptr, 10);
  }
  [[nodiscard]] bool flag(const char* key) const {
    const auto it = kv.find(key);
    return it != kv.end() && it->second == "1";
  }
};

u64 g_delay_us = 0;

// The modeled backend latency of one data call (see delay_us= above).
void backend_delay() {
  if (g_delay_us == 0) return;
  struct timespec ts = {static_cast<time_t>(g_delay_us / 1000000),
                        static_cast<long>(g_delay_us % 1000000) * 1000};
  while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

// Counters, per-call latencies and scalar results of one run.
class Report {
 public:
  void attempt(bool ok, const char* what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 5) {
        fprintf(stderr, "ldp-bench-app: %s failed (errno %d: %s)\n", what,
                errno, strerror(errno));
      }
    }
  }
  void wrong(const char* what) {
    ++failed_;
    if (failed_ <= 5) {
      fprintf(stderr, "ldp-bench-app: %s: wrong result\n", what);
    }
  }
  void lat(const char* name, u64 ns) { lat_[name].push_back(ns); }
  void set(const char* key, u64 value) { scalars_[key] = value; }

  int finish(const std::string& out) const {
    FILE* f = fopen(out.c_str(), "w");
    if (f == nullptr) {
      perror("ldp-bench-app: result file");
      return 4;
    }
    fprintf(f, "attempted %llu\nfailed %llu\n",
            static_cast<unsigned long long>(attempted_),
            static_cast<unsigned long long>(failed_));
    for (const auto& [k, v] : scalars_) {
      fprintf(f, "%s %llu\n", k.c_str(), static_cast<unsigned long long>(v));
    }
    for (const auto& [k, v] : lat_) {
      fprintf(f, "lat %s", k.c_str());
      for (const u64 ns : v) {
        fprintf(f, " %llu", static_cast<unsigned long long>(ns));
      }
      fputc('\n', f);
    }
    if (fclose(f) != 0) return 4;
    return failed_ == 0 ? 0 : 3;
  }

 private:
  u64 attempted_ = 0;
  u64 failed_ = 0;
  std::map<std::string, u64> scalars_;
  std::map<std::string, std::vector<u64>> lat_;
};

// Time one call; `call` returns whether its result was right.
template <typename F>
void timed(Report& r, const char* name, F&& call) {
  const u64 t0 = now_ns();
  const bool ok = call();
  r.lat(name, now_ns() - t0);
  r.attempt(ok, name);
}

// One rank of an N-1 strided checkpoint: block b of this rank lands at
// logical block b * ranks + rank. Payloads are built before the gate so the
// timed section from open to close is nothing but I/O calls.
int ckpt_write(const Args& a) {
  const std::string file = a.str("file");
  const u64 rank = a.num("rank"), ranks = a.num("ranks");
  const u64 blocks = a.num("blocks"), block = a.num("block");
  const u64 seed = a.num("seed");
  std::vector<unsigned char> payload(blocks * block);
  for (u64 b = 0; b < blocks; ++b) {
    fill_block(payload.data() + b * block, block, seed, b * ranks + rank);
  }
  if (a.flag("gate")) {
    // Tell run.py this rank is ready, then wait for the common start.
    char c = 'R';
    if (write(STDOUT_FILENO, &c, 1) != 1 || read(STDIN_FILENO, &c, 1) != 1) {
      return 5;
    }
  }
  Report r;
  const u64 t_start = now_ns();
  int fd = -1;
  timed(r, "open", [&] {
    fd = open(file.c_str(), O_WRONLY | O_CREAT, 0644);
    return fd >= 0;
  });
  if (fd >= 0) {
    for (u64 b = 0; b < blocks; ++b) {
      const auto off = static_cast<off_t>((b * ranks + rank) * block);
      timed(r, "write", [&] {
        backend_delay();
        return pwrite(fd, payload.data() + b * block, block, off) ==
               static_cast<ssize_t>(block);
      });
    }
    timed(r, "close", [&] { return close(fd) == 0; });
  }
  r.set("t_start_ns", t_start);
  r.set("t_end_ns", now_ns());
  r.set("bytes_written", blocks * block);
  return r.finish(a.str("out"));
}

// Restart read of a whole checkpoint with `chunk`-byte read(2) calls. Each
// chunk is verified between calls, outside the timed call.
int ckpt_read(const Args& a) {
  const std::string file = a.str("file");
  const u64 block = a.num("block"), seed = a.num("seed");
  const u64 total = a.num("ranks") * a.num("blocks") * block;
  const std::size_t chunk = a.num("chunk");
  std::vector<unsigned char> buf(chunk);
  Report r;
  int fd = -1;
  timed(r, "open", [&] {
    fd = open(file.c_str(), O_RDONLY);
    return fd >= 0;
  });
  u64 got = 0;
  if (fd >= 0) {
    for (;;) {
      ssize_t n = 0;
      timed(r, "read", [&] {
        backend_delay();
        n = read(fd, buf.data(), chunk);
        return n >= 0;
      });
      if (n <= 0) break;
      if (got + static_cast<u64>(n) > total ||
          !check_range(buf.data(), static_cast<std::size_t>(n), got, block,
                       seed)) {
        r.wrong("read content");
        break;
      }
      got += static_cast<u64>(n);
    }
    timed(r, "close", [&] { return close(fd) == 0; });
  }
  if (got != total) r.wrong("read size");
  r.set("bytes_read", got);
  if (a.flag("unlink")) r.attempt(unlink(file.c_str()) == 0, "unlink");
  return r.finish(a.str("out"));
}

u64 file_digest(const std::string& file, Report& r) {
  std::vector<unsigned char> buf(1u << 20);
  const int fd = open(file.c_str(), O_RDONLY);
  r.attempt(fd >= 0, "open(digest)");
  if (fd < 0) return 0;
  u64 h = kFnvBasis;
  ssize_t n;
  while ((n = read(fd, buf.data(), buf.size())) > 0) {
    h = fnv1a(buf.data(), static_cast<std::size_t>(n), h);
  }
  r.attempt(n == 0, "read(digest)");
  r.attempt(close(fd) == 0, "close(digest)");
  return h;
}

// Alternating io-byte pwrite/pread at seeded random offsets over a freshly
// built base file. The digests of every pread and of the final content are compared
// by run.py against the same stream applied to a plain file.
int small_rw(const Args& a) {
  const std::string file = a.str("file");
  const u64 base = a.num("base"), ops = a.num("ops"), io = a.num("io");
  const u64 seed = a.num("seed");
  Report r;
  // Untimed: rebuild the base file from scratch.
  if (unlink(file.c_str()) != 0 && errno != ENOENT) r.wrong("unlink(base)");
  {
    constexpr std::size_t kBaseChunk = 1u << 20;
    std::vector<unsigned char> buf(kBaseChunk);
    const int fd = open(file.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    r.attempt(fd >= 0, "open(base)");
    if (fd < 0) return r.finish(a.str("out"));
    for (u64 off = 0; off < base; off += kBaseChunk) {
      const std::size_t n = static_cast<std::size_t>(
          base - off < kBaseChunk ? base - off : kBaseChunk);
      for (std::size_t k = 0; k < n; k += io) {
        fill_block(buf.data() + k, io, seed, (off + k) / io);
      }
      backend_delay();
      r.attempt(pwrite(fd, buf.data(), n, static_cast<off_t>(off)) ==
                    static_cast<ssize_t>(n),
                "pwrite(base)");
    }
    r.attempt(close(fd) == 0, "close(base)");
  }
  std::vector<unsigned char> buf(io);
  RwStream stream(seed, base, io);
  u64 read_digest = kFnvBasis;
  int fd = -1;
  const u64 t_start = now_ns();
  timed(r, "open", [&] {
    fd = open(file.c_str(), O_RDWR);
    return fd >= 0;
  });
  if (fd >= 0) {
    for (u64 k = 0; k < ops; ++k) {
      const RwOp op = stream.next();
      const auto off = static_cast<off_t>(op.offset);
      if (op.is_read) {
        timed(r, "read", [&] {
          backend_delay();
          return pread(fd, buf.data(), io, off) == static_cast<ssize_t>(io);
        });
        read_digest = fnv1a(buf.data(), io, read_digest);
      } else {
        // Rewritten blocks get fresh content: block ids past the base range.
        fill_block(buf.data(), io, seed, base / io + k);
        timed(r, "write", [&] {
          backend_delay();
          return pwrite(fd, buf.data(), io, off) == static_cast<ssize_t>(io);
        });
      }
    }
    timed(r, "close", [&] { return close(fd) == 0; });
  }
  r.set("stream_ns", now_ns() - t_start);
  r.set("digest_reads", read_digest);
  r.set("digest_final", file_digest(file, r));
  return r.finish(a.str("out"));
}

// Seeded text for the coreutils workload: 64-byte lines, about one in 512
// carrying NEEDLE. Never run under the shim.
int gen_text(const Args& a) {
  const std::string file = a.str("file");
  const u64 bytes = a.num("bytes");
  Rng rng(a.num("seed"));
  FILE* f = fopen(file.c_str(), "w");
  if (f == nullptr) return 4;
  char line[80];
  for (u64 off = 0; off + 64 <= bytes; off += 64) {
    // 5 + 12 + 9 + 16 + 9 + 12 = 63 characters, then the newline.
    snprintf(line, sizeof line, "line %12llu payload %016llx pattern %-12s",
             static_cast<unsigned long long>(off),
             static_cast<unsigned long long>(rng.next()),
             rng.below(512) == 0 ? "NEEDLE" : "hay");
    line[63] = '\n';
    if (fwrite(line, 1, 64, f) != 64) return 4;
  }
  return fclose(f) == 0 ? 0 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    fprintf(stderr, "usage: ldp-bench-app MODE key=value...\n");
    return 2;
  }
  Args args;
  for (int i = 2; i < argc; ++i) {
    const char* eq = strchr(argv[i], '=');
    if (eq == nullptr) {
      fprintf(stderr, "ldp-bench-app: bad argument %s\n", argv[i]);
      return 2;
    }
    args.kv[std::string(argv[i], static_cast<std::size_t>(eq - argv[i]))] =
        eq + 1;
  }
  const auto delay = args.kv.find("delay_us");
  if (delay != args.kv.end()) g_delay_us = strtoull(delay->second.c_str(), nullptr, 10);
  const std::string mode = argv[1];
  if (mode == "ckpt-write") return ckpt_write(args);
  if (mode == "ckpt-read") return ckpt_read(args);
  if (mode == "small-rw") return small_rw(args);
  if (mode == "gen-text") return gen_text(args);
  fprintf(stderr, "ldp-bench-app: unknown mode %s\n", mode.c_str());
  return 2;
}
