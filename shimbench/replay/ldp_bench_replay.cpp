// ldp-bench-replay: in-process replay of a benchmark workload's op stream
// through three layers in turn: libc on a plain file, the plfs:: API
// (ranks as pids) and core::Router over a mount. The differences between
// the three give each layer's self time per op: Router minus plfs is the
// interposition layer's own cost, plfs minus libc is the PLFS engine's.
//
// Usage: ldp-bench-replay workload=NAME dir=D spans=FILE rounds=N seed=S
//        plus the workload's sizes (the same keys the load app takes).
//
// A span (name, start, end, parent, op id) is recorded around every call
// into a layer's public functions and kept in memory; all spans are written
// to `spans` as JSON at exit. The last line of stdout is a JSON object with
// the op count and, per layer, the median over rounds of the summed call
// time. Exit code 3 on any failed call or wrong result.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stream.hpp"
#include "core/mounts.hpp"
#include "core/real_calls.hpp"
#include "core/router.hpp"
#include "plfs/plfs.hpp"

namespace {

using namespace shimbench;
namespace plfs = ldplfs::plfs;

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "ldp-bench-replay: %s\n", what.c_str());
  std::exit(3);
}

struct Span {
  std::string name;
  u64 start_ns;
  u64 end_ns;
  long parent;
  u64 op;
};

std::vector<Span> g_spans;

// One layer under test. Handles are small integers owned by the layer.
class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;
  virtual int open(const std::string& path, int flags, int rank) = 0;
  virtual long pwrite(int h, const unsigned char* p, std::size_t n,
                      u64 off) = 0;
  virtual long pread(int h, unsigned char* p, std::size_t n, u64 off) = 0;
  virtual bool close(int h) = 0;
  virtual bool unlink(const std::string& path) = 0;
};

class LibcLayer final : public Layer {
 public:
  [[nodiscard]] const char* name() const override { return "libc"; }
  int open(const std::string& path, int flags, int) override {
    return ::open(path.c_str(), flags, 0644);
  }
  long pwrite(int h, const unsigned char* p, std::size_t n, u64 off) override {
    return ::pwrite(h, p, n, static_cast<off_t>(off));
  }
  long pread(int h, unsigned char* p, std::size_t n, u64 off) override {
    return ::pread(h, p, n, static_cast<off_t>(off));
  }
  bool close(int h) override { return ::close(h) == 0; }
  bool unlink(const std::string& path) override {
    return ::unlink(path.c_str()) == 0;
  }
};

class PlfsLayer final : public Layer {
 public:
  [[nodiscard]] const char* name() const override { return "plfs"; }
  int open(const std::string& path, int flags, int rank) override {
    const pid_t pid = 1000 + rank;
    auto fd = plfs::plfs_open(path, flags, pid, 0644);
    if (!fd) return -1;
    handles_.push_back({fd.value(), pid});
    return static_cast<int>(handles_.size() - 1);
  }
  long pwrite(int h, const unsigned char* p, std::size_t n, u64 off) override {
    auto& e = handles_.at(static_cast<std::size_t>(h));
    auto r = plfs::plfs_write(*e.fd, {reinterpret_cast<const std::byte*>(p), n},
                              off, e.pid);
    return r ? static_cast<long>(r.value()) : -1;
  }
  long pread(int h, unsigned char* p, std::size_t n, u64 off) override {
    auto& e = handles_.at(static_cast<std::size_t>(h));
    auto r = plfs::plfs_read(*e.fd, {reinterpret_cast<std::byte*>(p), n}, off);
    return r ? static_cast<long>(r.value()) : -1;
  }
  bool close(int h) override {
    auto& e = handles_.at(static_cast<std::size_t>(h));
    const bool ok = plfs::plfs_close(e.fd, e.pid).ok();
    e.fd.reset();
    return ok;
  }
  bool unlink(const std::string& path) override {
    return plfs::plfs_unlink(path).ok();
  }

 private:
  struct Entry {
    std::shared_ptr<plfs::FileHandle> fd;
    pid_t pid;
  };
  std::vector<Entry> handles_;
};

class RouterLayer final : public Layer {
 public:
  explicit RouterLayer(const std::string& mount)
      : router_(ldplfs::core::libc_calls(), mounts_) {
    mounts_.add(mount);
  }
  [[nodiscard]] const char* name() const override { return "router"; }
  int open(const std::string& path, int flags, int) override {
    return router_.open(path.c_str(), flags, 0644);
  }
  long pwrite(int h, const unsigned char* p, std::size_t n, u64 off) override {
    return router_.pwrite(h, p, n, static_cast<off_t>(off));
  }
  long pread(int h, unsigned char* p, std::size_t n, u64 off) override {
    return router_.pread(h, p, n, static_cast<off_t>(off));
  }
  bool close(int h) override { return router_.close(h) == 0; }
  bool unlink(const std::string& path) override {
    return router_.unlink(path.c_str()) == 0;
  }

 private:
  ldplfs::core::MountTable mounts_;
  ldplfs::core::Router router_;
};

// Runs one stream against one layer, spanning every call.
class Replay {
 public:
  Replay(Layer& layer, long root) : layer_(layer), root_(root) {}

  template <typename F>
  auto call(const char* op, F&& f) {
    const u64 t0 = now_ns();
    auto r = f();
    const u64 t1 = now_ns();
    busy_ns_ += t1 - t0;
    g_spans.push_back({std::string(layer_.name()) + "." + op, t0, t1, root_,
                       ops_++});
    return r;
  }
  [[nodiscard]] u64 busy_ns() const { return busy_ns_; }
  [[nodiscard]] u64 ops() const { return ops_; }
  Layer& layer() { return layer_; }

 private:
  Layer& layer_;
  long root_;
  u64 busy_ns_ = 0;
  u64 ops_ = 0;
};

struct Params {
  std::map<std::string, std::string> kv;
  [[nodiscard]] u64 num(const char* key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) die(std::string("missing ") + key + "=");
    return std::strtoull(it->second.c_str(), nullptr, 10);
  }
  [[nodiscard]] std::string str(const char* key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) die(std::string("missing ") + key + "=");
    return it->second;
  }
};

void expect(bool ok, const char* what) {
  if (!ok) die(std::string(what) + " failed");
}

// Read [0, total) sequentially in `chunk` pieces and verify the payload.
void read_back(Replay& r, int h, u64 total, std::size_t chunk, u64 block,
               u64 seed) {
  std::vector<unsigned char> buf(chunk);
  u64 got = 0;
  for (;;) {
    const long n = r.call("read", [&] {
      return r.layer().pread(h, buf.data(), chunk, got);
    });
    expect(n >= 0, "read");
    if (n == 0) break;
    expect(got + static_cast<u64>(n) <= total &&
               check_range(buf.data(), static_cast<std::size_t>(n), got,
                           block, seed),
           "read content");
    got += static_cast<u64>(n);
  }
  expect(got == total, "read size");
}

// N-1 strided checkpoint: ranks interleave block by block, then a restart
// read of the whole file, then unlink.
void replay_checkpoint(Replay& r, const std::string& path, const Params& p) {
  const u64 ranks = p.num("ranks"), blocks = p.num("blocks");
  const u64 block = p.num("block"), seed = p.num("seed");
  std::vector<unsigned char> payload(block);
  std::vector<int> fds;
  for (u64 k = 0; k < ranks; ++k) {
    fds.push_back(r.call("open", [&] {
      return r.layer().open(path, O_WRONLY | O_CREAT, static_cast<int>(k));
    }));
    expect(fds.back() >= 0, "open(write)");
  }
  for (u64 b = 0; b < blocks; ++b) {
    for (u64 k = 0; k < ranks; ++k) {
      const u64 id = b * ranks + k;
      fill_block(payload.data(), block, seed, id);
      expect(r.call("write", [&] {
        return r.layer().pwrite(fds[k], payload.data(), block, id * block);
      }) == static_cast<long>(block), "write");
    }
  }
  for (const int fd : fds) {
    expect(r.call("close", [&] { return r.layer().close(fd); }), "close");
  }
  const int h = r.call("open", [&] { return r.layer().open(path, O_RDONLY, 0); });
  expect(h >= 0, "open(read)");
  read_back(r, h, ranks * blocks * block, p.num("chunk"), block, seed);
  expect(r.call("close", [&] { return r.layer().close(h); }), "close");
  expect(r.call("unlink", [&] { return r.layer().unlink(path); }), "unlink");
}

// Sequential copy-in then read-back, the I/O shape of cp/cat/grep/md5sum.
void replay_coreutils(Replay& r, const std::string& path, const Params& p) {
  const u64 total = p.num("bytes"), seed = p.num("seed");
  constexpr std::size_t kChunk = 128 * 1024;
  std::vector<unsigned char> buf(kChunk);
  const int w = r.call("open", [&] {
    return r.layer().open(path, O_WRONLY | O_CREAT | O_TRUNC, 0);
  });
  expect(w >= 0, "open(write)");
  for (u64 off = 0; off < total; off += kChunk) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<u64>(kChunk, total - off));
    fill_block(buf.data(), n, seed, off / kChunk);
    expect(r.call("write", [&] {
      return r.layer().pwrite(w, buf.data(), n, off);
    }) == static_cast<long>(n), "write");
  }
  expect(r.call("close", [&] { return r.layer().close(w); }), "close");
  const int h = r.call("open", [&] { return r.layer().open(path, O_RDONLY, 0); });
  expect(h >= 0, "open(read)");
  read_back(r, h, total, kChunk, kChunk, seed);
  expect(r.call("close", [&] { return r.layer().close(h); }), "close");
  expect(r.call("unlink", [&] { return r.layer().unlink(path); }), "unlink");
}

// Returns the digest of every pread, which must agree across layers.
u64 replay_small_rw(Replay& r, const std::string& path, const Params& p) {
  const u64 base = p.num("base"), ops = p.num("ops"), io = p.num("io");
  const u64 seed = p.num("seed");
  Layer& l = r.layer();
  {
    // Untimed and unspanned: the base file.
    std::vector<unsigned char> buf(1u << 20);
    const int h = l.open(path, O_CREAT | O_WRONLY | O_TRUNC, 0);
    expect(h >= 0, "open(base)");
    for (u64 off = 0; off < base; off += buf.size()) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<u64>(buf.size(), base - off));
      for (std::size_t k = 0; k < n; k += io) {
        fill_block(buf.data() + k, io, seed, (off + k) / io);
      }
      expect(l.pwrite(h, buf.data(), n, off) == static_cast<long>(n),
             "pwrite(base)");
    }
    expect(l.close(h), "close(base)");
  }
  std::vector<unsigned char> buf(io);
  RwStream stream(seed, base, io);
  u64 digest = kFnvBasis;
  const int h = r.call("open", [&] { return l.open(path, O_RDWR, 0); });
  expect(h >= 0, "open");
  for (u64 k = 0; k < ops; ++k) {
    const RwOp op = stream.next();
    if (op.is_read) {
      expect(r.call("read", [&] {
        return l.pread(h, buf.data(), io, op.offset);
      }) == static_cast<long>(io), "read");
      digest = fnv1a(buf.data(), io, digest);
    } else {
      fill_block(buf.data(), io, seed, base / io + k);
      expect(r.call("write", [&] {
        return l.pwrite(h, buf.data(), io, op.offset);
      }) == static_cast<long>(io), "write");
    }
  }
  expect(r.call("close", [&] { return l.close(h); }), "close");
  expect(l.unlink(path), "unlink");
  return digest;
}

void write_spans(const std::string& file) {
  std::FILE* f = std::fopen(file.c_str(), "w");
  if (f == nullptr) die("cannot write " + file);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %ld, \"op\": %llu}%s\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.op),
                 i + 1 < g_spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  if (std::fclose(f) != 0) die("cannot write " + file);
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  for (int i = 1; i < argc; ++i) {
    const char* eq = std::strchr(argv[i], '=');
    if (eq == nullptr) die(std::string("bad argument ") + argv[i]);
    p.kv[std::string(argv[i], static_cast<std::size_t>(eq - argv[i]))] =
        eq + 1;
  }
  const std::string workload = p.str("workload");
  const std::string dir = p.str("dir");
  const u64 rounds = p.num("rounds");

  std::map<std::string, std::vector<u64>> busy;
  std::map<std::string, u64> digests;
  u64 ops = 0;
  for (u64 round = 0; round < rounds; ++round) {
    LibcLayer libc;
    PlfsLayer plfs_layer;
    RouterLayer router(dir + "/mnt");
    // Each layer gets its own directory; the order rotates per round so no
    // layer always runs on the coldest or warmest caches.
    std::vector<std::pair<Layer*, std::string>> layers = {
        {&libc, dir + "/plain"},
        {&plfs_layer, dir + "/plfs"},
        {&router, dir + "/mnt"}};
    std::rotate(layers.begin(), layers.begin() + static_cast<long>(round % 3),
                layers.end());
    for (auto& [layer, where] : layers) {
      const auto root = static_cast<long>(g_spans.size());
      g_spans.push_back({std::string("replay.") + layer->name(), now_ns(), 0,
                         -1, round});
      Replay r(*layer, root);
      const std::string file = where + "/replay.dat";
      if (workload == "n1_checkpoint" || workload == "n1_checkpoint_pfs") {
        replay_checkpoint(r, file, p);
      } else if (workload == "coreutils") {
        replay_coreutils(r, file, p);
      } else if (workload == "small_rw" || workload == "small_rw_pfs") {
        digests[layer->name()] = replay_small_rw(r, file, p);
      } else {
        die("unknown workload " + workload);
      }
      g_spans[static_cast<std::size_t>(root)].end_ns = now_ns();
      busy[layer->name()].push_back(r.busy_ns());
      ops = r.ops();
    }
    if (!digests.empty() && (digests["libc"] != digests["plfs"] ||
                             digests["libc"] != digests["router"])) {
      die("small_rw read digests differ between layers");
    }
  }
  write_spans(p.str("spans"));
  auto median = [](std::vector<u64> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::printf("{\"ops\": %llu, \"spans\": %zu, \"libc_ns\": %llu, "
              "\"plfs_ns\": %llu, \"router_ns\": %llu}\n",
              static_cast<unsigned long long>(ops), g_spans.size(),
              static_cast<unsigned long long>(median(busy["libc"])),
              static_cast<unsigned long long>(median(busy["plfs"])),
              static_cast<unsigned long long>(median(busy["router"])));
  return 0;
}
