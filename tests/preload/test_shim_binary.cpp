// Checks on the built libldplfs.so itself rather than on its behaviour:
// every name in interposed.def must be an entry point the .so defines, and
// loading the .so must cost each thread only a small TLS block. The --wrap
// library needs no such check: its entry points and its link flags come
// from the same list and the same source.
//
// Build passes -DLDPLFS_PRELOAD_LIB with the artifact path.
#include <dlfcn.h>
#include <elf.h>
#include <gtest/gtest.h>
#include <link.h>

#include <cstring>
#include <fstream>

namespace {

constexpr const char* kInterposed[] = {
#define LDPLFS_REAL(name) #name,
#define LDPLFS_ALIAS(name) #name,
#include "preload/interposed.def"
#undef LDPLFS_ALIAS
#undef LDPLFS_REAL
};

TEST(ShimBinaryTest, DefinesEveryInterposedName) {
  // RTLD_LOCAL keeps the shim's symbols out of this process's global scope;
  // dlsym on the handle still searches the shim first, then its libc.
  void* lib = ::dlopen(LDPLFS_PRELOAD_LIB, RTLD_LAZY | RTLD_LOCAL);
  ASSERT_NE(lib, nullptr) << ::dlerror();
  for (const char* name : kInterposed) {
    void* sym = ::dlsym(lib, name);
    ASSERT_NE(sym, nullptr) << name;
    Dl_info info{};
    ASSERT_NE(::dladdr(sym, &info), 0) << name;
    EXPECT_STREQ(info.dli_fname, LDPLFS_PRELOAD_LIB)
        << name << " resolves outside the shim";
  }
}

TEST(ShimBinaryTest, ThreadLocalBlockIsSmall) {
  // glibc allocates and zero-fills the shim's PT_TLS block in every thread
  // of every process that preloads it, mount or no mount.
  std::ifstream in(LDPLFS_PRELOAD_LIB, std::ios::binary);
  ElfW(Ehdr) eh{};
  ASSERT_TRUE(in.read(reinterpret_cast<char*>(&eh), sizeof eh));
  ASSERT_EQ(std::memcmp(eh.e_ident, ELFMAG, SELFMAG), 0);
  ASSERT_EQ(eh.e_phentsize, sizeof(ElfW(Phdr)));
  bool has_tls = false;
  for (int i = 0; i < eh.e_phnum; ++i) {
    ElfW(Phdr) ph{};
    in.seekg(static_cast<std::streamoff>(eh.e_phoff + i * sizeof ph));
    ASSERT_TRUE(in.read(reinterpret_cast<char*>(&ph), sizeof ph));
    if (ph.p_type != PT_TLS) continue;
    has_tls = true;
    EXPECT_LE(ph.p_memsz, 4096u);
  }
  EXPECT_TRUE(has_tls) << "the reentry guard is thread-local";
}

}  // namespace
