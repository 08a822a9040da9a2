// ldp-bench-run: runs one benchmark child and reports what it cost.
//
// Usage: ldp-bench-run REPORT TIMEOUT_MS [-e NAME=VALUE]... -- PROGRAM ARGS...
//
// Forks and execs PROGRAM with the -e variables added to its environment
// (the launcher itself runs without them, so LD_PRELOAD and LDPLFS_STATS
// reach only the measured program). Standard streams are inherited. The
// child is killed when it outlives TIMEOUT_MS, and it dies with the
// launcher (PR_SET_PDEATHSIG).
//
// Why a launcher: a process made by posix_spawn or fork from run.py
// starts on a copy of the Python process's memory, and exec records that memory's
// high-water mark in the child's ru_maxrss. Forked from this small
// process, the child's peak RSS is its own.
//
// When the child exits, waitid(WNOWAIT) keeps it a zombie while its
// /proc/<pid>/io is read; wait4 then reaps it and yields its rusage. REPORT
// gets `key value` lines: exit code, killed, wall_ns (fork to exit), the
// rusage fields and the /proc/<pid>/io counters. The launcher exits with
// the child's exit code, or 128 + signal.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stream.hpp"

namespace {

using shimbench::now_ns;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: ldp-bench-run REPORT TIMEOUT_MS [-e NAME=VALUE]... -- "
               "PROGRAM ARGS...\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) usage();
  const char* report = argv[1];
  const long timeout_ms = std::strtol(argv[2], nullptr, 10);
  std::vector<char*> env_add;
  int i = 3;
  for (; i < argc && std::strcmp(argv[i], "--") != 0; ++i) {
    if (std::strcmp(argv[i], "-e") != 0 || i + 1 >= argc) usage();
    env_add.push_back(argv[++i]);
  }
  if (i + 1 >= argc) usage();
  char** child_argv = argv + i + 1;

  const pid_t parent = ::getpid();
  const std::uint64_t t0 = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("ldp-bench-run: fork");
    return 2;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    for (char* kv : env_add) ::putenv(kv);
    ::execvp(child_argv[0], child_argv);
    std::fprintf(stderr, "ldp-bench-run: exec %s: %s\n", child_argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }

  bool killed = false;
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (pidfd >= 0) {
    struct pollfd p = {pidfd, POLLIN, 0};
    int r;
    while ((r = ::poll(&p, 1, static_cast<int>(timeout_ms))) < 0 &&
           errno == EINTR) {
    }
    if (r == 0) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
  }
  siginfo_t info;
  while (::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) !=
             0 &&
         errno == EINTR) {
  }
  const std::uint64_t wall_ns = now_ns() - t0;

  std::string io;
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%d/io", static_cast<int>(pid));
  if (std::FILE* f = std::fopen(path, "r")) {
    char line[128];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (char* colon = std::strchr(line, ':')) *colon = ' ';
      io += line;
    }
    std::fclose(f);
  }
  int status = 0;
  struct rusage ru {};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  const int code = WIFEXITED(status)     ? WEXITSTATUS(status)
                   : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                         : 255;

  std::FILE* out = std::fopen(report, "w");
  if (out == nullptr) {
    std::perror("ldp-bench-run: report");
    return 2;
  }
  auto us = [](const timeval& tv) {
    return static_cast<long long>(tv.tv_sec) * 1000000 + tv.tv_usec;
  };
  std::fprintf(out,
               "code %d\nkilled %d\nwall_ns %llu\nutime_us %lld\n"
               "stime_us %lld\nmaxrss_kb %ld\nnvcsw %ld\nnivcsw %ld\n%s",
               code, killed ? 1 : 0, static_cast<unsigned long long>(wall_ns),
               us(ru.ru_utime), us(ru.ru_stime), ru.ru_maxrss, ru.ru_nvcsw,
               ru.ru_nivcsw, io.c_str());
  if (std::fclose(out) != 0) return 2;
  return code;
}
