"""Child processes of the benchmark, each started through ldp-bench-run.

The launcher forks the measured program from a small process, applies the
child-only environment, kills it at its timeout, and reports its exit
status, wall time, rusage and /proc/<pid>/io (see app/ldp_bench_run.cpp).
run.py only streams the child's stdout and reaps the launcher.
"""

import ctypes
import hashlib
import os
import selectors
import signal
import time

# Launchers not yet reaped, so an interrupted run can kill and reap them.
_live = {}

# Time the launcher gets beyond its child's timeout before it is killed.
LAUNCHER_GRACE_S = 30


class Usage:
    """The rusage fields the launcher reports."""

    def __init__(self, fields):
        self.ru_utime = fields.get("utime_us", 0) / 1e6
        self.ru_stime = fields.get("stime_us", 0) / 1e6
        self.ru_maxrss = fields.get("maxrss_kb", 0)
        self.ru_nvcsw = fields.get("nvcsw", 0)


class Exit:
    """What one finished child did: status, time, I/O and resources."""

    def __init__(self, name, report, stdout):
        self.name = name
        self.code = report.get("code", -1)
        self.killed = bool(report.get("killed", 1))
        self.wall_ns = report.get("wall_ns", 0)
        self.io = {k: report.get(k, 0) for k in
                   ("rchar", "wchar", "syscr", "syscw", "read_bytes", "write_bytes")}
        self.rusage = Usage(report)
        self.stdout = stdout

    @property
    def ok(self):
        return not self.killed and self.code == 0

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime


class Stdout:
    """A child's standard output: byte count, MD5 and its first 4 KiB."""

    def __init__(self):
        self.size = 0
        self.md5 = hashlib.md5()
        self.head = b""

    def add(self, data):
        self.size += len(data)
        self.md5.update(data)
        if len(self.head) < 4096:
            self.head += data[: 4096 - len(self.head)]

    def text(self):
        return self.head.decode("utf-8", "replace")


def read_report(path):
    try:
        with open(path) as f:
            return {k: int(v) for k, v in (ln.split() for ln in f if ln.strip())}
    except (OSError, ValueError):
        return {}


class Proc:
    """One child, started through the launcher.

    `env` is the launcher's environment; `child_env` is added for the
    measured program only. `gate` gives the child a stdin pipe that run.py
    writes to.
    """

    def __init__(self, name, launcher, argv, env, child_env, report, stderr_path,
                 timeout_s, gate=False):
        self.name = name
        self.report = report
        self.timeout_s = timeout_s
        self.stdout = Stdout()
        cmd = [str(launcher), str(report), str(int(timeout_s * 1000))]
        for k, v in child_env.items():
            cmd += ["-e", f"{k}={v}"]
        cmd += ["--", *map(str, argv)]
        out_r, out_w = os.pipe()
        in_r, in_w = os.pipe() if gate else (os.open(os.devnull, os.O_RDONLY), None)
        err = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        actions = [
            (os.POSIX_SPAWN_DUP2, in_r, 0),
            (os.POSIX_SPAWN_DUP2, out_w, 1),
            (os.POSIX_SPAWN_DUP2, err, 2),
        ]
        try:
            self.pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions,
                                      setsigdef=(signal.SIGPIPE,))
        finally:
            for fd in (in_r, out_w, err):
                os.close(fd)
        _live[self.pid] = self
        self.out = out_r
        self.stdin = in_w

    def read_ready(self, deadline):
        """Wait for the one-byte ready mark of a gated child."""
        sel = selectors.DefaultSelector()
        sel.register(self.out, selectors.EVENT_READ)
        try:
            if not sel.select(max(0.0, deadline - time.monotonic())):
                return False
            return os.read(self.out, 1) == b"R"
        finally:
            sel.close()

    def release(self):
        """Let a gated child start."""
        try:
            os.write(self.stdin, b"G")
        except OSError:
            pass
        os.close(self.stdin)
        self.stdin = None

    def finish(self):
        """Drain stdout until the launcher and its child are gone, reap."""
        deadline = time.monotonic() + self.timeout_s + LAUNCHER_GRACE_S
        sel = selectors.DefaultSelector()
        sel.register(self.out, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(left):
                # The launcher hung; its child dies with it.
                os.kill(self.pid, signal.SIGKILL)
                break
            data = os.read(self.out, 1 << 20)
            if not data:
                break
            self.stdout.add(data)
        sel.close()
        os.waitpid(self.pid, 0)
        _live.pop(self.pid, None)
        for fd in (self.out, self.stdin):
            if fd is not None:
                os.close(fd)
        return Exit(self.name, read_report(self.report), self.stdout)


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper():
    """Adopt orphans: a child whose launcher was killed is reaped here."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def kill_all():
    """Kill every launcher still alive, then reap every child and orphan."""
    for pid in list(_live):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _live.clear()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
