"""The five workloads and the context they run in.

Every workload is a closed loop: one client issues a rep, waits for it to
finish and checks its output, then issues the next. A rep runs the
workload's stream in up to three modes:

  shim   the shim is loaded and the files live under the PLFS mount;
  pass   the shim is loaded and the files are plain, outside the mount;
  floor  no shim, plain files: the libc cost of the same stream.

All load comes from unmodified programs: ldp-bench-app and coreutils,
each started through the ldp-bench-run launcher.
"""

import fcntl
import hashlib
import os
import shutil
import struct
import time

import procs

MiB = 1 << 20

FS_IOC_GETFLAGS = 0x80086601
FS_IOC_SETFLAGS = 0x40086602
FS_TOPDIR_FL = 0x00020000


def fresh_dir(path):
    """Create `path` and mark it a top directory for the ext4 allocator.

    Every rep creates and deletes inodes: a container, its droppings and
    the shim's shadow files. On ext4 without a journal, allocating an inode
    skips, one by one, every inode its block group freed in the last
    minutes (recently_deleted() in fs/ext4/ialloc.c), so a create can cost
    hundreds of microseconds of kernel time after earlier deletes, and a
    rep would pay for the reps and runs before it. With the
    TOPDIR flag ext4 places each subdirectory in a block group of its own
    (the Orlov allocator), so the per-rep directories made here never share
    a group with recently freed inodes. Where the flag is not supported
    nothing changes.
    """
    path.mkdir(parents=True)
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return
    try:
        flags = struct.unpack("l", fcntl.ioctl(fd, FS_IOC_GETFLAGS, struct.pack("l", 0)))[0]
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, struct.pack("l", flags | FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(fd)


class Rep:
    """Outcome of one rep in one mode."""

    def __init__(self):
        self.wall_ns = 0
        self.lat = {"write": [], "read": []}
        self.write_bytes = 0
        self.write_ns = 0
        self.read_bytes = 0
        self.read_ns = 0
        self.ops = 0
        self.ops_ns = 0
        self.exits = []
        self.dumps = []

    @property
    def cpu_s(self):
        return sum(e.cpu_s for e in self.exits)

    @property
    def peak_rss_MiB(self):
        return max((e.rusage.ru_maxrss for e in self.exits), default=0) / 1024


def parse_result(path):
    """The load app's result file: scalars and per-call latency lists."""
    scalars, lat = {}, {}
    try:
        with open(path) as f:
            for line in f:
                parts = line.split()
                if parts and parts[0] == "lat":
                    lat[parts[1]] = [int(v) for v in parts[2:]]
                elif len(parts) == 2:
                    scalars[parts[0]] = int(parts[1])
    except OSError:
        return None
    return {"scalars": scalars, "lat": lat}


class Ctx:
    """Paths, environments and failure accounting of one benchmark run."""

    def __init__(self, tools, ws, seed, quick, timeout_s):
        self.app, self.so, self.replay, self.runner = tools
        self.ws = ws
        self.seed = seed
        self.quick = quick
        self.timeout_s = timeout_s
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.faults = ""
        self.trace_dir = None  # where a traced run keeps its dumps
        self.stats_dir = None  # set during traced reps: LDPLFS_STATS dumps
        self.dumps = []        # dump paths the traced children must leave
        self.seq = 0
        self.rep_dir = None
        base = {k: v for k, v in os.environ.items()
                if not k.startswith("LDPLFS_") and k != "LD_PRELOAD"}
        base["LC_ALL"] = "C"
        self.base_env = base
        fresh_dir(ws)
        (ws / "log").mkdir()
        (ws / "tmp").mkdir()

    @property
    def mnt(self):
        return self.rep_dir / "mnt"

    @property
    def plain(self):
        return self.rep_dir / "plain"

    def enter_rep(self):
        """Give the next rep fresh directories: mount, plain files, TMPDIR."""
        self.seq += 1
        self.rep_dir = self.ws / f"rep{self.seq}"
        for sub in ("mnt", "plain", "tmp", "res"):
            (self.rep_dir / sub).mkdir(parents=True)

    def leave_rep(self):
        shutil.rmtree(self.rep_dir, ignore_errors=True)
        self.rep_dir = None

    def dir_for(self, mode):
        return self.mnt if mode == "shim" else self.plain

    def child_env(self, mode, proc_name):
        """Variables for the measured program only, not its launcher."""
        here = self.rep_dir or self.ws
        env = {"TMPDIR": str(here / "tmp")}
        if mode != "floor":
            env["LD_PRELOAD"] = str(self.so)
            env["LDPLFS_MOUNTS"] = str(here / "mnt")
            if self.faults:
                env["LDPLFS_FAULTS"] = self.faults
            if self.stats_dir is not None:
                dump = self.stats_dir / f"{proc_name}.{self.seq}.json"
                env["LDPLFS_STATS"] = str(dump)
                self.dumps.append(dump)
        return env

    def res_path(self, name):
        self.seq += 1
        return (self.rep_dir / "res" if self.rep_dir else self.ws / "log") / f"{name}.{self.seq}"

    def launch(self, name, argv, child_env, timeout_s, gate=False):
        return procs.Proc(name, self.runner, argv, self.base_env, child_env,
                          self.res_path(f"{name}.run"), str(self.ws / "log" / f"{name}.err"),
                          timeout_s, gate=gate)

    def spawn(self, name, argv, mode, gate=False):
        self.seq += 1
        return self.launch(name, argv, self.child_env(mode, name), self.timeout_s, gate)

    def run(self, name, argv, mode):
        return self.spawn(name, argv, mode).finish()

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check_tool(self, ex, rep):
        """Account one exec of a tool."""
        rep.exits.append(ex)
        self.attempted += 1
        if not ex.ok:
            self.fail(f"{ex.name} exited {ex.code}{' (killed)' if ex.killed else ''}")

    def app_result(self, ex, res, rep):
        """Account one exec of the load app; returns its parsed results."""
        rep.exits.append(ex)
        r = parse_result(res)
        if r is None:
            self.attempted += 1
            self.fail(f"{ex.name}: no result (exit {ex.code})")
            return {"scalars": {}, "lat": {}}
        self.attempted += r["scalars"].get("attempted", 0)
        app_failed = r["scalars"].get("failed", 0)
        self.failed += app_failed
        if app_failed:
            self.errors.append(f"{ex.name}: {app_failed} failed calls")
        elif not ex.ok:
            self.fail(f"{ex.name} exited {ex.code}")
        return r


class Workload:
    """One workload. Why each exists is recorded in BENCHMARK.json."""
    name = ""
    # Modeled backend latency per read/write call, in microseconds: the
    # shim's backend gets it through LDPLFS_FAULTS, and the plain-file modes
    # get it from the load app, so they are the same stream on the same
    # modeled file system.
    delay_us = 0

    @property
    def faults(self):
        d = self.delay_us
        return f"pread:delay={d},pwrite:delay={d}" if d else ""

    def app_delay(self, mode):
        return [f"delay_us={self.delay_us}"] if self.delay_us and mode != "shim" else []

    def sizes(self, quick):
        raise NotImplementedError

    def setup(self, ctx):
        """Build the inputs and references one set-up needs."""

    def rep(self, ctx, mode):
        raise NotImplementedError

    def replay_args(self, ctx):
        return dict(self.sizes(ctx.quick), seed=ctx.seed)


class Checkpoint(Workload):
    """4 ranks write one N-1 strided checkpoint, then a restart read."""
    name = "n1_checkpoint"

    def sizes(self, quick):
        return {"ranks": 4, "blocks": 64 if quick else 1024,
                "block": 64 * 1024, "chunk": MiB}

    def rep(self, ctx, mode):
        s = self.sizes(ctx.quick)
        f = ctx.dir_for(mode) / "ckpt"
        shape = [f"{k}={s[k]}" for k in ("ranks", "blocks", "block")]
        shape += [f"seed={ctx.seed}", *self.app_delay(mode)]
        rep = Rep()
        t0 = time.perf_counter_ns()
        deadline = time.monotonic() + ctx.timeout_s
        outs = [ctx.res_path(f"rank{r}") for r in range(s["ranks"])]
        ranks = [ctx.spawn(f"rank{r}", [ctx.app, "ckpt-write", f"file={f}",
                                        f"rank={r}", *shape, f"out={outs[r]}",
                                        "gate=1"], mode, gate=True)
                 for r in range(s["ranks"])]
        # All ranks start writing together, as after an MPI barrier.
        for p in ranks:
            p.read_ready(deadline)
        for p in ranks:
            p.release()
        starts, ends = [], []
        for p, out in zip(ranks, outs):
            r = ctx.app_result(p.finish(), out, rep)
            rep.lat["write"] += r["lat"].get("write", [])
            sc = r["scalars"]
            starts.append(sc.get("t_start_ns", 0))
            ends.append(sc.get("t_end_ns", 0))
            rep.write_bytes += sc.get("bytes_written", 0)
            rep.ops += sum(len(r["lat"].get(k, [])) for k in ("open", "write", "close"))
        rep.write_ns = max(ends) - min(starts) if all(starts + ends) else 0
        out = ctx.res_path("reader")
        ex = ctx.run("reader", [ctx.app, "ckpt-read", f"file={f}", *shape,
                                f"chunk={s['chunk']}", f"out={out}", "unlink=1"],
                     mode)
        r = ctx.app_result(ex, out, rep)
        rep.lat["read"] = r["lat"].get("read", [])
        rep.read_bytes = r["scalars"].get("bytes_read", 0)
        calls = [v for k in ("open", "read", "close") for v in r["lat"].get(k, [])]
        rep.read_ns = sum(calls)
        rep.ops += len(calls)
        rep.ops_ns = rep.write_ns + rep.read_ns
        rep.wall_ns = time.perf_counter_ns() - t0
        return rep


class CheckpointPfs(Checkpoint):
    """The checkpoint with 500 us per backend pread/pwrite (a modeled PFS)."""
    name = "n1_checkpoint_pfs"
    delay_us = 500


class Coreutils(Workload):
    """cp in, cat, grep -c, md5sum, cp out: unmodified coreutils."""
    name = "coreutils"

    def sizes(self, quick):
        return {"bytes": (4 if quick else 64) * MiB}

    def setup(self, ctx):
        size = self.sizes(ctx.quick)["bytes"]
        self.src = ctx.ws / "input.txt"
        ex = ctx.run("gen-text", [ctx.app, "gen-text", f"file={self.src}",
                                  f"bytes={size}", f"seed={ctx.seed}"], "floor")
        ctx.check_tool(ex, Rep())
        md5 = hashlib.md5()
        needles = 0
        with open(self.src, "rb") as f:
            while chunk := f.read(MiB):
                md5.update(chunk)
                needles += chunk.count(b"NEEDLE")
        self.ref_md5 = md5.hexdigest()
        self.ref_size = size
        self.ref_needles = needles

    def rep(self, ctx, mode):
        target = ctx.dir_for(mode) / "data.txt"
        copy = ctx.plain / "copy.txt"
        rep = Rep()
        t0 = time.perf_counter_ns()
        cp_in = ctx.run("cp_in", ["cp", self.src, target], mode)
        cat = ctx.run("cat", ["cat", target], mode)
        grep = ctx.run("grep", ["grep", "-c", "NEEDLE", target], mode)
        md5 = ctx.run("md5sum", ["md5sum", target], mode)
        cp_out = ctx.run("cp_out", ["cp", target, copy], mode)
        rep.wall_ns = time.perf_counter_ns() - t0
        for ex in (cp_in, cat, grep, md5, cp_out):
            ctx.check_tool(ex, rep)
        if cat.stdout.size != self.ref_size or cat.stdout.md5.hexdigest() != self.ref_md5:
            ctx.fail(f"cat output differs ({mode})")
        if grep.stdout.text().strip() != str(self.ref_needles):
            ctx.fail(f"grep -c printed {grep.stdout.text().strip()!r} ({mode})")
        if md5.stdout.text().split()[:1] != [self.ref_md5]:
            ctx.fail(f"md5sum printed {md5.stdout.text().strip()!r} ({mode})")
        if not same_file(copy, self.src):
            ctx.fail(f"cp out differs from the input ({mode})")
        reads = (cat, grep, md5, cp_out)
        rep.write_bytes = self.ref_size
        rep.write_ns = cp_in.wall_ns
        rep.read_bytes = self.ref_size * len(reads)
        rep.read_ns = sum(e.wall_ns for e in reads)
        rep.lat["write"] = [cp_in.wall_ns]
        rep.lat["read"] = [rep.read_ns]
        rep.ops = 5
        rep.ops_ns = rep.write_ns + rep.read_ns
        return rep


def same_file(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            while True:
                x, y = fa.read(MiB), fb.read(MiB)
                if x != y:
                    return False
                if not x:
                    return True
    except OSError:
        return False


class SmallRw(Workload):
    """Alternating random 4 KiB pwrite/pread on a freshly built container."""
    name = "small_rw"

    def sizes(self, quick):
        return {"base": (2 if quick else 32) * MiB, "ops": 125 if quick else 2000,
                "io": 4096}

    def args(self, ctx, mode, out):
        s = self.sizes(ctx.quick)
        return [ctx.app, "small-rw", f"file={ctx.dir_for(mode) / 'rw.dat'}",
                *(f"{k}={v}" for k, v in s.items()), f"seed={ctx.seed}",
                f"out={out}", *self.app_delay(mode)]

    def setup(self, ctx):
        # The reference: the same stream applied to a plain file, no shim.
        ctx.enter_rep()
        out = ctx.res_path("small_rw_ref")
        ex = ctx.run("small_rw_ref", self.args(ctx, "floor", out), "floor")
        sc = ctx.app_result(ex, out, Rep())["scalars"]
        ctx.leave_rep()
        self.ref = (sc.get("digest_reads"), sc.get("digest_final"))

    def rep(self, ctx, mode):
        rep = Rep()
        out = ctx.res_path("small_rw")
        t0 = time.perf_counter_ns()
        ex = ctx.run("small_rw", self.args(ctx, mode, out), mode)
        rep.wall_ns = time.perf_counter_ns() - t0
        r = ctx.app_result(ex, out, rep)
        sc = r["scalars"]
        if (sc.get("digest_reads"), sc.get("digest_final")) != self.ref:
            ctx.fail(f"small_rw content differs from the plain-file run ({mode})")
        io = self.sizes(ctx.quick)["io"]
        rep.lat = {k: r["lat"].get(k, []) for k in ("write", "read")}
        # Reads and writes interleave, so both directions are timed over
        # the whole stream: each read pays for draining the write before it.
        rep.write_bytes = io * len(rep.lat["write"])
        rep.read_bytes = io * len(rep.lat["read"])
        rep.write_ns = rep.read_ns = rep.ops_ns = sc.get("stream_ns", 0)
        rep.ops = sum(len(v) for v in r["lat"].values())
        return rep


class SmallRwPfs(SmallRw):
    """small_rw with 500 us per backend pread/pwrite (a modeled PFS).

    A quarter of the ops: each read costs several backend calls here, and a
    run still needs several reps.
    """
    name = "small_rw_pfs"
    delay_us = 500

    def sizes(self, quick):
        return dict(super().sizes(quick), ops=32 if quick else 500)


WORKLOADS = {w.name: w for w in (Checkpoint(), CheckpointPfs(), Coreutils(),
                                 SmallRw(), SmallRwPfs())}
