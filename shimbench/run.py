#!/usr/bin/env python3
"""End-to-end benchmark of LDPLFS through the real LD_PRELOAD shim.

Run from the root of a checkout of the repository:

  python3 shimbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
  python3 shimbench/run.py --workload all --seed N --repeat 10 --json a.json
  python3 shimbench/run.py --compare a.json b.json
  python3 shimbench/run.py --list

It builds the shim and the repository libraries with the repository's own
CMake build (into .bench_build/), builds its own programs from
shimbench/CMakeLists.txt, then measures one workload as a closed loop for
--seconds. The end-to-end metrics BENCHMARK.json lists are printed as
`workload metric value unit` lines; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. With --trace 1
it prints the per-layer metrics instead, taken from a separate traced run;
see shimbench/BENCHMARKING.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import procs
import stats
from workloads import WORKLOADS, Ctx, Rep, fresh_dir

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
RUNS = ROOT / ".bench_run"
CHILD_TIMEOUT_S = 60
REPORT_SCHEMA = 5
# shim: the shim loaded, files under the mount; pass: the shim loaded, plain
# files off the mount; floor: plain files without the shim.
MODES = ["shim", "pass", "floor"]


def die(msg, code=2):
    print(f"shimbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


# --- build -----------------------------------------------------------------

def build():
    """Build the shim, the libraries the replay links, and our programs."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "preload").is_dir():
        die("run from the root of a checkout of the repository (no sources here)")
    jobs = str(min(4, os.cpu_count() or 1))
    lib_dir, pkg_dir = BUILD / "ldplfs", BUILD / "shimbench"
    log = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (lib_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", lib_dir, "-j", jobs, "--target", "ldplfs", "ldplfs_core"])
    if not (pkg_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", BENCH, "-B", pkg_dir, "-DCMAKE_BUILD_TYPE=Release",
                      f"-DLDPLFS_SOURCE_DIR={ROOT}", f"-DLDPLFS_BUILD_DIR={lib_dir}"])
    steps.append(["cmake", "--build", pkg_dir, "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.call([str(c) for c in cmd], stdout=f, stderr=subprocess.STDOUT) != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build step failed: {' '.join(map(str, cmd))} (log: {log})")
    tools = (pkg_dir / "ldp-bench-app", lib_dir / "src" / "preload" / "libldplfs.so",
             pkg_dir / "ldp-bench-replay", pkg_dir / "ldp-bench-run")
    for t in tools:
        if not t.exists():
            die(f"build did not produce {t}")
    return tools


# --- one workload ------------------------------------------------------------

def one_rep(w, ctx, mode):
    ctx.enter_rep()
    try:
        return w.rep(ctx, mode)
    finally:
        ctx.leave_rep()


def set_up(w, ctx):
    """One set-up: inputs, references and an untimed warm-up rep per mode."""
    t0 = time.perf_counter()
    w.setup(ctx)
    for mode in MODES:
        one_rep(w, ctx, mode)
    return time.perf_counter() - t0


def measure(w, ctx, seconds, modes):
    """Closed loop: cycle through `modes` until the time is up.

    Returns {mode: [Rep]}. The order of the modes alternates between cycles
    so that no mode always runs right after another.
    """
    out = {m: [] for m in modes}
    deadline = time.monotonic() + seconds
    cycle = 0
    while cycle < 1 or (not ctx.quick and (cycle < 3 or time.monotonic() < deadline)):
        order = modes if cycle % 2 == 0 else list(reversed(modes))
        for m in order:
            ctx.stats_dir = ctx.trace_dir if m == "traced" else None
            first = len(ctx.dumps)
            rep = one_rep(w, ctx, "shim" if m == "traced" else m)
            rep.dumps = ctx.dumps[first:]
            out[m].append(rep)
            ctx.stats_dir = None
        cycle += 1
    return out


def rate(reps, amount, ns):
    """Work over time, summed over all reps of the run."""
    total_ns = sum(getattr(r, ns) for r in reps)
    return sum(getattr(r, amount) for r in reps) / total_ns * 1e9 if total_ns else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def absolute(reps):
    """The absolute numbers of one mode's reps."""
    lat = {k: sorted(v for r in reps for v in r.lat[k]) for k in ("read", "write")}
    m = {
        "write_MBps": rate(reps, "write_bytes", "write_ns") / 1e6,
        "read_MBps": rate(reps, "read_bytes", "read_ns") / 1e6,
        "ops_per_s": rate(reps, "ops", "ops_ns"),
        "cpu_s": stats.median([r.cpu_s for r in reps]),
        "peak_rss_MiB": stats.median([r.peak_rss_MiB for r in reps]),
        "read_p90_us": stats.percentile(lat["read"], stats.tail_quantile(len(lat["read"]))) / 1e3,
    }
    for k, v in lat.items():
        m[f"{k}_p50_us"] = stats.percentile(v, 0.5) / 1e3
        m[f"{k}_p99_us"] = stats.percentile(v, 0.99) / 1e3
    return m


def end_to_end(setups, out):
    """Ratios of the shim-mounted run to the plain-file run without the shim.

    Both modes run in the same cycles, so a slowdown of the whole machine
    moves both and cancels; absolute numbers on a shared machine drift by
    30-50 % for minutes at a time. They are printed as notes.
    """
    shim, floor = absolute(out["shim"]), absolute(out["floor"])
    m = {
        "setup_s": stats.median(setups),
        "write_speedup": ratio(shim["write_MBps"], floor["write_MBps"]),
        "read_speedup": ratio(shim["read_MBps"], floor["read_MBps"]),
        "read_p50_ratio": ratio(shim["read_p50_us"], floor["read_p50_us"]),
        "read_p90_ratio": ratio(shim["read_p90_us"], floor["read_p90_us"]),
        "cpu_ratio": ratio(shim["cpu_s"], floor["cpu_s"]),
        "passthrough_ratio": ratio(floor["ops_per_s"], rate(out["pass"], "ops", "ops_ns")),
        "peak_rss_MiB": shim["peak_rss_MiB"],
    }
    reads = sum(len(r.lat["read"]) for r in out["shim"])
    notes = [f"reps per mode {len(out['shim'])}, set-ups {len(setups)}, "
             f"read samples {reads} (read_p90 is p{stats.tail_quantile(reads) * 100:.0f})"]
    for name, a in (("shim", shim), ("floor", floor)):
        notes.append(f"{name}: " + ", ".join(f"{k} {v:.6g}" for k, v in a.items()))
    return m, notes


def per_layer(ctx, out, replay, load_ms):
    traced, plain = out["traced"], out["shim"]
    counters_per_rep = []
    pooled = []
    for rep in traced:
        docs = []
        for p in rep.dumps:
            try:
                with open(p) as f:
                    docs.append(json.load(f))
            except (OSError, ValueError):
                ctx.fail(f"traced child left no stats dump at {p.name}")
        pooled += docs
        counters_per_rep.append(stats.merge_dumps(docs))
    c_all, h_all = stats.merge_dumps(pooled)

    def per_rep(name):
        return stats.median([c.get(name, 0) for c, _ in counters_per_rep])

    def per_rep_ms(hist):
        return stats.median([h.get(hist, {}).get("sum_ns", 0) / 1e6
                             for _, h in counters_per_rep])

    def p50(hist):
        return stats.hist_percentile(h_all.get(hist, {}), 0.5)

    def io_rep(reps, key):
        return stats.median([sum(e.io.get(key, 0) for e in r.exits) for r in reps])

    def ru_rep(reps, field):
        return stats.median([sum(getattr(e.rusage, field) for e in r.exits) for r in reps])

    ops = replay.get("ops", 0)
    m = {
        "preload.load_ms": load_ms,
        "preload.passthrough_overhead_pct":
            (ratio(rate(out["floor"], "ops", "ops_ns"),
                   rate(out["pass"], "ops", "ops_ns")) - 1) * 100,
        "core.router_self_ns": ratio(replay.get("router_ns", 0) - replay.get("plfs_ns", 0), ops),
        "plfs.self_ns": ratio(replay.get("plfs_ns", 0) - replay.get("libc_ns", 0), ops),
        "plfs.index.merges": per_rep("plfs.index.merges"),
        "plfs.index.merge_ms": per_rep_ms("plfs.index.merge.latency"),
        "plfs.droppings.opened": per_rep("plfs.droppings.opened"),
        "cache.index.hit_ratio": ratio(c_all.get("cache.index.hit", 0),
                                       c_all.get("cache.index.hit", 0) + c_all.get("cache.index.miss", 0)),
        "cache.fd.hit_ratio": ratio(c_all.get("cache.fd.hit", 0),
                                    c_all.get("cache.fd.hit", 0) + c_all.get("cache.fd.miss", 0)),
        "sieve.reads": per_rep("sieve.reads"),
        "sieve.efficiency": ratio(c_all.get("sieve.bytes.delivered", 0), c_all.get("sieve.bytes.read", 0)),
        "wb.flush.async": per_rep("wb.flush.async"),
        "wb.flush.sync": per_rep("wb.flush.sync"),
        "wb.flush_ms": per_rep_ms("wb.flush.latency"),
        "wb.coalesce.merged": per_rep("wb.coalesce.merged"),
        "wb.write_amp": ratio(c_all.get("wb.flush.bytes", 0), c_all.get("router.write.bytes", 0)),
        "mmap.reads": per_rep("mmap.reads"),
        "zerocopy.ops": per_rep("zerocopy.ops"),
        "pool.tasks.submitted": per_rep("pool.tasks.submitted"),
        "pool.tasks.inline": per_rep("pool.tasks.inline"),
        "pool.queue.delay_p50_us": p50("pool.queue.delay") / 1e3,
        "pool.queue.depth_max": float(h_all.get("pool.queue.depth", {}).get("max_ns", 0)),
        "pool.task_ms": per_rep_ms("pool.task.latency"),
        "posix.syscr": io_rep(plain, "syscr"),
        "posix.syscw": io_rep(plain, "syscw"),
        "posix.read_amp": ratio(io_rep(plain, "rchar"), stats.median([r.read_bytes for r in plain])),
        "posix.write_amp": ratio(io_rep(plain, "wchar"), stats.median([r.write_bytes for r in plain])),
        "posix.user_s": ru_rep(plain, "ru_utime"),
        "posix.sys_s": ru_rep(plain, "ru_stime"),
        "posix.vol_ctx_switches": ru_rep(plain, "ru_nvcsw"),
        "posix.floor_syscr": io_rep(out["floor"], "syscr"),
        "posix.floor_syscw": io_rep(out["floor"], "syscw"),
        "posix.floor_user_s": ru_rep(out["floor"], "ru_utime"),
        "posix.floor_sys_s": ru_rep(out["floor"], "ru_stime"),
        "trace.overhead_pct": (ratio(stats.median([r.wall_ns for r in traced]),
                                     stats.median([r.wall_ns for r in plain])) - 1) * 100,
    }
    for op in ("open", "read", "write", "pread", "pwrite"):
        m[f"router.{op}.latency_p50_ns"] = p50(f"router.{op}.latency")
    # The absolute end-to-end numbers of the untraced shim reps. They drift
    # with the machine's load, so they are reported here without a bound.
    for k, v in absolute(plain).items():
        if k != "peak_rss_MiB":
            m[f"abs.{k}"] = v
    notes = [f"traced reps {len(traced)}, untraced {len(plain)}, stats dumps {len(pooled)}",
             f"replay: {ops} ops per layer, {replay.get('spans', 0)} spans"]
    return m, notes


def replay_layers(w, ctx):
    """In-process replay of the workload's stream through libc, plfs, Router."""
    d = ctx.ws / "replay"
    for sub in ("plain", "plfs", "mnt"):
        (d / sub).mkdir(parents=True, exist_ok=True)
    args = {"workload": w.name, "dir": d, "spans": ctx.trace_dir.parent / f"{w.name}.spans.json",
            "rounds": 1 if ctx.quick else 3, **w.replay_args(ctx)}
    env = ctx.child_env("floor", "replay")
    if w.faults:
        env["LDPLFS_FAULTS"] = w.faults
    ex = ctx.launch("replay", [ctx.replay] + [f"{k}={v}" for k, v in args.items()],
                    env, 2 * CHILD_TIMEOUT_S).finish()
    ctx.attempted += 1
    try:
        result = json.loads(ex.stdout.text().strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = {}
    if not ex.ok or not result:
        ctx.fail(f"replay exited {ex.code}")
    return result


def shim_load_ms(ctx, n):
    """/bin/true with the shim minus without: the cost of loading it."""
    with_shim, without = [], []
    for i in range(n):
        for mode in (("shim", "floor") if i % 2 == 0 else ("floor", "shim")):
            ex = ctx.run("true", ["true"], mode)
            ctx.check_tool(ex, Rep())
            (with_shim if mode == "shim" else without).append(ex.wall_ns)
    return (stats.median(with_shim) - stats.median(without)) / 1e6


def run_workload(w, tools, seed, seconds, trace, quick, trace_dir, spec):
    if not RUNS.is_dir():
        fresh_dir(RUNS)
    ws = RUNS / f"{w.name}.{os.getpid()}"
    shm_before = shm_segments()
    ctx = Ctx(tools, ws, seed, quick, CHILD_TIMEOUT_S)
    ctx.faults = w.faults
    try:
        setups = [set_up(w, ctx) for _ in range(1 if quick or trace else 3)]
        # Start measuring with no dirty data from set-up still in flight.
        os.sync()
        if not trace:
            out = measure(w, ctx, seconds, MODES)
            metrics, notes = end_to_end(setups, out)
            wanted = spec["end_to_end"]
        else:
            ctx.trace_dir = (trace_dir or ws / "trace") / w.name
            ctx.trace_dir.mkdir(parents=True, exist_ok=True)
            out = measure(w, ctx, seconds, ["shim", "traced", "pass", "floor"])
            replay = replay_layers(w, ctx)
            load_ms = shim_load_ms(ctx, 3 if quick else 20)
            metrics, notes = per_layer(ctx, out, replay, load_ms)
            wanted = spec["per_layer"]
    finally:
        procs.kill_all()
        shutil.rmtree(ws, ignore_errors=True)
        for seg in shm_segments() - shm_before:
            (Path("/dev/shm") / seg).unlink(missing_ok=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass
    result = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics:
            ctx.fail(f"metric {name} not computed")
            continue
        result[name] = {"value": metrics[name], "unit": entry["unit"]}
    for n in notes:
        print(f"# {w.name}: {n}")
    for e in ctx.errors:
        print(f"# {w.name}: FAILED: {e}")
    for name, v in result.items():
        print(f"{w.name} {name} {v['value']:.6g} {v['unit']}")
    res = {"correct": ctx.failed == 0, "attempted": max(ctx.attempted, 1),
           "failed": ctx.failed, "metrics": result}
    return res, {"setups_s": setups, "reps": rep_records(out)}


def rep_records(out):
    """Per-rep summaries for the report, so runs can be re-analysed."""
    fields = ("wall_ns", "write_bytes", "write_ns", "read_bytes", "read_ns", "ops", "ops_ns")
    records = []
    for mode, reps in out.items():
        for r in reps:
            rec = {"mode": mode, "cpu_s": r.cpu_s, "peak_rss_MiB": r.peak_rss_MiB}
            rec.update({f: getattr(r, f) for f in fields})
            for k, v in r.lat.items():
                v = sorted(v)
                rec[f"{k}_n"] = len(v)
                for q in (0.5, 0.9, 0.99):
                    rec[f"{k}_p{round(q * 100)}_ns"] = stats.percentile(v, q)
            records.append(rec)
    return records


def shm_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("ldplfs")}
    except OSError:
        return set()


# --- reports and comparison --------------------------------------------------

def append_report(path, record):
    report = {"schema_version": REPORT_SCHEMA, "runs": []}
    if path.exists():
        with open(path) as f:
            report = json.load(f)
        if report.get("schema_version") != REPORT_SCHEMA:
            die(f"{path}: not a schema {REPORT_SCHEMA} report")
    report["runs"].append(record)
    with open(path, "w") as f:
        json.dump(report, f, indent=1)


def compare(path_a, path_b, spec):
    """Verdict per end-to-end metric x workload; exit 1 if a bound is exceeded."""
    runs = []
    for p in (path_a, path_b):
        with open(p) as f:
            report = json.load(f)
        if report.get("schema_version") != REPORT_SCHEMA:
            die(f"{p}: not a schema {REPORT_SCHEMA} report")
        runs.append(report["runs"])

    def values(side, workload, trace, metric):
        rs = sorted((r for r in runs[side] if r["workload"] == workload and r["trace"] == trace),
                    key=lambda r: r["seed"])
        return [r["metrics"][metric]["value"] for r in rs if metric in r["metrics"]]

    worse = 0
    for w in WORKLOADS:
        print(f"{w}:")
        for m in spec["end_to_end"]:
            a, b = values(0, w, 0, m["name"]), values(1, w, 0, m["name"])
            if not a or not b:
                print(f"  {m['name']:<24} missing")
                continue
            verdict, line = judge(a, b, m)
            worse += verdict == "worse"
            print(f"  {m['name']:<24} {verdict:<10} {line}")
        layer = [(m["name"], values(0, w, 1, m["name"]), values(1, w, 1, m["name"]))
                 for m in spec["per_layer"]]
        layer = [(n, a, b) for n, a, b in layer if a and b]
        if layer:
            print("  per-layer median deltas:")
            for n, a, b in layer:
                ma, mb = stats.median(a), stats.median(b)
                rel = f"{(mb - ma) / abs(ma) * 100:+.1f}%" if ma else "n/a"
                print(f"    {n:<34} {ma:12.6g} -> {mb:12.6g}  {rel}")
    return 1 if worse else 0


def judge(a, b, m):
    """Verdict for one metric: better, unchanged, worse or unresolved.

    A median worse than the parent's by more than the bound is a
    regression. When the parent's own spread (inter-quartile distance over
    the median) is wider than the bound the result is unresolved, unless
    every run of B reads better than every run of A. A gain needs B to win
    nine tenths of the seed-matched pairs and to beat A's median by more
    than A's spread.
    """
    lower = m["better"] == "lower"
    ma, mb = stats.median(a), stats.median(b)
    worse_by = ((mb - ma) if lower else (ma - mb)) / abs(ma) if ma else 0.0
    spread_a = stats.spread(a)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins = sum(better(y, x) for x, y in zip(a, b))
    all_better = all(better(y, x) for x in a for y in b)
    line = (f"A {ma:.6g} [{stats.quartiles(a)[0]:.6g}..{stats.quartiles(a)[2]:.6g}]  "
            f"B {mb:.6g} [{stats.quartiles(b)[0]:.6g}..{stats.quartiles(b)[2]:.6g}]  "
            f"worse by {worse_by * 100:+.1f}% (bound {m['bound'] * 100:.0f}%, "
            f"A spread {spread_a * 100:.1f}%)")
    if spread_a > m["bound"]:
        return ("better" if all_better else "unresolved"), line
    if worse_by > m["bound"]:
        return "worse", line
    pairs = min(len(a), len(b))
    if pairs and wins >= 0.9 * pairs and -worse_by > spread_a:
        return "better", line
    return "unchanged", line


# --- main ----------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir", type=Path,
                    help="keep stats dumps and spans here (default: discarded)")
    ap.add_argument("--quick", action="store_true",
                    help="one rep at about 1/16 size (smoke test)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run seeds seed .. seed+repeat-1")
    ap.add_argument("--json", type=Path, help="append each run to this report")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    ap.add_argument("--list", action="store_true")
    args = ap.parse_args()
    # A terminated run still kills its children and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    procs.become_subreaper()

    if args.list:
        print("\n".join(WORKLOADS))
        return 0
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload not in WORKLOADS and args.workload != "all":
        die(f"unknown workload {args.workload!r}; --list shows them")
    tools = build()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            res, detail = run_workload(WORKLOADS[name], tools, seed, args.seconds,
                                       args.trace, args.quick, args.trace_dir, spec)
            ok = ok and res["correct"]
            if args.json:
                append_report(args.json, {"workload": name, "seed": seed, "trace": args.trace,
                                          "seconds": args.seconds, **res, **detail})
            print(json.dumps(res), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        procs.kill_all()
