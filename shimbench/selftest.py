#!/usr/bin/env python3
"""Smoke test of the shim benchmark: every workload at --quick, untraced
and traced. Run from the root of a checkout:

  python3 shimbench/selftest.py

It checks that --list names the workloads of BENCHMARK.json; that each run
prints every metric BENCHMARK.json names, with its unit, and nothing else;
that no operation failed; and that every traced child left a stats dump
and the replay its spans. Exit code 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
TRACE_DIR = Path(".bench_run") / "selftest-trace"


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    listed = subprocess.run(RUN + ["--list"], capture_output=True, text=True).stdout.split()
    names = [w["name"] for w in spec["workloads"]]
    if listed != names:
        problems.append(f"--list gives {listed}, BENCHMARK.json has {names}")
    shutil.rmtree(TRACE_DIR, ignore_errors=True)
    try:
        for name in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                cmd = RUN + ["--workload", name, "--seed", "1", "--quick",
                             "--trace", str(trace), "--trace-dir", str(TRACE_DIR)]
                p = subprocess.run(cmd, capture_output=True, text=True)
                where = f"{name} --trace {trace}"
                try:
                    res = last_json(p.stdout)
                except (ValueError, IndexError):
                    problems.append(f"{where}: no result (exit {p.returncode})\n{p.stderr[-2000:]}")
                    continue
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                    f"missing {sorted(set(want) - set(got))}, "
                                    f"extra {sorted(set(got) - set(want))}, "
                                    f"units {[k for k in want if k in got and got[k] != want[k]]}")
                if p.returncode != 0 or not res["correct"] or res["failed"] != 0:
                    problems.append(f"{where}: exit {p.returncode}, correct {res['correct']}, "
                                    f"failed {res['failed']} of {res['attempted']}\n{p.stdout[-2000:]}")
                if trace:
                    if not list((TRACE_DIR / name).glob("*.json")):
                        problems.append(f"{where}: no stats dumps in {TRACE_DIR / name}")
                    if not (TRACE_DIR / f"{name}.spans.json").is_file():
                        problems.append(f"{where}: no spans file")
                print(f"{where}: {'ok' if not problems else 'checked'}", flush=True)
    finally:
        shutil.rmtree(TRACE_DIR, ignore_errors=True)
        try:
            TRACE_DIR.parent.rmdir()
        except OSError:
            pass
    for msg in problems:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
