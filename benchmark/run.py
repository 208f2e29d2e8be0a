#!/usr/bin/env python3
"""Run one xypurify benchmark workload and print its metrics.

    python3 benchmark/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it measures the package
under ``src/`` of the checkout it lives in.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same workload with spans at
every layer boundary and prints the per-layer metrics.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The launcher imports neither numpy nor the package.  Every measurement
runs in a fresh child interpreter (``measure.py``) with BLAS and OpenMP
pinned to one thread, one child at a time.  Untraced, a warm-up child
runs one pass, whose times are dropped, then one pass under
``tracemalloc`` (``pass_heap_mb``) and the workload's closing check.
Then measuring children are started one after another for ``--seconds``
seconds.  Each gives one set-up sample, 1 + FORKS first passes (see
``measure.py``) and up to LATER_PASSES later passes.  ``setup_s`` is the
median set-up sample; ``first_pass_s`` and ``wall_s`` add up the fastest
time of each operation over the first and over the later passes (see
``fastest``); ``peak_rss_mb`` is the largest peak of the measuring
children.  Every
number is written, with the machine and package versions, to
``benchmark/out/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# what a fresh interpreter imports before the workload's first pass
MODULES = {
    "figures": ("xypurify.cli", "xypurify.cnot", "xypurify.cavity",
                "xypurify.pumping", "xypurify.rounds"),
    "exact-pump": ("xypurify.cli", "xypurify.pumping", "xypurify.rounds",
                   "xypurify.states", "xypurify.xy"),
    "montecarlo": ("xypurify.cli", "xypurify.montecarlo"),
}
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# later passes per measuring child: short passes get more, so that every
# run still starts many children (set-up and first-pass samples)
LATER_PASSES = {"figures": 2, "exact-pump": 10, "montecarlo": 20}
# forked first passes per measuring child; a figures pass is too long
FORKS = {"figures": 0, "exact-pump": 10, "montecarlo": 10}
MIN_CHILDREN = 3         # measuring children per untraced run, at least
TIME_LIMIT_S = 170.0     # whole run


class ChildFailed(Exception):
    pass


def fastest(passes) -> float:
    """Sum over operations of the fastest time each took in any pass.

    Passes list the same operations in the same order, each on fresh
    inputs.  On a loaded shared machine the fastest time of a short
    operation stays steady while medians follow the load.
    """
    return sum(min(times) for times in zip(*passes))


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, stream: int, later: int, until: float, deadline: float,
          warm_up: bool = False, forks: int = 0) -> dict:
    """Run measure.py in a fresh interpreter and return its JSON line."""
    spawned = time.perf_counter()
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--stream", str(stream), "--later", str(later),
           "--until", repr(until), "--forks", str(forks), "--trace", str(args.trace),
           "--spawned-at", repr(spawned)]
    if warm_up:
        cmd.append("--warm-up")
    proc = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": str(SRC), **THREADS},
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        raise ChildFailed(f"{proc.stderr}measuring process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "xypurify" / "__init__.py").is_file():
        print(f"no xypurify sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    try:
        if args.trace:
            runs = [spawn(args, 0, sys.maxsize, start + args.seconds, deadline)]
        else:
            # the warm-up may compile bytecode; the measuring window starts after it
            runs = [spawn(args, 0, 0, start, deadline, warm_up=True)]
            until = time.perf_counter() + args.seconds
            while len(runs) <= MIN_CHILDREN or time.perf_counter() < until:
                runs.append(spawn(args, len(runs), LATER_PASSES[args.workload],
                                  until, deadline, forks=FORKS[args.workload]))
    except subprocess.TimeoutExpired:
        print(f"{args.workload}: run exceeded {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    except ChildFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = runs[0]["layers"]
    else:
        samples = [r["metrics"] for r in runs[1:]]
        wall = fastest(ops for m in samples for ops in m["later_ops_s"])
        items = statistics.median(n for m in samples for n in m["later_items"])
        metrics = {
            "setup_s": [statistics.median(m["setup_s"] for m in samples), "s"],
            "first_pass_s": [fastest(ops for m in samples for ops in m["first_pass_ops_s"]),
                             "s"],
            "wall_s": [wall, "s"],
            "items_per_s": [items / wall, "items/s"],
            "peak_rss_mb": [max(m["peak_rss_mb"] for m in samples), "MB"],
            "pass_heap_mb": [runs[0]["metrics"]["pass_heap_mb"], "MB"],
        }
    attempted = sum(r["attempted"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    detail = {
        **vars(args),
        "item": runs[0]["item"],
        "attempted": attempted,
        "problems": problems,
        "metrics": metrics,
        "children": [{"setup_s": r["metrics"]["setup_s"], "pass_walls_s": r["pass_walls_s"],
                      "pass_traced": r["pass_traced"]} for r in runs],
        "environment": {
            **runs[0]["versions"],
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": THREADS,
            "git_sha": git_sha(),
        },
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    failed = len(problems)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {sum(len(r['pass_walls_s']) for r in runs)}  item: {runs[0]['item']}")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"  {key:<34} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
