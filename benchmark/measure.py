"""Measuring process of one benchmark run; started by run.py.

Imports exactly the workload's modules and reports how long that took
since the launcher spawned it (``perf_counter`` is the system-wide
monotonic clock on Linux, so the launcher's reading is comparable).
Then it runs passes on fresh inputs drawn from ``(--seed, --stream)``:
a first pass, then up to ``--later`` later passes, none started after
the run's deadline ``--until`` (a ``perf_counter`` reading) except the
first later pass.  It reports the time of each operation of each pass;
first passes on their own, since lazy imports and first-call set-up
land there.  Before its own first pass it forks ``--forks`` copies of
itself one after another, each of which runs one first pass and exits:
more first-pass samples than start-ups would pay for.  Every output is
checked after its pass, outside the timed region.

``--warm-up`` runs no later passes; instead it runs one pass with
``tracemalloc`` on and reports the peak memory that pass allocated,
then the workload's untimed closing check.

With ``--trace 1`` every other pass after the first runs with spans
installed; the untraced passes in between give the tracing overhead.
Prints one JSON line for the launcher.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from importlib import metadata
from pathlib import Path

from run import MODULES, OUT, SRC


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, required=True)
    parser.add_argument("--later", type=int, required=True)
    parser.add_argument("--forks", type=int, default=0)
    parser.add_argument("--until", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--warm-up", action="store_true")
    args = parser.parse_args()

    for name in MODULES[args.workload]:
        importlib.import_module(name)
    setup = time.perf_counter() - args.spawned_at
    origin = Path(sys.modules["xypurify"].__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise SystemExit(f"xypurify imported from {origin}, not from {SRC}")
    import numpy as np

    import tracing
    import workloads

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](out)
    tracer = tracing.Tracer() if args.trace else None
    rng = np.random.default_rng([args.seed, args.stream])
    # a first pass, then at least one later pass (traced: one with spans, one without)
    min_passes = 1 if args.later == 0 else 3 if args.trace else 2

    walls, op_times, items, traced = [], [], [], []
    attempted, problems = 0, []

    def check(inputs, timed) -> None:
        nonlocal attempted, problems
        n, found = wl.check(inputs, [result for result, _ in timed])
        attempted += n
        problems += found

    def forked_first_pass(k: int) -> list[float]:
        """One first pass in a forked copy of this freshly set-up process."""
        nonlocal attempted, problems
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            try:
                inputs = wl.draw(np.random.default_rng([args.seed, args.stream, k]))
                timed = wl.run(inputs)
                n, found = wl.check(inputs, [result for result, _ in timed])
                report = {"ops": [t for _, t in timed], "attempted": n, "problems": found}
                with os.fdopen(write_end, "w") as fh:
                    json.dump(report, fh)
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as fh:
            text = fh.read()
        os.waitpid(pid, 0)
        if not text:
            raise SystemExit(f"forked first pass {k} died")
        report = json.loads(text)
        attempted += report["attempted"]
        problems += report["problems"]
        return report["ops"]

    first_passes = [forked_first_pass(k) for k in range(args.forks)]

    while len(walls) < min_passes or (len(walls) <= args.later
                                      and time.perf_counter() < args.until):
        inputs = wl.draw(rng)
        trace_this = tracer is not None and len(walls) % 2 == 1
        if trace_this:
            tracer.begin_pass(len(walls))
        t0 = time.perf_counter_ns()
        timed = wl.run(inputs)
        wall = time.perf_counter_ns() - t0
        if trace_this:
            tracer.end_pass(wall)
        check(inputs, timed)
        op_times.append([t for _, t in timed])
        walls.append(wall / 1e9)
        items.append(wl.items(inputs))
        traced.append(trace_this)
        if tracer is not None and tracer.full and len(walls) >= min_passes:
            break

    metrics = {
        "setup_s": setup,
        "first_pass_ops_s": first_passes + op_times[:1],
        "later_ops_s": [op_times[k] for k in range(1, len(walls)) if not traced[k]],
        "later_items": [items[k] for k in range(1, len(walls)) if not traced[k]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.warm_up:
        inputs = wl.draw(rng)
        tracemalloc.start()
        timed = wl.run(inputs)
        metrics["pass_heap_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
        check(inputs, timed)
        if hasattr(wl, "final_check"):
            n, found = wl.final_check()
            attempted += n
            problems += found

    layers = {}
    if tracer is not None:
        layers = {k: list(v) for k, v in tracer.layer_metrics().items()}
        plain = [walls[k] for k in range(1, len(walls)) if not traced[k]]
        with_spans = [walls[k] for k in range(len(walls)) if traced[k]]
        # a missing boundary shows in every traced pass, a slow spell in a few
        unaccounted = statistics.median(tracer.unaccounted().values())
        layers["trace.overhead_s"] = [statistics.median(with_spans) - statistics.median(plain),
                                      "s/pass"]
        layers["trace.unaccounted"] = [unaccounted, "ratio"]
        attempted += 2
        if unaccounted > tracing.UNACCOUNTED_LIMIT:
            problems.append(
                f"trace self-check: layer self times leave {unaccounted:.1%} of the median "
                f"traced pass unaccounted (limit {tracing.UNACCOUNTED_LIMIT:.0%})")
        idle = tracer.idle_layers(wl.layers)
        if idle:
            problems.append(f"trace self-check: no span in layers {', '.join(idle)}, "
                            f"which every {wl.name} pass enters")
        tracer.write(OUT / f"trace-{args.workload}.npz")

    print(json.dumps({
        "item": wl.item,
        "attempted": attempted,
        "problems": problems,
        "metrics": metrics,
        "layers": layers,
        "pass_walls_s": walls,
        "pass_traced": traced,
        "versions": {pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click")},
    }))


if __name__ == "__main__":
    main()
