#!/usr/bin/env python3
"""Run every workload over ten seeds and summarise the spread.

    python3 benchmark/record.py [--output benchmark/out/record.json]

For each workload of BENCHMARK.json it makes one untraced run per seed,
seeds 1 to 10, each of BENCHMARK.json's ``run_seconds`` (the workloads
take turns, so a slow spell of the machine is shared out), and one
traced run on seed 1.  For every end-to-end metric it prints the
median, the quartiles and their distance as a share of the median, next
to the bound from BENCHMARK.json.  Each spread gets a status:
"steady" below a third of its bound, "within bound" up to the bound,
UNRESOLVED above it.  The spread of ``setup_s`` is "not gated" above its
bound: its bound gates only the change of its median between two sets
of runs.  The summary,
with the machine and package versions, is written as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


SEEDS = range(1, 11)
TRACED_SEED = SEEDS[0]


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(name: str, values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    status = ("steady" if spread < bound / 3 else "within bound" if spread <= bound
              else "not gated" if name == "setup_s" else "UNRESOLVED")
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "status": status}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", type=Path, default=HERE / "out" / "record.json")
    args = parser.parse_args()

    workloads = [w["name"] for w in SPEC["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            runs[w].append(run(w, seed, 0))
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[w][-1]["metrics"].items()),
                flush=True)

    summary = {}
    for w in workloads:
        traced = run(w, TRACED_SEED, 1)
        detail = json.loads((HERE / "out" / "results" /
                             f"{w}-seed{TRACED_SEED}-trace0.json").read_text())
        e2e = {m["name"]: {"unit": m["unit"], "better": m["better"],
                           **summarise(m["name"], [r["metrics"][m["name"]]["value"]
                                                   for r in runs[w]], m["bound"])}
               for m in SPEC["end_to_end"]}
        summary[w] = {
            "item": detail["item"],
            "attempted": sum(r["attempted"] for r in runs[w]) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs[w]) + traced["failed"],
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
            "environment": detail["environment"],
        }
        print(f"\n{w}  ({len(SEEDS)} seeds, {SPEC['run_seconds']} s runs; "
              f"item: {detail['item']})")
        print(f"  {'metric':<14} {'unit':<8} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}  status")
        for name, m in e2e.items():
            print(f"  {name:<14} {m['unit']:<8} {m['median']:>11.5g} {m['q1']:>11.5g} "
                  f"{m['q3']:>11.5g} {m['spread']:>7.3f} {m['bound']:>6}  {m['status']}")
        failed = summary[w]["failed"]
        print(f"  {'failed_ratio':<14} {'ratio':<8} {failed / summary[w]['attempted']:>11.5g}")

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps({"run_seconds": SPEC["run_seconds"], "seeds": list(SEEDS),
                                       "workloads": summary}, indent=1) + "\n",
                           encoding="utf-8")
    print(f"\nwrote {args.output}")
    return 0 if all(s["failed"] == 0 for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
