"""Run one workload once per seed and summarise each metric across the runs.

    python3 perfbench/sets.py --workload chain_groups --seeds 1-10 [--seconds 45] [--trace 0]

Prints one line per run, then per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
which is the figure compared with the metric's bound in BENCHMARK.json.
Runs are sequential; each is one plain `run.py` invocation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="first-last or a,b,c")
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for seed in args.seeds:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        host = [line for line in proc.stderr.splitlines() if "reference loop" in line]
        shares.add(result["failed"] / result["attempted"])
        print(
            f"seed {seed}: {time.perf_counter() - started:.1f} s, correct={result['correct']}"
            f" attempted={result['attempted']} failed={result['failed']} {host[0][2:] if host else ''}\n  "
            + " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()),
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"failed share: {sorted(shares)}")
    print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{name:28s} {units[name]:6s} {med:12.4f} {q1:12.4f} {q3:12.4f} {(q3 - q1) / med:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
