"""Benchmark entry point: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {cli_lifecycle,chain_groups} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it uses ``src/ldm3n`` as it
stands there. Each run works in a fresh directory under ``.perfbench_tmp/``
and removes it at the end. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Progress notes, the
host reference loop and the first wrong answers go to standard error. A
traced run also writes its spans to ``.perfbench_out/``. ``--scale`` grows
the corpora for reference figures; the benchmark proper runs at scale 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from common import HASH_SEED, ROOT, SRC, Context, reference_loop_ms

WORKLOADS = ("cli_lifecycle", "chain_groups")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus size factor, for reference figures only (10 gives cli_lifecycle 1M triples)")
    args = ap.parse_args()

    if not (SRC / "ldm3n" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Same process, fixed string hashing: dict and set layouts of the
        # store then repeat from run to run.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, str(SRC))
    # A stop request unwinds like an error: children killed and collected,
    # the run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload == "cli_lifecycle":
        import cli_lifecycle as workload
    else:
        import chain_groups as workload
    workload.SCALE *= args.scale

    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    ctx = Context(args.seed, args.seconds, bool(args.trace), Path(work))
    try:
        ref_start = reference_loop_ms()
        end_to_end, per_layer, tracer = workload.run(ctx)
        ref_end = reference_loop_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    if ctx.trace:
        tracer.dump(ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-spans.json")

    for line in ctx.log:
        print(f"# {line}", file=sys.stderr)
    print(f"# host reference loop: start {ref_start:.1f} ms, end {ref_end:.1f} ms", file=sys.stderr)
    for what in ctx.wrong:
        print(f"# wrong: {what}", file=sys.stderr)
    if ctx.trace:
        for name, (value, unit) in end_to_end.items():
            print(f"# traced end-to-end {name}: {value:.6g} {unit}", file=sys.stderr)
    # The result carries exactly the metrics BENCHMARK.json lists for this
    # kind of run, in its units; figures only some workloads have go to
    # standard error.
    figures = per_layer if ctx.trace else end_to_end
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in listed["per_layer" if ctx.trace else "end_to_end"]}
    for name, (value, unit) in figures.items():
        if name not in listed:
            print(f"# {args.workload} only: {name} {value:.6g} {unit}", file=sys.stderr)
    wrong = [n for n, u in listed.items() if n not in figures or figures[n][1] != u]
    if wrong:
        print(f"error: {args.workload} did not measure {', '.join(wrong)} as listed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": ctx.correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": figures[name][0], "unit": unit} for name, unit in listed.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
