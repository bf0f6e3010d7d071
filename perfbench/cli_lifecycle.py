"""cli_lifecycle: an interactive user drives the CLI, one fresh process per command.

Round: ``load``, ``entail --materialize``, ``validate --with-derived``, then
the corpus's fixed ``spath --with-derived`` calls. The store is removed
before each round's ``load``. Each round follows a set-up, a first start of
the CLI. Every command's output is checked against the
answers the corpus generator derived from how it built the corpus.
"""

from __future__ import annotations

import csv
import shutil
import statistics

from common import Context, Tracer, cycles, dir_bytes, make_corpus, run_child
from layers import CLI, cli_command, load_layers, query_figures

SCALE = 1.0
# Cycles of one first start and then rounds. A round takes 6 to 9 s here, so
# each cycle runs one and the medians span 30 to 45 s of the host's drift;
# an odd count makes each median one round's or one process's time.
STARTS = 5


def check_load(ctx: Context, out: str, expect: dict) -> None:
    got = {k: int(v) for k, v in csv.reader(out.splitlines()[1:])}
    ctx.check(got == expect["load"], f"load counts {got} != {expect['load']}")


def check_entail(ctx: Context, out: str, expect: dict) -> None:
    lines = out.splitlines()
    derived = sorted(line[:-2] for line in lines if line and not line.startswith("#"))
    summary = [line.split() for line in lines if line.startswith("# summary:")]
    ok = derived == expect["derived"] and summary and f"derived={len(derived)}" in summary[0]
    ctx.check(bool(ok), f"entail derived {len(derived)} triples, expected {len(expect['derived'])}")


def check_validate(ctx: Context, out: str, expect: dict) -> None:
    rows = list(csv.reader(out.splitlines()))
    want = [[v, "multiple_use", "2"] for v in expect["violations"]]
    ok = rows[:1] == [["property", "kind", "occurrences"]] and sorted(rows[1:]) == want
    ctx.check(ok, f"validate rows {rows[:4]}")


def check_spath(ctx: Context, out: str, query: list) -> None:
    model, source, target, distance, path = query
    row = next(csv.reader(out.splitlines()), [])
    want = [
        source, target, model,
        "unreachable" if distance is None else "found",
        "" if distance is None else str(distance),
    ]
    ok = len(row) == 7 and row[:5] == want and row[5].isdigit()
    if ok and path is not None:
        ok = row[6] == "/".join(path) and len(path) == distance + 1
    elif ok:
        ok = row[6] == ""
    ctx.check(ok, f"spath {model} {source} -> {target}: {row[:6]}")


def run(ctx: Context):
    corpus, expect = make_corpus(ctx, "cli", SCALE)
    store = ctx.work / "store"
    tr = Tracer(ctx.trace)

    starts = []

    def set_up(i: int) -> None:
        # The first start of the CLI with an empty bytecode cache, as after an
        # install, so import-time work of every module shows here.
        shutil.rmtree(ctx.work / "pycache", ignore_errors=True)
        res = run_child(ctx, CLI + ["--help"], f"start{i}")
        if res.code != 0:
            raise RuntimeError(f"ldm3n --help exited {res.code}: {res.stderr[-400:]}")
        starts.append(res.wall_s)

    times: dict[str, list[float]] = {"load": [], "entail": [], "validate": [], "spath": [], "help": []}
    peak = 0.0
    size = 0

    def command(kind: str, args: list[str], name: str) -> str | None:
        """One CLI command; traced, under the timers of ``layers.py``."""
        nonlocal peak
        res = cli_command(ctx, tr, [kind] + args, name)
        times[kind].append(res.wall_s)
        round_s[-1] += res.wall_s
        peak = max(peak, res.maxrss_mb)
        if res.code != 0:
            ctx.check(False, f"{kind} exited {res.code}: {res.stderr.strip()[-300:]}")
            return None
        return res.stdout

    # The user's waiting time per round: every command, checks left out.
    round_s: list[float] = []

    def one_round(n: int) -> None:
        nonlocal size
        shutil.rmtree(store, ignore_errors=True)
        round_s.append(0.0)
        at = ["--store", str(store)]
        if (out := command("load", at + ["--input", str(corpus)], f"load{n}")) is not None:
            check_load(ctx, out, expect)
            size = dir_bytes(store)
        if (out := command("entail", ["--materialize"] + at, f"entail{n}")) is not None:
            check_entail(ctx, out, expect)
        if (out := command("validate", ["--with-derived"] + at, f"validate{n}")) is not None:
            check_validate(ctx, out, expect)
        for q, query in enumerate(expect["queries"]):
            model, source, target = query[:3]
            args = ["--with-derived"] + at + ["--model", model, "--source", source, "--target", target]
            if (out := command("spath", args, f"spath{n}.{q}")) is not None:
                check_spath(ctx, out, query)
        if ctx.trace:
            times["help"].append(run_child(ctx, CLI + ["--help"], f"help{n}").wall_s)

    rounds = cycles(ctx.seconds, STARTS, set_up, one_round)
    ctx.log.append(f"cli_lifecycle: {rounds} rounds")
    for kind in ("load", "entail", "validate", "spath"):
        ctx.log.append(f"{kind} process, median of {len(times[kind])}: {statistics.median(times[kind]):.4f} s")

    end_to_end = {
        "setup_s": (statistics.median(starts), "s"),
        "round_s": (statistics.median(round_s), "s"),
        "peak_rss_mb": (peak, "MB"),
        "store_bytes_per_triple": (size / expect["load"]["triples"], "B"),
    }
    per_layer = {}
    if ctx.trace:
        per_layer = load_layers(tr)
        per_layer.update(query_figures(tr, len(expect["queries"])))
        per_layer.update({
            "terms.parse_term_us": (tr.per_call_us("terms.parse_term"), "us"),
            "storage.neighbors_us": (tr.per_call_us("storage.neighbors"), "us"),
            "storage.save_delta_s": (tr.median("storage.save_delta_s"), "s"),
            "storage.save_delta_bytes": (tr.median("storage.save_delta_bytes"), "B"),
            "storage.iter_triples_s": (tr.median("storage.iter_triples_s"), "s"),
            "semantics.entail_s": (tr.median("semantics.entail_s"), "s"),
            "semantics.derived": (tr.median("semantics.derived"), "count"),
            "semantics.rounds": (tr.median("semantics.rounds"), "count"),
            "semantics.view_neighbors_us": (tr.per_call_us("semantics.view_neighbors"), "us"),
            "semantics.validate_s": (tr.median("semantics.validate_s"), "s"),
            "cli.startup_ms": (statistics.median(times["help"]) * 1000, "ms"),
        })
    return end_to_end, per_layer, tr
