"""Per-layer tracing: the CLI run under timing wrappers, and in-process probes.

The traced run starts this script wherever the untraced run starts
``python -m ldm3n.cli``, with the same arguments after ``--spans FILE``:

    python3 perfbench/layers.py --spans FILE entail --materialize --store DIR

It wraps the functions the CLI reaches in timers, calls ``ldm3n.cli.main``
with the arguments and writes the spans and counters to FILE. Standard
output and the exit code are the CLI's own, so the untraced run's checks
apply unchanged. The functions after ``main`` are what the workloads use to
start CLI commands, set up a store and probe the query-side layers in
process.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import BENCH_DIR, Calls, ChildResult, Context, Tracer, dir_bytes, rss_mb, run_child
from ldm3n import open_store, parse_term, shortest_path, storage
from ldm3n.terms import format_term

# Nodes probed per store for the per-call neighbor timings.
NEIGHBOR_SAMPLE = 4000
CLI = [sys.executable, "-m", "ldm3n.cli"]


def file_stamps(path: Path) -> dict[str, tuple[int, int, int]]:
    return {
        p.name: (st.st_ino, st.st_mtime_ns, st.st_size)
        for p in path.iterdir()
        if p.is_file() and (st := p.stat())
    }


def instrument(tr: Tracer) -> dict:
    """Wrap what the CLI reaches: module attributes it looks up at call time
    and methods of ``Store``. Returns the per-call timers and what the
    wrappers note: the passes over the triples and when the search returned."""
    from ldm3n import cli, semantics, storage
    from ldm3n.storage import Store

    calls = {name: Calls() for name in (
        "ntriples.parse", "terms.parse_term", "storage.resolve", "storage.decode",
        "storage.iter_triples", "storage.neighbors", "semantics.view_neighbors",
    )}
    state: dict = {}

    # Opening a store re-parses every token; the CLI parses its term arguments.
    storage.parse_term = cli.parse_term = calls["terms.parse_term"].wrap(storage.parse_term)
    Store.resolve = calls["storage.resolve"].wrap(Store.resolve)
    Store.decode = calls["storage.decode"].wrap(Store.decode)
    # The store's expansions, also where the derived view asks for them.
    Store.neighbors = calls["storage.neighbors"].wrap(Store.neighbors)
    iter_triples = Store.iter_triples

    def iter_pass(self):
        state["passes"] = state.get("passes", 0) + 1
        return calls["storage.iter_triples"].wrap_iter(iter_triples(self))

    Store.iter_triples = iter_pass
    parse_ntriples = cli.parse_ntriples
    cli.parse_ntriples = lambda *a, **k: calls["ntriples.parse"].wrap_iter(parse_ntriples(*a, **k))

    def load_triples(config, triples, real=storage.load_triples):
        # The parser runs inside the load, pulled one triple at a time; the
        # rest of the load is the store's.
        parsed = calls["ntriples.parse"]
        ns, steps, made, started = parsed.ns, parsed.calls, Calls.made, time.perf_counter_ns()
        with tr.span("storage.load_triples"):
            out = real(config, triples)
        took = time.perf_counter_ns() - started - (Calls.made - made) * tr.cost_ns
        parse_ns = parsed.ns - ns - (parsed.calls - steps) * tr.bias_ns
        tr.count("ntriples.parse_s", parse_ns / 1e9)
        tr.count("storage.create_s", (took - parse_ns) / 1e9)
        tr.count("storage.bytes_written", dir_bytes(Path(config.path)))
        return out

    def open_store(*args, real=storage.open_store, **kwargs):
        before = rss_mb()
        with tr.timed("storage.open_s"):
            store = real(*args, **kwargs)
        tr.count("storage.open_rss_mb", rss_mb() - before)
        return store

    def save_delta(store, delta, real=storage.save_delta):
        before = file_stamps(Path(store.config.path))
        with tr.timed("storage.save_delta_s"):
            real(store, delta)
        after = file_stamps(Path(store.config.path))
        tr.count("storage.save_delta_bytes",
                 sum(stamp[2] for name, stamp in after.items() if before.get(name) != stamp))

    def entail_fixpoint(*args, real=semantics.entail_fixpoint, **kwargs):
        with tr.timed("semantics.entail_s"):
            result = real(*args, **kwargs)
        tr.count("semantics.derived", result.derived_count)
        tr.count("semantics.rounds", result.rounds)
        return result

    def shortest_path(view, *args, real=cli.shortest_path, **kwargs):
        if not isinstance(view, Store):
            # Expansions of the store with its derived delta, the store's own
            # expansions inside them included.
            view.neighbors = calls["semantics.view_neighbors"].wrap(view.neighbors)
        with tr.timed("traversal.query_s"):
            result = real(view, *args, **kwargs)
        tr.count("traversal.nodes_explored", result.nodes_explored)
        state["returned"] = time.perf_counter_ns() if result.found else None
        return result

    storage.load_triples = load_triples
    storage.open_store = open_store
    storage.save_delta = save_delta
    semantics.entail_fixpoint = entail_fixpoint
    cli.shortest_path = shortest_path
    return {"calls": calls, "state": state}


def main() -> int:
    if sys.argv[1:2] != ["--spans"] or len(sys.argv) < 4:
        print("usage: layers.py --spans FILE <ldm3n arguments>", file=sys.stderr)
        return 2
    spans, argv = Path(sys.argv[2]), sys.argv[3:]
    tr = Tracer(True)
    hooks = instrument(tr)
    from ldm3n import cli

    with tr.timed("cli.main"):
        code = cli.main(argv)
    sys.stdout.flush()
    main_s = tr.counters["cli.main"][0]
    state = hooks["state"]
    if state.get("returned"):
        # Decoding the path and printing the answer row, after the search.
        end = time.perf_counter_ns()
        tr.add_span("traversal.path_decode", state["returned"], end)
        tr.count("traversal.path_decode_s", (end - state["returned"]) / 1e9)
    if argv[0] == "validate" and "storage.open_s" in tr.counters:
        # What validate does once the store is open: classify the singleton
        # properties, check their uses and print the violations.
        tr.count("semantics.validate_s", main_s - tr.counters["storage.open_s"][0])
    for name, timer in hooks["calls"].items():
        if timer.calls:
            tr.count(name + ".s", (timer.ns - timer.calls * tr.bias_ns) / 1e9)
            tr.count(name + ".calls", timer.calls)
    if state.get("passes"):
        # Seconds per pass over the stored triples, in this process.
        tr.count("storage.iter_triples_s", tr.counters["storage.iter_triples.s"][-1] / state["passes"])
    tr.count("timer.bias_ns", tr.bias_ns)
    tr.count("timer.cost_ns", tr.cost_ns)
    tr.dump(spans)
    return code


def cli_command(ctx: Context, tr: Tracer, args: list[str], name: str) -> ChildResult:
    """One CLI command in a fresh process: ``python -m ldm3n.cli`` untraced,
    this script traced, whose spans and counters are then adopted."""
    if not ctx.trace:
        return run_child(ctx, CLI + args, name)
    spans = ctx.work / f"{name}.spans.json"
    res = run_child(ctx, [sys.executable, str(BENCH_DIR / "layers.py"), "--spans", str(spans)] + args, name)
    if spans.exists():
        data = json.loads(spans.read_text(encoding="utf-8"))
        tr.merge(data["spans"], data["counters"])
    return res


def load_and_open(ctx: Context, tr: Tracer, corpus: Path, expect: dict, rep: int):
    """Set-up of an in-process workload: ``ldm3n load`` in a child, then
    ``open_store`` here. Returns the store and the ``load`` process."""
    path = ctx.work / f"store{rep}"
    child = cli_command(ctx, tr, ["load", "--store", str(path), "--input", str(corpus)], f"load{rep}")
    ctx.check(
        child.code == 0 and child.stdout.splitlines()[1:2] == [f"triples,{expect['load']['triples']}"],
        f"load exited {child.code}: {child.stdout[:200]} {child.stderr[-300:]}",
    )
    before = rss_mb()
    parse = Calls()
    if ctx.trace:
        # Opening re-parses every stored token.
        storage.parse_term = parse.wrap(parse_term)
    try:
        with tr.timed("storage.open_s"):
            store = open_store(path)
    finally:
        storage.parse_term = parse_term
    if ctx.trace:
        tr.count("terms.parse_term.s", (parse.ns - parse.calls * tr.bias_ns) / 1e9)
        tr.count("terms.parse_term.calls", parse.calls)
    if rep == 0:
        # Later opens reuse memory the previous store freed; only the first
        # shows what opening costs.
        tr.count("storage.open_rss_mb", rss_mb() - before)
    return store, child


def startup_ms(ctx: Context, times: int = 3) -> list[float]:
    """Wall times of ``ldm3n --help``: what every CLI process pays to start."""
    return [run_child(ctx, CLI + ["--help"], f"help{i}").wall_s * 1000 for i in range(times)]


def load_layers(tr: Tracer) -> dict:
    """Per-layer figures of the traced loads and opens: medians over them."""
    return {
        "ntriples.parse_s": (tr.median("ntriples.parse_s"), "s"),
        "storage.create_s": (tr.median("storage.create_s"), "s"),
        "storage.bytes_written": (tr.median("storage.bytes_written"), "B"),
        "storage.open_s": (tr.median("storage.open_s"), "s"),
        "storage.open_rss_mb": (tr.median("storage.open_rss_mb"), "MB"),
    }


def query_layers(tr: Tracer, store, queries, tokens: list[str]) -> dict:
    """Time the query-side layers in process: resolve the given tokens, probe
    neighbors of the nodes they name, and run, decode and render each
    ``(source, target, model)`` query."""
    terms = [parse_term(t) for t in tokens]
    with tr.timed("storage.resolve.s"):
        ids = [store.resolve(t) for t in terms]
    tr.count("storage.resolve.calls", len(ids))
    probe = ids[:NEIGHBOR_SAMPLE]
    with tr.timed("storage.neighbors.s"):
        for node in probe:
            store.neighbors(node)
    tr.count("storage.neighbors.calls", len(probe))
    for source, target, model in queries:
        with tr.timed("traversal.query_s"):
            result = shortest_path(store, source, target, model)
        tr.count("traversal.nodes_explored", result.nodes_explored)
        if result.found:
            with tr.timed("storage.decode.s"):
                for node in result.resource_path:
                    store.decode(node)
            tr.count("storage.decode.calls", len(result.resource_path))
            with tr.timed("traversal.path_decode_s"):
                "/".join(format_term(store.decode(n)) for n in result.resource_path)
    figures = query_figures(tr, len(queries))
    figures["storage.neighbors_us"] = (tr.per_call_us("storage.neighbors"), "us")
    return figures


def query_figures(tr: Tracer, per: int) -> dict:
    """Query-side figures. ``traversal.nodes_explored`` is the count for one
    pass over a set of ``per`` queries: the mean per search times ``per``."""
    query_s = tr.counters["traversal.query_s"]
    explored = tr.total("traversal.nodes_explored")
    return {
        "storage.resolve_us": (tr.per_call_us("storage.resolve"), "us"),
        "storage.decode_us": (tr.per_call_us("storage.decode"), "us"),
        "traversal.path_decode_us": (tr.median("traversal.path_decode_s", 1e6), "us"),
        "traversal.query_ms": (tr.median("traversal.query_s", 1e3), "ms"),
        "traversal.nodes_explored": (explored * per / len(query_s), "count"),
        "traversal.us_per_node": (sum(query_s) / explored * 1e6, "us"),
    }


if __name__ == "__main__":
    sys.exit(main())
