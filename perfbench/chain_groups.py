"""chain_groups: the paper's experiment, all ordered pairs of each singleton group.

Set-up loads the chain corpus with ``ldm3n load`` in a child process, opens
it here with ``open_store`` and runs ``generate_pairs``. A round runs
``run_batch`` in spath mode under the triple-node model over every group
and writes each report with ``BatchReport.write_csv``. The run is
``SETUPS`` cycles of one set-up and then rounds for a share of the time. Answers are checked against the chain law: member i reaches member j
at distance exactly 3(j-i) when i < j, along the one successor path, and
nothing else is reachable; under the labeled-arc model nothing is.
"""

from __future__ import annotations

import csv
import statistics
import time

import corpus
from common import Context, Tracer, cycles, dir_bytes, fresh_gc, make_corpus, peak_rss_mb
from layers import load_and_open, load_layers, query_layers, startup_ms
from ldm3n import Model, parse_term
from ldm3n.harness import generate_pairs, run_batch

SCALE = 1.0
SETUPS = 5


class ChainAnswers:
    """Expected outcome of every ordered member pair, from the chain law."""

    def __init__(self, store, sizes: list[int]):
        self.where: dict[int, tuple[int, int]] = {}
        self.by_token: dict[str, int] = {}
        self.seq: list[list[int]] = []
        self.tokens: list[list[str]] = []
        succ = store.resolve(parse_term(corpus.HAS_SUCCESSOR))
        for g, k in enumerate(sizes):
            tokens = []
            for i in range(1, k + 1):
                tokens.append(corpus.member(g, i))
                if i < k:
                    tokens += [corpus.singleton(g, i), corpus.HAS_SUCCESSOR]
            ids = [succ if t == corpus.HAS_SUCCESSOR else store.resolve(parse_term(t)) for t in tokens]
            for i in range(1, k + 1):
                self.where[ids[3 * (i - 1)]] = (g, i)
                self.by_token[tokens[3 * (i - 1)]] = ids[3 * (i - 1)]
            self.seq.append(ids)
            self.tokens.append(tokens)

    def expected(self, source: int, target: int) -> tuple[int, int, int] | None:
        """(group, slice start, slice end) of the path, or None if unreachable."""
        gs, i = self.where[source]
        gt, j = self.where[target]
        if gs != gt or i >= j:
            return None
        return gs, 3 * (i - 1), 3 * (j - 1) + 1

    def record_ok(self, r) -> bool:
        span = self.expected(r.source, r.target)
        if span is None:
            return r.status == "unreachable" and r.distance is None and r.path is None
        g, a, b = span
        return r.status == "found" and r.distance == b - a - 1 and r.path == self.seq[g][a:b]

    def csv_ok(self, text: str, group) -> bool:
        rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
        k = len(group.members)
        if len(rows) != k * (k - 1) + 1:
            return False
        for row in rows[1:]:
            span = self.expected(self.by_token[row[0]], self.by_token[row[1]])
            if span is None:
                want = ["ldm3n", "unreachable", ""]
                path = ""
            else:
                g, a, b = span
                want = ["ldm3n", "found", str(b - a - 1)]
                path = "/".join(self.tokens[g][a:b])
            if row[2:5] != want or row[7] != path or not row[5].isdigit():
                return False
        return True


def run(ctx: Context):
    corpus_path, expect = make_corpus(ctx, "chain", SCALE)
    tr = Tracer(ctx.trace)
    generic = parse_term(corpus.HOLDS_POSITION)

    setups, loads = [], []
    child_peak = first_peak = 0.0
    store = groups = answers = None
    reports = ctx.work / "reports"
    reports.mkdir()

    def set_up(rep: int) -> None:
        nonlocal store, groups, answers, child_peak, first_peak
        if rep == 1:
            # The program's footprint: one store opened and batched over.
            # Later cycles re-open a store in this process, and what the
            # allocator keeps of the dropped one is the benchmark's doing.
            first_peak = peak_rss_mb()
        store = groups = answers = None
        fresh_gc()
        started = time.perf_counter()
        store, load = load_and_open(ctx, tr, corpus_path, expect, rep)
        with tr.timed("harness.generate_pairs_s"):
            groups = list(generate_pairs(store, store.resolve(generic)))
        setups.append(time.perf_counter() - started)
        loads.append(load.wall_s)
        child_peak = max(child_peak, load.maxrss_mb)
        answers = ChainAnswers(store, expect["sizes"])
        ctx.check(sorted(len(g.members) for g in groups) == sorted(expect["sizes"]), "generate_pairs groups")

    round_s = []

    def one_round(n: int) -> None:
        batches = []
        fresh_gc()
        started = time.perf_counter()
        for g, group in enumerate(groups):
            with tr.timed("harness.run_batch_s"):
                report = run_batch(store, group.pairs, Model.LDM3N, "spath")
            with tr.timed("harness.report_write_s"), open(reports / f"{g}.csv", "w", newline="") as f:
                report.write_csv(f, store)
            batches.append(report)
        round_s.append(time.perf_counter() - started)
        for g, report in enumerate(batches):
            for r in report.records:
                ctx.check(answers.record_ok(r), lambda: f"pair {r.source}->{r.target}: {r.status} {r.distance}")
            if n == 0:
                text = (reports / f"{g}.csv").read_text(encoding="utf-8")
                ctx.check(answers.csv_ok(text, groups[g]), f"report of group {g}")

    rounds = cycles(ctx.seconds, SETUPS, set_up, one_round)
    size = dir_bytes(ctx.work / f"store{SETUPS - 1}")
    pairs_per_round = sum(len(g.members) * (len(g.members) - 1) for g in groups)
    ctx.log.append(f"chain_groups: {rounds} rounds of {pairs_per_round} pairs,"
                   f" {pairs_per_round / statistics.median(round_s):.1f} pairs/s at the median round")
    ctx.log.append(f"load process, median of {len(loads)}: {statistics.median(loads):.4f} s")
    if len(round_s) >= 40:
        # The highest percentile with at least ten rounds beyond it.
        ctx.log.append(f"round_s p{100 * (1 - 10 / len(round_s)):.1f}: {sorted(round_s)[-11]:.4f} s")

    for group in groups:
        report = run_batch(store, group.pairs, Model.NLAN, "spath")
        for r in report.records:
            ctx.check(r.status == "unreachable", lambda: f"labeled-arc pair {r.source}->{r.target} found")

    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "round_s": (statistics.median(round_s), "s"),
        "peak_rss_mb": (max(child_peak, first_peak or peak_rss_mb()), "MB"),
        "store_bytes_per_triple": (size / expect["load"]["triples"], "B"),
    }
    per_layer = {}
    if ctx.trace:
        per_layer = load_layers(tr)
        queries = [(s, t, Model.LDM3N) for group in groups for s, t in group.pairs]
        tokens = [corpus.member(g, i) for g, k in enumerate(expect["sizes"]) for i in range(1, k + 1)]
        per_layer.update(query_layers(tr, store, queries, tokens))
        per_layer.update({
            "terms.parse_term_us": (tr.per_call_us("terms.parse_term"), "us"),
            "cli.startup_ms": (statistics.median(startup_ms(ctx)), "ms"),
            "harness.generate_pairs_s": (tr.median("harness.generate_pairs_s"), "s"),
            # Pairs held in lists once generate_pairs has returned.
            "harness.pairs_materialised": (
                sum(len(g.pairs) for g in groups if isinstance(g.pairs, list)), "count"),
            "harness.run_batch_s": (tr.total("harness.run_batch_s") / rounds, "s"),
            "harness.report_write_s": (tr.total("harness.report_write_s") / rounds, "s"),
        })
    return end_to_end, per_layer, tr
