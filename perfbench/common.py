"""Shared pieces of the benchmark: run context, spans, statistics, processes."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HASH_SEED = "0"
PAGE = os.sysconf("SC_PAGE_SIZE")


@dataclass
class Context:
    """One run: where it works, what it was asked for, and what it found."""

    seed: int
    seconds: int
    trace: bool
    work: Path
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    log: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str | Callable[[], str]) -> bool:
        """Count one operation; a wrong answer fails it and makes the run
        incorrect. The first few are kept, described by ``what`` (a string,
        or a function that makes one only when needed)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.wrong) < 20:
                self.wrong.append(what() if callable(what) else what)
        return ok

    @property
    def correct(self) -> bool:
        return not self.wrong

    def env(self) -> dict[str, str]:
        """Environment for every child process: fixed hash seed, the program's
        sources on the path, and a bytecode cache private to this run."""
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = HASH_SEED
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONPYCACHEPREFIX"] = str(self.work / "pycache")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env


class Calls:
    """Time and count of the calls made through one timing wrapper.

    ``Calls.made`` counts every timed call in the process, so that a span
    around timed calls can take their timers' own cost back out.
    """

    made = 0

    def __init__(self) -> None:
        self.ns = 0
        self.calls = 0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            started = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ns += time.perf_counter_ns() - started
                self.calls += 1
                Calls.made += 1

        return timed

    def wrap_iter(self, items):
        """Time each step of an iterator: the producer's share of a loop."""
        items = iter(items)
        while True:
            started = time.perf_counter_ns()
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self.ns += time.perf_counter_ns() - started
                self.calls += 1
                Calls.made += 1
            yield item


def timer_cost_ns(n: int = 10_000) -> tuple[float, float]:
    """What one timed call of a no-op costs, the least of three trials: the
    part inside the timed window, taken out of per-call figures, and the
    whole wrapper, taken out of spans that enclose timed calls."""

    def noop() -> None:
        pass

    inside, whole = [], []
    for _ in range(3):
        calls = Calls()
        timed = calls.wrap(noop)
        started = time.perf_counter_ns()
        for _ in range(n):
            noop()
        plain = time.perf_counter_ns() - started
        started = time.perf_counter_ns()
        for _ in range(n):
            timed()
        wrapped = time.perf_counter_ns() - started
        inside.append(calls.ns / n)
        whole.append((wrapped - plain) / n)
    return min(inside), max(0.0, min(whole))


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory.

    A counter keeps every value given to it, one per call or per process, so
    a figure can be a total or a median. A disabled tracer records nothing,
    so the untraced run pays one attribute check per call site.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        # What a timed call costs inside its window and as a whole; taken out
        # of per-call figures and of spans around timed calls.
        self.bias_ns, self.cost_ns = timer_cost_ns() if enabled else (0.0, 0.0)
        self.spans: list[tuple[str, int, int, int]] = []
        self.counters: dict[str, list[float]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter_ns(), parent)

    @contextmanager
    def timed(self, name: str):
        """A span whose length in seconds, less the cost of the timers that
        ran inside it, is also kept as one value of the counter ``name``."""
        if not self.enabled:
            yield
            return
        made, started = Calls.made, time.perf_counter_ns()
        with self.span(name):
            yield
        took = time.perf_counter_ns() - started - (Calls.made - made) * self.cost_ns
        self.count(name, took / 1e9)

    def add_span(self, name: str, start: int, end: int) -> None:
        if self.enabled:
            self.spans.append((name, start, end, self._stack[-1] if self._stack else -1))

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters.setdefault(name, []).append(value)

    def total(self, name: str) -> float:
        return sum(self.counters.get(name, ()))

    def median(self, name: str, scale: float = 1.0) -> float:
        """Median value of a counter, times ``scale``."""
        return statistics.median(self.counters[name]) * scale

    def per_call_us(self, name: str) -> float:
        """Mean microseconds per call, from the ``.s`` and ``.calls`` counters."""
        return self.total(name + ".s") / self.total(name + ".calls") * 1e6

    def merge(self, spans: list, counters: dict) -> None:
        """Adopt spans and counters recorded by a child process, its spans
        under the current span."""
        parent = self._stack[-1] if self._stack else -1
        offset = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append((name, start, end, parent if p < 0 else p + offset))
        for name, values in counters.items():
            self.counters.setdefault(name, []).extend(values)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": self.spans, "counters": self.counters}), encoding="utf-8"
        )


def rss_mb() -> float:
    """Current resident set of this process, in MB."""
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * PAGE / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def reference_loop_ms() -> float:
    """A fixed pure-Python loop, timed to tell host drift from program drift."""
    started = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(400_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return (time.perf_counter() - started) * 1000


def fresh_gc() -> None:
    """Start each timed phase from the same collector state; the collector
    stays enabled, because its passes over the store are a cost users pay."""
    gc.collect()


@dataclass
class ChildResult:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(ctx: Context, args: list[str], name: str, timeout: float = 170.0) -> ChildResult:
    """Run one process to completion; wall time, its own peak RSS and output.

    Output goes to files in the run directory rather than pipes, so the
    benchmark can collect the child with ``wait4`` and read its rusage.
    """
    out_path = ctx.work / f"{name}.out"
    err_path = ctx.work / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=ctx.env(), cwd=ROOT)
        deadline = started + timeout
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.001)
        except BaseException:
            # Interrupted: leave no child behind.
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        wall,
        usage.ru_maxrss / 1024,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def make_corpus(ctx: Context, kind: str, scale: float) -> tuple[Path, dict]:
    """Generate a corpus in a child process; returns its file and answers."""
    out = ctx.work / "input"
    res = run_child(
        ctx,
        [sys.executable, str(BENCH_DIR / "corpus.py"), kind, "--seed", str(ctx.seed),
         "--out", str(out), "--scale", str(scale)],
        "corpus",
    )
    if res.code != 0:
        raise RuntimeError(f"corpus generator failed: {res.stderr.strip()[-400:]}")
    ctx.log.append(f"corpus {kind}: generated in {res.wall_s:.2f} s")
    return out / "corpus.nt", json.loads((out / "expect.json").read_text(encoding="utf-8"))


def cycles(seconds: float, n: int, set_up, one_round) -> int:
    """Run ``n`` cycles, each ``set_up(i)`` and then whole rounds,
    ``one_round(k)`` with ``k`` counted over all cycles; returns the rounds.

    A cycle's rounds run until the next would end after ``seconds / n``, and
    at least one does. Set-ups and rounds so spread over the whole run, and
    each median over them meets the same phases of the host's drift.
    """
    rounds = 0
    for i in range(n):
        set_up(i)
        started = time.perf_counter()
        done = 0
        while True:
            one_round(rounds)
            rounds += 1
            done += 1
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / done > seconds / n:
                break
    return rounds
