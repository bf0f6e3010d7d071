"""Experiment harness: input-pair generation, synthetic corpora, batch runs.

Pairs come from singleton-property grouping: subjects that hold some shared
object through singleton properties of one generic property form a group,
and every ordered pair of distinct group members becomes a query input.

Synthetic succession chains reproduce the structure that makes the two
traversal models diverge: each member holds a position through its own
singleton property, and consecutive members are linked by a successor
triple hung off that singleton property. Walking member i to member j
(i < j) on the triple-node model costs exactly 3 edges per link; on the
labeled-arc model every such pair is unreachable, because the only route
runs through predicate nodes.

Batches run one shortest-path search per distinct source, which stops once
every target asked of that source has been popped; each pair's distance,
``nodes_explored`` and ``elapsed_ms`` are fixed when its target pops, so
they equal the answer of a search for that pair alone, and the timing ends
exactly at that pop. Resource paths are rebuilt after the search from its
tree of relaxing triples, each tree edge once per source, however many
targets share it; batches build no triple paths. Sources run one after
another on the calling thread; the ``workers`` count is accepted and echoed
in the report, so every non-timing output is the same for any count.
Reach batches keep status, distance and ``nodes_explored`` but rebuild no
paths. A group's ordered pairs are a lazy view over its members, so memory
stays linear in the group size. The garbage collector is paused once for a
whole batch: its records and paths are long-lived, and a full collection
would only walk them.

A report holds its batch's model once, and a record per pair holds the
rest of that pair's row; every row's model column is the report's.

Reports are written one row at a time. A path that extends the one rendered
before it (the next target along a chain) is rendered from that path's text
plus its new ids, so each id is looked up once per extension, not once per
path. A row whose endpoints and path or error field hold no ``,``, ``"``,
``\\r`` or ``\\n`` is joined and written as it is; only a row that needs
quoting (a literal token, an IRI or error message with a comma) goes through
``csv.writer``, which writes the same bytes for the other rows.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from typing import IO, Iterable, Iterator, Sequence

from .errors import UnknownNode, UnknownProperty
from .semantics import RDF_SINGLETON_PROPERTY_OF, Vocabulary, resolve_vocabulary
from .terms import IRI, Triple
from .traversal import Model, PathStatus, _collector_paused, _dijkstra, _rebuild, check_endpoints

CHAIN_NS = "http://example.org/chain/"
NOISE_NS = "http://example.org/noise/"

GENERIC_POSITION_PROPERTY = IRI(CHAIN_NS + "holdsPoliticalPosition")
SUCCESSOR_PROPERTY = IRI(CHAIN_NS + "hasSuccessor")


@dataclass(frozen=True)
class OrderedPairs:
    """Every ordered pair of distinct members, generated on each iteration.

    Yields ``(a, b)`` for each member ``a`` and each other member ``b``, ``a``
    outer and ``b`` inner, both in member order; ``len()`` is k(k-1). Members
    must be distinct.
    """

    members: list[int]

    def __len__(self) -> int:
        k = len(self.members)
        return k * (k - 1)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return permutations(self.members, 2)


@dataclass
class PairGroup:
    """Subjects sharing one group object, with all ordered member pairs."""

    group_key: int
    members: list[int]

    @property
    def pairs(self) -> OrderedPairs:
        return OrderedPairs(self.members)

    @classmethod
    def build(cls, group_key: int, members: Iterable[int]) -> "PairGroup":
        """A group of the distinct ``members``, kept in id order."""
        return cls(group_key, sorted(set(members)))


def generate_pairs(store, generic_property: int, vocab: Vocabulary | None = None) -> list[PairGroup]:
    """Group subjects by shared object through singletons of one property.

    Groups with fewer than two members are dropped (they generate no
    pairs). Raises UnknownProperty when the generic property id was never
    issued.
    """
    if not store.is_issued(generic_property):
        raise UnknownProperty(f"generic property id {generic_property} was never issued")
    resolved = resolve_vocabulary(store.dictionary, vocab)
    singleton_of = resolved.singleton_property_of
    sp_ids: set[int] = set()
    if singleton_of != 0:
        for s, p, o in store.iter_triples():
            if p == singleton_of and o == generic_property:
                sp_ids.add(s)
    groups: dict[int, set[int]] = {}
    for s, p, o in store.iter_triples():
        if p in sp_ids:
            groups.setdefault(o, set()).add(s)
    return [
        PairGroup.build(key, members)
        for key, members in sorted(groups.items())
        if len(members) >= 2
    ]


@dataclass
class ChainSpec:
    """Deterministic succession-chain corpus: same seed, same triples."""

    groups: int
    members: int | Sequence[int]
    noise_triples: int = 0
    seed: int = 0

    def member_counts(self) -> list[int]:
        if isinstance(self.members, int):
            return [self.members] * self.groups
        counts = list(self.members)
        if len(counts) != self.groups:
            raise ValueError("members sequence length must equal group count")
        return counts


def generate_successor_chain(spec: ChainSpec) -> list[Triple]:
    """Emit the chained succession motif for each group, plus disjoint noise.

    Per group g with members m_1..m_k: (m_i, sp_i, position_g),
    (sp_i, singleton-of, generic-property), and (sp_i, successor, m_{i+1}).
    Noise triples use a separate namespace so they never perturb chain
    distances. The output order is deterministic for a fixed spec.
    """
    triples: list[Triple] = []
    for g, k in enumerate(spec.member_counts()):
        position = IRI(f"{CHAIN_NS}position/{g}")
        members = [IRI(f"{CHAIN_NS}politician/{g}/{i}") for i in range(1, k + 1)]
        props = [IRI(f"{CHAIN_NS}holdsPos/{g}/{i}") for i in range(1, k + 1)]
        for i in range(k):
            triples.append(Triple(members[i], props[i], position))
            triples.append(Triple(props[i], RDF_SINGLETON_PROPERTY_OF, GENERIC_POSITION_PROPERTY))
            if i + 1 < k:
                triples.append(Triple(props[i], SUCCESSOR_PROPERTY, members[i + 1]))
    rng = random.Random(spec.seed)
    for j in range(spec.noise_triples):
        s = IRI(f"{NOISE_NS}s/{rng.randrange(max(1, spec.noise_triples))}")
        p = IRI(f"{NOISE_NS}p/{rng.randrange(16)}")
        o = IRI(f"{NOISE_NS}o/{rng.randrange(max(1, spec.noise_triples))}")
        triples.append(Triple(s, p, o))
    return triples


def chain_members(spec: ChainSpec, group: int) -> list[IRI]:
    k = spec.member_counts()[group]
    return [IRI(f"{CHAIN_NS}politician/{group}/{i}") for i in range(1, k + 1)]


@dataclass(slots=True)
class QueryRecord:
    source: int
    target: int
    status: str
    distance: int | None
    nodes_explored: int
    elapsed_ms: float
    path: list[int] | None
    error: str | None = None


def _needs_quotes(field: str) -> bool:
    """Whether ``csv.writer`` quotes ``field``: it holds a comma, a quote or a line break."""
    return "," in field or '"' in field or "\r" in field or "\n" in field


@dataclass
class BatchReport:
    model: Model
    mode: str
    workers: int
    records: list[QueryRecord]
    total_elapsed_ms: float
    per_distance: dict[int, tuple[int, float]] = field(default_factory=dict)

    @property
    def pair_count(self) -> int:
        return len(self.records)

    @property
    def reachable_count(self) -> int:
        found = PathStatus.FOUND.value  # one enum lookup, not one per record
        return sum(1 for r in self.records if r.status == found)

    @property
    def average_elapsed_ms(self) -> float:
        return self.total_elapsed_ms / len(self.records) if self.records else 0.0

    def write_csv(self, out: IO, dictionary=None) -> None:
        """Records as CSV rows, then per-distance and summary trailer lines.

        Every row's model column, and the summary's, is ``self.model``'s
        value, read once per call. ``dictionary`` (a Dictionary or a Store)
        renders each distinct issued term id once per call, as its stored
        token; other ids print as numbers. A path that strictly extends the
        last path rendered is rendered as that path's text, ``/`` and its new
        ids only; any other path is joined in full. Only the endpoints and
        the path or error field can hold a ``,``, ``"``, ``\\r`` or ``\\n``.
        A row whose three such fields hold none of them is joined and written
        as it is; any other row goes through ``csv.writer``.
        """

        @cache
        def name(term_id: int) -> str:
            if dictionary is None or not dictionary.is_issued(term_id):
                return str(term_id)
            return dictionary.token(term_id)

        @cache
        def endpoint(term_id: int) -> tuple[str, bool]:
            token = name(term_id)
            return token, _needs_quotes(token)

        writer = csv.writer(out)
        writer.writerow(
            ["source", "target", "model", "status", "distance", "nodes_explored", "elapsed_ms", "path"]
        )
        write, quoted = out.write, writer.writerow
        model = self.model.value  # a Python-level property: read it once, not per row
        prev: list[int] = []  # the last path rendered, its text, and whether that needs quotes
        prev_text, prev_quoted = "", False
        for r in self.records:
            if r.error is not None:
                last, last_quoted = r.error, _needs_quotes(r.error)
            elif not r.path:
                last, last_quoted = "", False
            else:
                path, n = r.path, len(prev)
                if n and len(path) > n and path[:n] == prev:
                    tail = "/".join(map(name, path[n:]))
                    prev_text = f"{prev_text}/{tail}"
                    prev_quoted = prev_quoted or _needs_quotes(tail)
                else:
                    prev_text = "/".join(map(name, path))
                    prev_quoted = _needs_quotes(prev_text)
                prev, last, last_quoted = path, prev_text, prev_quoted
            (source, source_quoted), (target, target_quoted) = endpoint(r.source), endpoint(r.target)
            distance = "" if r.distance is None else r.distance
            if last_quoted or source_quoted or target_quoted:
                quoted((source, target, model, r.status, distance, r.nodes_explored, f"{r.elapsed_ms:.3f}", last))
            else:
                write(
                    f"{source},{target},{model},{r.status},{distance},"
                    f"{r.nodes_explored},{r.elapsed_ms:.3f},{last}\r\n"
                )
        for d, (count, mean_ms) in self.per_distance.items():
            out.write(f"# distance {d}: count={count} mean_ms={mean_ms:.3f}\n")
        out.write(
            f"# summary: pairs={self.pair_count} reachable={self.reachable_count}"
            f" total_ms={self.total_elapsed_ms:.3f} avg_ms={self.average_elapsed_ms:.3f}"
            f" workers={self.workers} model={model} mode={self.mode}\n"
        )


@_collector_paused
def run_batch(
    store,
    pairs: Iterable[tuple[int, int]],
    model: Model,
    mode: str = "spath",
    workers: int = 1,
    max_dist: int | None = None,
) -> BatchReport:
    """Answer every pair with one search per distinct source.

    Each input pair gets one record, duplicates and self-pairs included, and
    records come out sorted by (source, target). A record's ``elapsed_ms``
    runs from the start of its source's search to the pop of its target (to
    the end of the search when unreachable); paths are rebuilt after the
    search, outside that time. Per-query failures (unknown endpoints) land in
    the report as error records instead of aborting the batch. Reach mode
    leaves ``path`` unset. Sources run one after another; ``workers`` is
    checked and echoed in the report. The garbage collector is paused for
    the whole batch, and its state on entry is restored on return.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if mode not in ("reach", "spath"):
        raise ValueError(f"bad batch mode: {mode}")
    paths = mode == "spath"
    ldm3n = model is Model.LDM3N

    started = time.perf_counter()
    issued = cache(store.is_issued)  # each target is asked of many sources
    by_source: dict[int, list[int]] = {}
    for source, target in pairs:
        by_source.setdefault(source, []).append(target)
    records: list[QueryRecord] = []
    found_ms: dict[int, list[float]] = {}  # distance -> elapsed_ms of each found record
    for source in sorted(by_source):
        targets = sorted(by_source[source])
        live = [t for t in targets if issued(t)] if issued(source) else []
        found, via = _dijkstra(store, source, live, model, max_dist) if live else ({}, {})
        memo = {source: [source]}
        for target in targets:
            if target not in found:  # an endpoint was never issued, so this raises
                try:
                    check_endpoints(store, source, target)
                except UnknownNode as exc:
                    records.append(QueryRecord(source, target, "error", None, 0, 0.0, None, str(exc)))
                continue
            distance, explored, elapsed = found[target]
            elapsed_ms = elapsed * 1000.0
            if distance is None:
                records.append(QueryRecord(source, target, "unreachable", None, explored, elapsed_ms, None))
                continue
            path = _rebuild(via, memo, target, ldm3n) if paths else None
            records.append(QueryRecord(source, target, "found", distance, explored, elapsed_ms, path))
            found_ms.setdefault(distance, []).append(elapsed_ms)
    total_ms = (time.perf_counter() - started) * 1000.0

    per_distance = {d: (len(v), sum(v) / len(v)) for d, v in sorted(found_ms.items())}
    return BatchReport(model, mode, workers, records, total_ms, per_distance)


def read_pairs_csv(lines: Iterable[str], store) -> list[tuple[int, int]]:
    """Pair file rows ``source_iri,target_iri`` resolved to ids.

    Accepts bare IRIs or N-Triples tokens; a header row is skipped when
    present. A term missing from the store raises UnknownNode, and a
    malformed row ValueError; either message starts with the row's line
    number. Each distinct cell is resolved once.
    """
    from .terms import parse_term

    pairs: list[tuple[int, int]] = []
    resolved: dict[str, int] = {}
    reader = csv.reader(lines)
    for row in reader:
        if not row or row[0].strip().startswith("#"):
            continue
        if [c.strip().lower() for c in row[:2]] == ["source_iri", "target_iri"]:
            continue
        where = f"pairs line {reader.line_num}"
        if len(row) < 2:
            raise ValueError(f"{where}: pair row needs two columns: {row!r}")
        ids = []
        for cell in row[:2]:
            cell = cell.strip()
            term_id = resolved.get(cell)
            if term_id is None:
                try:
                    term = parse_term(cell) if cell[:1] in ("<", '"', "_") else IRI(cell)
                    term_id = resolved[cell] = store.resolve(term)
                except UnknownNode as exc:
                    raise UnknownNode(f"{where}: {exc}") from None
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
            ids.append(term_id)
        pairs.append((ids[0], ids[1]))
    return pairs
