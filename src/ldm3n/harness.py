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
every target asked of that source has been popped; each pair's record is
fixed when its target pops, so it equals the answer of a search for that
pair alone. With more than one worker the sources fan out over a thread
pool against the shared read-only store; all non-timing outputs are
invariant to the worker count. Reach batches keep status, distance and
``nodes_explored`` but rebuild no paths. A group's ordered pairs are a lazy
view over its members, so memory stays linear in the group size.
"""

from __future__ import annotations

import csv
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

from .errors import UnknownNode, UnknownProperty
from .semantics import RDF_SINGLETON_PROPERTY_OF, Vocabulary, resolve_vocabulary
from .terms import IRI, Triple, format_term
from .traversal import Model, PathStatus, _dijkstra, check_endpoints

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
        m = self.members
        for i, a in enumerate(m):
            yield from zip(repeat(a), m[:i])
            yield from zip(repeat(a), m[i + 1 :])


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


@dataclass
class QueryRecord:
    source: int
    target: int
    model: Model
    status: str
    distance: int | None
    nodes_explored: int
    elapsed_ms: float
    path: list[int] | None
    error: str | None = None


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
        return sum(1 for r in self.records if r.status == PathStatus.FOUND.value)

    @property
    def average_elapsed_ms(self) -> float:
        return self.total_elapsed_ms / len(self.records) if self.records else 0.0

    def recompute_aggregates(self) -> None:
        buckets: dict[int, list[float]] = {}
        for r in self.records:
            if r.status == PathStatus.FOUND.value and r.distance is not None:
                buckets.setdefault(r.distance, []).append(r.elapsed_ms)
        self.per_distance = {
            d: (len(v), sum(v) / len(v)) for d, v in sorted(buckets.items())
        }

    def write_csv(self, out: IO, dictionary=None) -> None:
        """Records as CSV rows, then per-distance and summary trailer lines.

        Each distinct term id is rendered once per call.
        """
        names: dict[int, str] = {}

        def name(term_id: int) -> str:
            text = names.get(term_id)
            if text is None:
                if dictionary is None or not dictionary.is_issued(term_id):
                    text = str(term_id)
                else:
                    text = format_term(dictionary.decode(term_id))
                names[term_id] = text
            return text

        writer = csv.writer(out)
        writer.writerow(
            ["source", "target", "model", "status", "distance", "nodes_explored", "elapsed_ms", "path"]
        )
        for r in self.records:
            writer.writerow(_record_row(r, name))
        for d, (count, mean_ms) in self.per_distance.items():
            out.write(f"# distance {d}: count={count} mean_ms={mean_ms:.3f}\n")
        out.write(
            f"# summary: pairs={self.pair_count} reachable={self.reachable_count}"
            f" total_ms={self.total_elapsed_ms:.3f} avg_ms={self.average_elapsed_ms:.3f}"
            f" workers={self.workers} model={self.model.value} mode={self.mode}\n"
        )


def _record_row(r: QueryRecord, name: Callable[[int], str]) -> list[str]:
    path = "/".join(name(n) for n in r.path) if r.path else ""
    return [
        name(r.source),
        name(r.target),
        r.model.value,
        r.status,
        "" if r.distance is None else str(r.distance),
        str(r.nodes_explored),
        f"{r.elapsed_ms:.3f}",
        path if r.error is None else r.error,
    ]


def run_batch(
    store,
    pairs: Iterable[tuple[int, int]],
    model: Model,
    mode: str = "spath",
    workers: int = 1,
    max_dist: int | None = None,
) -> BatchReport:
    """Answer every pair with one search per distinct source.

    Each input pair gets one record, duplicates and self-pairs included.
    A record's ``elapsed_ms`` runs from the start of its source's search to
    the pop of its target (to the end of the search when unreachable).
    Per-query failures (unknown endpoints) land in the report as error
    records instead of aborting the batch. Reach mode leaves ``path`` unset.
    Sources fan out over ``workers`` threads; records come back sorted by
    (source, target), so reports are comparable across worker counts.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if mode not in ("reach", "spath"):
        raise ValueError(f"bad batch mode: {mode}")
    paths = mode == "spath"

    def one_source(item: tuple[int, list[int]]) -> list[QueryRecord]:
        source, targets = item
        errors: dict[int, str] = {}
        for target in targets:
            try:
                check_endpoints(store, source, target)
            except UnknownNode as exc:
                errors[target] = str(exc)
        live = [t for t in targets if t not in errors]
        found = _dijkstra(store, source, live, model, max_dist, paths) if live else {}
        records = []
        for target in targets:
            if target in errors:
                records.append(
                    QueryRecord(source, target, model, "error", None, 0, 0.0, None, errors[target])
                )
                continue
            result = found[target]
            records.append(QueryRecord(
                source,
                target,
                model,
                result.status.value,
                result.distance,
                result.nodes_explored,
                result.elapsed_s * 1000.0,
                result.resource_path,
            ))
        return records

    started = time.perf_counter()
    by_source: dict[int, list[int]] = {}
    for source, target in pairs:
        by_source.setdefault(source, []).append(target)
    if workers == 1:
        batches = map(one_source, by_source.items())
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(one_source, by_source.items()))
    records = [r for batch in batches for r in batch]
    total_ms = (time.perf_counter() - started) * 1000.0

    records.sort(key=lambda r: (r.source, r.target))
    report = BatchReport(model, mode, workers, records, total_ms)
    report.recompute_aggregates()
    return report


def read_pairs_csv(lines: Iterable[str], store) -> list[tuple[int, int]]:
    """Pair file rows ``source_iri,target_iri`` resolved to ids.

    Accepts bare IRIs or N-Triples tokens; a header row is skipped when
    present. A term missing from the store raises UnknownNode naming the
    row's line number and the term.
    """
    from .terms import parse_term

    pairs: list[tuple[int, int]] = []
    reader = csv.reader(lines)
    for row in reader:
        if not row or row[0].strip().startswith("#"):
            continue
        if [c.strip().lower() for c in row[:2]] == ["source_iri", "target_iri"]:
            continue
        if len(row) < 2:
            raise ValueError(f"pair row needs two columns: {row!r}")
        ids = []
        for cell in row[:2]:
            cell = cell.strip()
            term = parse_term(cell) if cell[:1] in ("<", '"', "_") else IRI(cell)
            try:
                ids.append(store.resolve(term))
            except UnknownNode as exc:
                raise UnknownNode(f"pairs line {reader.line_num}: {exc}") from None
        pairs.append((ids[0], ids[1]))
    return pairs
