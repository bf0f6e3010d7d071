"""Persistent index layer: dictionaries, adjacency, and pair counts.

A store is a directory of five files, each starting with a 9-byte header
(magic ``LDM3N\\0``, u16 format version, u8 index kind):

    dict_fwd   term token -> id records, in issue order
    dict_rev   id -> term token records, in issue order
    adj        distinct encoded triples (s, p, o), sorted
    adj_count  subject id -> number of (pred, obj) pairs, sorted
    meta       JSON: config echo plus the load report

Triples are held under their subject id; the initial/terminal edge pair of
each triple is implicit in the stored record, so the same index serves both
traversal models. Loading dedups exact duplicates (set semantics), and
neighbor lists are kept sorted by (pred, obj) so every downstream answer is
deterministic. After load the store is read-only and safe to share across
concurrent query workers.
"""

from __future__ import annotations

import enum
import json
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .dictionary import Dictionary
from .errors import StoreCorrupt, UnknownNode
from .terms import Term, Triple, format_term, parse_term

MAGIC = b"LDM3N\0"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<6sHB")

FILES = ("dict_fwd", "dict_rev", "adj", "adj_count", "meta")


class IndexKind(enum.Enum):
    HASH = "hash"
    ORDERED = "ordered"


@dataclass
class StoreConfig:
    path: Path
    index_kind: IndexKind = IndexKind.HASH
    cache_size_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        if isinstance(self.index_kind, str):
            self.index_kind = IndexKind(self.index_kind)
        if self.cache_size_bytes <= 0:
            raise ValueError("cache_size_bytes must be positive")


@dataclass
class LoadReport:
    triples: int = 0
    distinct_terms: int = 0
    duplicates: int = 0
    literals: int = 0


@dataclass(frozen=True, slots=True)
class EncodedTriple:
    s: int
    p: int
    o: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.s, self.p, self.o)


class AdjacencyIndex:
    """Query surface shared by the hash and ordered index structures."""

    kind: IndexKind

    def neighbors(self, node: int) -> list[tuple[int, int]]:
        """All (pred, obj) pairs under ``node``, sorted; [] for sinks/unknowns."""
        return list(self.cursor(node))

    def cursor(self, node: int) -> Iterator[tuple[int, int]]:
        raise NotImplementedError

    def pair_count(self, node: int) -> int:
        raise NotImplementedError

    def keys(self) -> Iterator[int]:
        raise NotImplementedError

    def iter_triples(self) -> Iterator[tuple[int, int, int]]:
        for s in self.keys():
            for p, o in self.cursor(s):
                yield (s, p, o)

    def contains(self, s: int, p: int, o: int) -> bool:
        pairs = self._pairs(s)
        if pairs is None:
            return False
        i = bisect_left(pairs, (p, o))
        return i < len(pairs) and pairs[i] == (p, o)

    def triple_count(self) -> int:
        return sum(self.pair_count(k) for k in self.keys())

    def _pairs(self, node: int) -> list[tuple[int, int]] | None:
        raise NotImplementedError


class HashIndex(AdjacencyIndex):
    """Hash-table adjacency: dict keyed by subject id."""

    kind = IndexKind.HASH

    def __init__(self, entries: dict[int, list[tuple[int, int]]]):
        self._entries = entries

    def cursor(self, node: int) -> Iterator[tuple[int, int]]:
        return iter(self._entries.get(node, ()))

    def pair_count(self, node: int) -> int:
        return len(self._entries.get(node, ()))

    def keys(self) -> Iterator[int]:
        return iter(sorted(self._entries.keys()))

    def _pairs(self, node: int) -> list[tuple[int, int]] | None:
        return self._entries.get(node)


class OrderedIndex(AdjacencyIndex):
    """Ordered adjacency: sorted key array probed by binary search."""

    kind = IndexKind.ORDERED

    def __init__(self, entries: dict[int, list[tuple[int, int]]]):
        self._keys = sorted(entries.keys())
        self._values = [entries[k] for k in self._keys]

    def _slot(self, node: int) -> int | None:
        i = bisect_left(self._keys, node)
        if i < len(self._keys) and self._keys[i] == node:
            return i
        return None

    def cursor(self, node: int) -> Iterator[tuple[int, int]]:
        i = self._slot(node)
        return iter(()) if i is None else iter(self._values[i])

    def pair_count(self, node: int) -> int:
        i = self._slot(node)
        return 0 if i is None else len(self._values[i])

    def keys(self) -> Iterator[int]:
        return iter(self._keys)

    def _pairs(self, node: int) -> list[tuple[int, int]] | None:
        i = self._slot(node)
        return None if i is None else self._values[i]


def _build_index(kind: IndexKind, entries: dict[int, list[tuple[int, int]]]) -> AdjacencyIndex:
    for pairs in entries.values():
        pairs.sort()
    if kind is IndexKind.HASH:
        return HashIndex(entries)
    return OrderedIndex(entries)


# Free-function forms of the index query surface.


def neighbors(index: AdjacencyIndex, node: int) -> list[tuple[int, int]]:
    return index.neighbors(node)


def pair_count(index: AdjacencyIndex, node: int) -> int:
    return index.pair_count(node)


@dataclass
class Store:
    """An opened store: dictionary + adjacency index + counts + metadata."""

    config: StoreConfig
    dictionary: Dictionary
    index: AdjacencyIndex
    counts: dict[int, int]
    report: LoadReport
    delta: list[tuple[int, int, int]] = field(default_factory=list)

    # -- query surface shared with semantics.StoreView ------------------

    def neighbors(self, node: int) -> list[tuple[int, int]]:
        return self.index.neighbors(node)

    def pair_count(self, node: int) -> int:
        return self.index.pair_count(node)

    def iter_triples(self) -> Iterator[tuple[int, int, int]]:
        return self.index.iter_triples()

    def contains(self, s: int, p: int, o: int) -> bool:
        return self.index.contains(s, p, o)

    def is_issued(self, term_id: int) -> bool:
        return self.dictionary.is_issued(term_id)

    def triple_count(self) -> int:
        return self.report.triples

    def decode(self, term_id: int) -> Term:
        return self.dictionary.decode(term_id)

    def resolve(self, term: Term) -> int:
        """Id for a term that must already be in the store; UnknownNode otherwise."""
        term_id = self.dictionary.lookup(term)
        if term_id is None:
            raise UnknownNode(f"term not in store: {format_term(term)}")
        return term_id


def load_triples(
    config: StoreConfig, triples: Iterable[Triple]
) -> tuple[Dictionary, AdjacencyIndex, LoadReport]:
    """Encode, dedup, index, and persist a triple sequence.

    Every distinct input triple lands in the index exactly once; exact
    duplicates are counted in the report. Returns the in-memory views of
    what was written under ``config.path``.
    """
    dictionary = Dictionary()
    entries: dict[int, list[tuple[int, int]]] = {}
    seen: set[tuple[int, int, int]] = set()
    report = LoadReport()

    for t in triples:
        s = dictionary.encode(t.subject)
        p = dictionary.encode(t.predicate)
        o = dictionary.encode(t.object)
        key = (s, p, o)
        if key in seen:
            report.duplicates += 1
            continue
        seen.add(key)
        entries.setdefault(s, []).append((p, o))

    report.triples = len(seen)
    report.distinct_terms = len(dictionary)
    report.literals = dictionary.literal_count()

    index = _build_index(config.index_kind, entries)
    counts = {k: index.pair_count(k) for k in index.keys()}
    _write_store(config, dictionary, index, counts, report)
    return dictionary, index, report


def create_store(config: StoreConfig, triples: Iterable[Triple]) -> Store:
    dictionary, index, report = load_triples(config, triples)
    counts = {k: index.pair_count(k) for k in index.keys()}
    return Store(config, dictionary, index, counts, report)


# -- on-disk format ------------------------------------------------------


def _header_bytes(kind: IndexKind) -> bytes:
    return _HEADER.pack(MAGIC, FORMAT_VERSION, 0 if kind is IndexKind.HASH else 1)


def _check_header(data: bytes, path: Path) -> IndexKind:
    if len(data) < _HEADER.size:
        raise StoreCorrupt(f"{path}: truncated header")
    magic, version, kind = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise StoreCorrupt(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise StoreCorrupt(f"{path}: unsupported format version {version}")
    if kind not in (0, 1):
        raise StoreCorrupt(f"{path}: unknown index kind byte {kind}")
    return IndexKind.HASH if kind == 0 else IndexKind.ORDERED


def _write_store(
    config: StoreConfig,
    dictionary: Dictionary,
    index: AdjacencyIndex,
    counts: dict[int, int],
    report: LoadReport,
    delta: list[tuple[int, int, int]] | None = None,
) -> None:
    path = config.path
    path.mkdir(parents=True, exist_ok=True)
    header = _header_bytes(config.index_kind)

    with open(path / "dict_fwd", "wb") as f:
        f.write(header)
        for term_id, term in dictionary.items():
            token = format_term(term).encode("utf-8")
            f.write(struct.pack("<I", len(token)) + token + struct.pack("<Q", term_id))
    with open(path / "dict_rev", "wb") as f:
        f.write(header)
        for term_id, term in dictionary.items():
            token = format_term(term).encode("utf-8")
            f.write(struct.pack("<QI", term_id, len(token)) + token)

    flat: list[int] = []
    for s, p, o in index.iter_triples():
        flat.extend((s, p, o))
    with open(path / "adj", "wb") as f:
        f.write(header)
        f.write(struct.pack("<Q", len(flat) // 3))
        f.write(struct.pack(f"<{len(flat)}Q", *flat))

    with open(path / "adj_count", "wb") as f:
        f.write(header)
        f.write(struct.pack("<Q", len(counts)))
        for k in sorted(counts):
            f.write(struct.pack("<QQ", k, counts[k]))

    meta = {
        "index_kind": config.index_kind.value,
        "cache_size_bytes": config.cache_size_bytes,
        "triples": report.triples,
        "distinct_terms": report.distinct_terms,
        "duplicates": report.duplicates,
        "literals": report.literals,
        "derived": len(delta) if delta else 0,
    }
    with open(path / "meta", "wb") as f:
        f.write(header)
        f.write(json.dumps(meta, indent=2).encode("utf-8"))

    delta_path = path / "delta"
    if delta:
        flat = [x for t in delta for x in t]
        with open(delta_path, "wb") as f:
            f.write(header)
            f.write(struct.pack("<Q", len(delta)))
            f.write(struct.pack(f"<{len(flat)}Q", *flat))
    else:
        # An old delta would otherwise outlive the derivations it held.
        delta_path.unlink(missing_ok=True)


def _read_file(path: Path) -> tuple[IndexKind, bytes]:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise StoreCorrupt(f"{path}: missing store file") from None
    kind = _check_header(data, path)
    return kind, data[_HEADER.size :]


def _read_records(path: Path, width: int) -> tuple[int, ...]:
    """Body of ``adj``, ``adj_count`` or ``delta``: a u64 record count, then
    that many records of ``width`` u64 words; StoreCorrupt on a size mismatch."""
    _, body = _read_file(path)
    if len(body) < 8:
        raise StoreCorrupt(f"{path}: short read of the record count at byte offset {_HEADER.size}")
    (n,) = struct.unpack_from("<Q", body)
    expected = 8 + 8 * width * n
    if len(body) != expected:
        raise StoreCorrupt(
            f"{path}: {n} records need {expected - 8} bytes at byte offset {_HEADER.size + 8},"
            f" found {len(body) - 8}"
        )
    return struct.unpack_from(f"<{width * n}Q", body, 8)


def open_store(path: Path | str, cache_size_bytes: int | None = None) -> Store:
    """Open an existing store directory; raises StoreCorrupt on any mismatch."""
    path = Path(path)
    kind, meta_body = _read_file(path / "meta")
    try:
        meta = json.loads(meta_body)
    except json.JSONDecodeError as exc:
        raise StoreCorrupt(f"{path / 'meta'}: bad JSON payload: {exc}") from None
    if meta.get("index_kind") != kind.value:
        raise StoreCorrupt(f"{path / 'meta'}: header/body index kind mismatch")

    dictionary = Dictionary()
    _, rev = _read_file(path / "dict_rev")
    offset = 0
    try:
        while offset < len(rev):
            term_id, length = struct.unpack_from("<QI", rev, offset)
            end = offset + 12 + length
            token = rev[offset + 12 : end].decode("utf-8")
            dictionary._restore(term_id, parse_term(token))
            offset = end
    except (struct.error, ValueError) as exc:
        raise StoreCorrupt(
            f"{path / 'dict_rev'}: bad record at byte offset {_HEADER.size + offset}: {exc}"
        ) from None
    if offset != len(rev):
        raise StoreCorrupt(
            f"{path / 'dict_rev'}: last record runs past the end of the file"
            f" at byte offset {_HEADER.size + len(rev)}"
        )
    fwd_kind, fwd = _read_file(path / "dict_fwd")
    if fwd_kind is not kind:
        raise StoreCorrupt(f"{path / 'dict_fwd'}: index kind disagrees with meta")

    flat = _read_records(path / "adj", 3)
    n_triples = len(flat) // 3
    entries: dict[int, list[tuple[int, int]]] = {}
    for i in range(0, len(flat), 3):
        entries.setdefault(flat[i], []).append((flat[i + 1], flat[i + 2]))
    index = _build_index(kind, entries)

    cflat = _read_records(path / "adj_count", 2)
    counts = dict(zip(cflat[0::2], cflat[1::2]))
    for k, c in counts.items():
        if index.pair_count(k) != c:
            raise StoreCorrupt(f"{path / 'adj_count'}: count for key {k} disagrees with adj")
    if sum(counts.values()) != n_triples:
        raise StoreCorrupt(f"{path / 'adj_count'}: totals disagree with adj")

    delta: list[tuple[int, int, int]] = []
    delta_path = path / "delta"
    if delta_path.exists():
        dflat = _read_records(delta_path, 3)
        delta = [(dflat[i], dflat[i + 1], dflat[i + 2]) for i in range(0, len(dflat), 3)]

    config = StoreConfig(
        path=path,
        index_kind=kind,
        cache_size_bytes=cache_size_bytes or meta.get("cache_size_bytes", 64 * 1024 * 1024),
    )
    report = LoadReport(
        triples=meta.get("triples", n_triples),
        distinct_terms=meta.get("distinct_terms", len(dictionary)),
        duplicates=meta.get("duplicates", 0),
        literals=meta.get("literals", dictionary.literal_count()),
    )
    return Store(config, dictionary, index, counts, report, delta=delta)


def save_delta(store: Store, delta: list[tuple[int, int, int]]) -> None:
    """Persist derived triples (and any dictionary growth) alongside the base data."""
    store.delta = list(delta)
    _write_store(
        store.config, store.dictionary, store.index, store.counts, store.report, store.delta
    )
