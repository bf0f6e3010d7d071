"""Persistent store: one dictionary and one subject-keyed adjacency.

A store is a directory of three files, plus an optional fourth, each
starting with a 12-byte header (magic ``LDM3N\\0``, u16 format version,
u32 CRC-32 of the body that follows):

    dict_rev   id -> term token records, in issue order
    adj        distinct encoded triples (s, p, o), sorted
    meta       JSON: the load report
    delta      derived triples written by ``save_delta`` (optional)

Triples are held under their subject id; the initial/terminal edge pair of
each triple is implicit in the stored record, so the same adjacency serves
both traversal models. Loading dedups exact duplicates (set semantics), and
neighbor lists are kept sorted by (pred, obj) so every downstream answer is
deterministic. After load the store is read-only and safe to share across
concurrent query workers.
"""

from __future__ import annotations

import json
import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .dictionary import Dictionary
from .errors import StoreCorrupt, UnknownNode
from .terms import Term, Triple, format_term, parse_term

MAGIC = b"LDM3N\0"
FORMAT_VERSION = 2
_HEADER = struct.Struct("<6sHI")
_REV_RECORD = struct.Struct("<QI")
_U64 = struct.Struct("<Q")
# Records gathered into one write (and one CRC update) while streaming a body.
_CHUNK = 8192

Adjacency = dict[int, list[tuple[int, int]]]


@dataclass
class StoreConfig:
    path: Path

    def __post_init__(self) -> None:
        self.path = Path(self.path)


@dataclass
class LoadReport:
    triples: int = 0
    distinct_terms: int = 0
    duplicates: int = 0
    literals: int = 0


@dataclass
class Store:
    """An opened store: dictionary, adjacency, load report and derived delta.

    ``adjacency`` maps each subject id, in ascending order, to its sorted
    (pred, obj) pairs.
    """

    config: StoreConfig
    dictionary: Dictionary
    adjacency: Adjacency
    report: LoadReport
    delta: list[tuple[int, int, int]] = field(default_factory=list)

    # -- query surface shared with semantics.StoreView ------------------

    def neighbors(self, node: int) -> list[tuple[int, int]]:
        """All (pred, obj) pairs under ``node``, sorted, as a new list; [] for
        sinks and unknown ids."""
        return list(self.adjacency.get(node, ()))

    def pair_count(self, node: int) -> int:
        return len(self.adjacency.get(node, ()))

    def iter_triples(self) -> Iterator[tuple[int, int, int]]:
        for s, pairs in self.adjacency.items():
            for p, o in pairs:
                yield (s, p, o)

    def contains(self, s: int, p: int, o: int) -> bool:
        pairs = self.adjacency.get(s)
        if pairs is None:
            return False
        i = bisect_left(pairs, (p, o))
        return i < len(pairs) and pairs[i] == (p, o)

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


def _sorted_adjacency(entries: Adjacency) -> Adjacency:
    """``entries`` with subjects in ascending order and each pair list sorted."""
    for pairs in entries.values():
        pairs.sort()
    return {s: entries[s] for s in sorted(entries)}


def load_triples(
    config: StoreConfig, triples: Iterable[Triple]
) -> tuple[Dictionary, Adjacency, LoadReport]:
    """Encode, dedup, index, and persist a triple sequence.

    Every distinct input triple lands in the adjacency exactly once; exact
    duplicates are counted in the report. Returns the in-memory views of
    what was written under ``config.path``.
    """
    dictionary = Dictionary()
    entries: Adjacency = {}
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

    adjacency = _sorted_adjacency(entries)
    store = Store(config, dictionary, adjacency, report)
    config.path.mkdir(parents=True, exist_ok=True)
    _write_file(config.path / "dict_rev", _dict_rev_body(dictionary))
    _write_file(config.path / "adj", _triples_body(store.iter_triples(), report.triples))
    _write_meta(store)
    # An old delta would otherwise outlive the store it was derived from.
    (config.path / "delta").unlink(missing_ok=True)
    return dictionary, adjacency, report


def create_store(config: StoreConfig, triples: Iterable[Triple]) -> Store:
    dictionary, adjacency, report = load_triples(config, triples)
    return Store(config, dictionary, adjacency, report)


def save_delta(store: Store, delta: list[tuple[int, int, int]]) -> None:
    """Persist derived triples, and the dictionary they may have grown.

    ``adj`` is never rewritten; an empty delta removes the ``delta`` file.
    """
    store.delta = list(delta)
    path = store.config.path
    _write_file(path / "dict_rev", _dict_rev_body(store.dictionary))
    if store.delta:
        _write_file(path / "delta", _triples_body(store.delta, len(store.delta)))
    else:
        # An old delta would otherwise outlive the derivations it held.
        (path / "delta").unlink(missing_ok=True)
    _write_meta(store)


# -- on-disk format ------------------------------------------------------


def _write_file(path: Path, body: Iterable[bytes]) -> None:
    """Stream ``body`` after a placeholder header, then write the real header
    with the body's CRC-32."""
    crc = 0
    with open(path, "wb") as f:
        f.write(bytes(_HEADER.size))
        for chunk in body:
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.seek(0)
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, crc))


def _dict_rev_body(dictionary: Dictionary) -> Iterator[bytes]:
    parts: list[bytes] = []
    for term_id, term in dictionary.items():
        token = format_term(term).encode("utf-8")
        parts.append(_REV_RECORD.pack(term_id, len(token)))
        parts.append(token)
        if len(parts) >= 2 * _CHUNK:
            yield b"".join(parts)
            parts.clear()
    yield b"".join(parts)


def _triples_body(triples: Iterable[tuple[int, int, int]], count: int) -> Iterator[bytes]:
    """Body of ``adj`` or ``delta``: a u64 record count, then (s, p, o) u64s."""
    yield _U64.pack(count)
    flat: list[int] = []
    for t in triples:
        flat.extend(t)
        if len(flat) >= 3 * _CHUNK:
            yield struct.pack(f"<{len(flat)}Q", *flat)
            flat.clear()
    yield struct.pack(f"<{len(flat)}Q", *flat)


def _write_meta(store: Store) -> None:
    report = store.report
    meta = {
        "triples": report.triples,
        "distinct_terms": report.distinct_terms,
        "duplicates": report.duplicates,
        "literals": report.literals,
        "derived": len(store.delta),
    }
    _write_file(store.config.path / "meta", [json.dumps(meta, indent=2).encode("utf-8")])


def _read_file(path: Path) -> bytes:
    """The whole file, header included, once its magic, version and CRC hold."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise StoreCorrupt(f"{path}: missing store file") from None
    if len(data) < _HEADER.size:
        raise StoreCorrupt(f"{path}: truncated header: {len(data)} bytes at byte offset 0")
    magic, version, expected = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise StoreCorrupt(f"{path}: bad magic {magic!r} at byte offset 0")
    if version != FORMAT_VERSION:
        raise StoreCorrupt(
            f"{path}: unsupported format version {version} (this build reads version"
            f" {FORMAT_VERSION}; reload the store from N-Triples)"
        )
    found = zlib.crc32(memoryview(data)[_HEADER.size :])
    if found != expected:
        raise StoreCorrupt(
            f"{path}: CRC mismatch in the {len(data) - _HEADER.size}-byte body at byte offset"
            f" {_HEADER.size}: header says {expected:#010x}, body has {found:#010x}"
        )
    return data


def _read_triples(path: Path) -> Iterator[tuple[int, int, int]]:
    """Records of ``adj`` or ``delta``; StoreCorrupt on a size mismatch."""
    data = _read_file(path)
    start = _HEADER.size + _U64.size
    if len(data) < start:
        raise StoreCorrupt(f"{path}: short read of the record count at byte offset {_HEADER.size}")
    (n,) = _U64.unpack_from(data, _HEADER.size)
    if len(data) - start != 24 * n:
        raise StoreCorrupt(
            f"{path}: {n} records need {24 * n} bytes at byte offset {start},"
            f" found {len(data) - start}"
        )
    return struct.iter_unpack("<3Q", memoryview(data)[start:])


def open_store(path: Path | str) -> Store:
    """Open an existing store directory; raises StoreCorrupt on any mismatch."""
    path = Path(path)
    try:
        meta = json.loads(_read_file(path / "meta")[_HEADER.size :])
    except ValueError as exc:
        raise StoreCorrupt(f"{path / 'meta'}: bad JSON payload: {exc}") from None
    if not isinstance(meta, dict):
        raise StoreCorrupt(f"{path / 'meta'}: payload is not a JSON object")

    dictionary = Dictionary()
    rev = _read_file(path / "dict_rev")
    offset = _HEADER.size
    try:
        while offset < len(rev):
            term_id, length = _REV_RECORD.unpack_from(rev, offset)
            end = offset + _REV_RECORD.size + length
            token = rev[offset + _REV_RECORD.size : end].decode("utf-8")
            dictionary._restore(term_id, parse_term(token))
            offset = end
    except (struct.error, ValueError) as exc:
        raise StoreCorrupt(f"{path / 'dict_rev'}: bad record at byte offset {offset}: {exc}") from None
    if offset != len(rev):
        raise StoreCorrupt(
            f"{path / 'dict_rev'}: last record runs past the end of the file"
            f" at byte offset {len(rev)}"
        )

    entries: Adjacency = {}
    n_triples = 0
    for s, p, o in _read_triples(path / "adj"):
        entries.setdefault(s, []).append((p, o))
        n_triples += 1
    if meta.get("triples", n_triples) != n_triples:
        raise StoreCorrupt(f"{path / 'meta'}: {meta['triples']} triples, but adj holds {n_triples}")

    delta: list[tuple[int, int, int]] = []
    delta_path = path / "delta"
    if delta_path.exists():
        delta = list(_read_triples(delta_path))
        for i, term_id in enumerate(x for t in delta for x in t):
            if not dictionary.is_issued(term_id):
                raise StoreCorrupt(
                    f"{delta_path}: id {term_id} was never issued, at byte offset"
                    f" {_HEADER.size + _U64.size + 8 * i}"
                )

    report = LoadReport(
        triples=n_triples,
        distinct_terms=meta.get("distinct_terms", len(dictionary)),
        duplicates=meta.get("duplicates", 0),
        literals=meta.get("literals", dictionary.literal_count()),
    )
    return Store(StoreConfig(path), dictionary, _sorted_adjacency(entries), report, delta=delta)
