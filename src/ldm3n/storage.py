"""Persistent store: one dictionary and one subject-keyed CSR index.

A store is a directory holding ``base``, written once by ``load``, and an
optional ``delta``, written by ``save_delta``. Each file starts with a
16-byte header (magic ``LDM3N\\0``, u16 format version, u32 CRC-32 of the
section table, u32 section count) and a table of 24-byte entries (u64
offset, u64 length, u32 itemsize, u32 CRC-32), one per section:

    base    even_blk, even_tok      term table of the even ids 2, 4, 6, ...,
            odd_blk, odd_tok        and likewise odd_* for the odd ids 1, 3,
                                    5, ...: tok holds blocks of 64 tokens,
                                    block b is tok[blk[b]:blk[b + 1]]; ids
                                    follow token order
            rows                    each even id's triple count, indexed by
                                    id // 2 - 1
            p, o                    the distinct triples, sorted by (s, p, o);
                                    row i holds those of subject 2 * (i + 1)
    delta   base                    CRC-32 of base's section table
            even_blk ... odd_tok    tokens of terms minted by entailment,
                                    whose ids continue each parity
            s, p, o                 derived triples, in derivation order

Integer sections hold items of itemsize 4, or 8 when a value needs it;
``rows`` takes itemsize 1 when every count is below 256. Each is stored as
its byte planes, plane k holding byte k (little-endian) of every item, one
after another and deflated as one raw deflate stream at level 1; the
section table keeps the items' itemsize and the stored length. Every stream
is raw deflate (``RAW``), with no zlib header or trailer: each section's
CRC covers its bytes. A base triple's
subject is not stored: ``rows`` implies it. Nor is the load report, which
``load_triples`` returns and ``load`` prints; the counts are the sections'
sizes. Each block of a term table is the UTF-8 text of 64 consecutive
tokens: the first, the block's head, in the clear, then a newline, then the
others front-coded and deflated on their own at level 1: their count, how
many bytes each shares with the token before it, and their suffixes joined
by newlines, which no canonical token holds raw (see ``TermTable``, and
``_term_sections`` for how the counts are found). ``load`` issues ids in token
order, so ``base``'s tables ascend in UTF-8 byte order and a lookup bisects
the heads, decodes one block and bisects it; a block is decoded once and
kept as a list. No token count is stored: every block but a table's last
holds 64 tokens, and ``blk`` holds each block's start in ``tok`` and then
``tok``'s length. Sections are written from the blocks and from the arrays
that hold the integer columns, a plane at a time, so no section is copied
whole on its way to the file.
Stores of versions 1 to 8 are refused with a message to reload them.
``open_store`` reads ``base`` alone. It checks every CRC, that every integer
section inflates, as exactly one deflate stream with nothing after it, to
a whole number of items and no more than one item past what it should hold
(``_File.ints``), that each table's block starts run from 0 to the
length of its ``tok``, that every block has a head and the heads strictly
ascend, that its last block holds 1 to 64 tokens, that the odd table's
first and last tokens are literals and the even table's sort above them,
that ``rows`` holds one count per even id and the counts sum to the length
of ``p`` and ``o``, and that every id of ``p`` and ``o`` was issued and no
predicate is a literal; the decoded columns are read-only. No other block
is inflated and no term parsed until a token is read. A block that does
not inflate, holds bytes past its deflate stream, does not decode to its
count of tokens, decodes to an empty one, or whose tokens do not strictly
ascend and end below the next block's head, raises StoreCorrupt when it is
read. So a lookup bisects only heads and a block whose order it has checked.
``read_delta`` reads ``delta``, checking its CRCs and integer sections, the
base CRC it records, the kind of every token and its ids, and only the
commands that query derived triples call it: a damaged ``delta`` fails those
alone, and ``save_delta`` replaces it. Its tables hold their tokens in id
order, as they were minted, and are read whole into memory, so their order
is not checked. The initial/terminal edge pair of each triple is implicit in
its row, so the same rows serve both traversal models. Loading keeps three
id columns while the input streams, reissues the ids in token order, then
packs each triple into one key only as wide as the ids need, sorts the keys,
drops exact duplicates (set semantics) and counts each subject's triples
from the distinct keys; each row is so sorted by (pred, obj), and every
downstream answer is deterministic. Both files are written to a temporary
name, synced to disk and then renamed into place, and the directory is
synced after each rename and unlink; ``base`` is never rewritten. After load
the store is read-only and safe to share across concurrent query workers.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, islice, repeat
from operator import and_, countOf, eq, getitem, lshift, ne, or_, rshift, xor
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .dictionary import BLOCK, MAX_ID, RAW, Dictionary, TermTable, inflate
from .errors import StoreCorrupt, UnknownNode
from .terms import Term, Triple, format_term, parse_term

MAGIC = b"LDM3N\0"
FORMAT_VERSION = 9
_HEADER = struct.Struct("<6sHII")
_ENTRY = struct.Struct("<QQII")
_COUNT = struct.Struct("<I")
_TERM_SECTIONS = ("even_blk", "even_tok", "odd_blk", "odd_tok")
_BASE_SECTIONS = (*_TERM_SECTIONS, "rows", "p", "o")
_DELTA_SECTIONS = ("base", *_TERM_SECTIONS, "s", "p", "o")
# The itemsizes a section may have; an integer section not named takes 4 or 8.
_ITEMSIZES = {"even_tok": (1,), "odd_tok": (1,), "rows": (1, 4, 8)}
_CODES = {1: "B", 4: "I", 8: "Q"}
_LITTLE = sys.byteorder == "little"
# Byte translations: 1 for an odd byte, and 1 for a 0 byte.
_ODD = bytes(i & 1 for i in range(256))
_NOT = bytes([1]) + bytes(255)
# The most leading bytes a front-coded token may share with the token before
# it, which one byte holds.
_MAX_SHARED = 255
# Two w-byte strings whose XOR, read as a big-endian int, has bit length n
# share (8 * w - n) // 8 leading bytes, which is
# _SHARED[n + 8 * (_MAX_SHARED - w)].
_SHARED = bytes([_MAX_SHARED]) + b"".join(bytes([k]) * 8 for k in reversed(range(_MAX_SHARED)))
# The slice of a token past each shared count: its suffix.
_PAST = tuple(slice(n, None) for n in range(_MAX_SHARED + 1))
# Ids per chunk of a parity scan.
_CHUNK = 1 << 14
# The typecode of the id columns while the input streams, until an id needs
# 8 bytes.
_NARROW = "I"

Section = array | list[bytes]  # an integer column, or a term table's blocks


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
    """An opened ``base``: dictionary and CSR columns.

    Row ``i`` holds the triples of subject ``2 * (i + 1)``: positions
    ``rows[i]`` to ``rows[i + 1]`` of the ``p`` and ``o`` columns, the
    running sums of the stored row counts.
    """

    config: StoreConfig
    dictionary: Dictionary
    rows: Sequence[int]
    p: Sequence[int]
    o: Sequence[int]
    base_crc: int = 0
    # The subject of each position of ``p`` and ``o``, built from ``rows`` by
    # the first ``iter_triples``; not a cached_property, since writing through
    # ``__dict__`` slows every attribute read in ``neighbors`` (CPython 3.11).
    _subjects: Sequence[int] | None = field(default=None, init=False, repr=False)

    # -- query surface shared with semantics.StoreView ------------------

    def neighbors(self, node: int) -> list[tuple[int, int]]:
        """All (pred, obj) pairs under ``node``, sorted, as a new list; [] for
        sinks and unknown ids."""
        rows = self.rows
        i = node >> 1
        if node & 1 or not 0 < i < len(rows):
            return []
        a = rows[i - 1]
        b = rows[i]
        return list(zip(self.p[a:b], self.o[a:b]))

    def iter_triples(self) -> Iterator[tuple[int, int, int]]:
        if self._subjects is None:
            # Each row start moves the subject on to the next even id.
            steps = [0] * (len(self.p) + 1)
            for start in self.rows[1:]:
                steps[start] += 2
            subjects = accumulate(islice(steps, len(self.p)), initial=2)
            next(subjects)
            self._subjects = array("Q", subjects)
        return zip(self._subjects, self.p, self.o)

    def contains(self, s: int, p: int, o: int) -> bool:
        rows = self.rows
        i = s >> 1
        if s & 1 or not 0 < i < len(rows):
            return False
        a = bisect_left(self.p, p, rows[i - 1], rows[i])
        b = bisect_right(self.p, p, a, rows[i])
        i = bisect_left(self.o, o, a, b)
        return i < b and self.o[i] == o

    def is_issued(self, term_id: int) -> bool:
        return self.dictionary.is_issued(term_id)

    def triple_count(self) -> int:
        return len(self.p)

    def token(self, term_id: int) -> str:
        """The stored N-Triples token of an id; StoreCorrupt unless it parses."""
        return self._read(term_id)[0]

    def decode(self, term_id: int) -> Term:
        return self._read(term_id)[1]

    def _read(self, term_id: int) -> tuple[str, Term]:
        try:
            token = self.dictionary.token(term_id)
            return token, parse_term(token)
        except ValueError as exc:  # UnicodeDecodeError is one too
            name = "base" if self.dictionary.in_table(term_id) else "delta"
            section = "odd_tok" if term_id & 1 else "even_tok"
            raise StoreCorrupt(f"{self.config.path / name}: section {section}: bad token of id {term_id}: {exc}") from None

    def resolve(self, term: Term) -> int:
        """Id for a term that must already be in the store; UnknownNode otherwise."""
        term_id = self.dictionary.lookup(term)
        if term_id is None:
            raise UnknownNode(f"term not in store: {format_term(term)}")
        return term_id


def load_triples(config: StoreConfig, triples: Iterable[tuple[str, str, str]]) -> LoadReport:
    """Encode, dedup, index, and persist a sequence of token triples as ``base``.

    Each triple is three canonical N-Triples tokens, as ``parse_ntriples``
    yields them and ``format_term`` prints them; a token is a literal iff it
    starts with ``"``. Every distinct input triple is stored exactly once;
    exact duplicates are counted in the report. An old ``delta`` is removed.
    A literal subject or predicate raises ``ValueError``, naming the triple's
    position (from 1) and the token, before the directory is touched.

    While the input streams, each triple is three ids, issued in order of
    first appearance, appended to three columns of 4 bytes an id, widened to
    8 if an id reaches 2**32. Once it ends, each parity's tokens are sorted,
    and every id is renumbered to its token's place in that order: the term
    tables are written in token order, which lookups bisect. ``_sorted_keys``
    renumbers the ids as it packs the triples as keys ``s << 2w | p << w | o``,
    where ``w`` is the bit length of the largest id, so the keys sort as
    ``(s, p, o)`` does and no second set of columns is made; it drops the
    duplicates, and row ``i``'s count is tallied from the distinct keys, each
    stored triple once. What the load holds after its input ends only shrinks:
    the token lists are sorted in place and the issued ids read in their order
    before the token dict is freed; the lists are freed as their blocks are
    made, before any key is; the columns are freed once the keys are sorted;
    and each section goes straight into an array.
    """
    dictionary = Dictionary()
    ids = dictionary.added_ids()
    get, issue = ids.get, dictionary.issue
    columns = array(_NARROW), array(_NARROW), array(_NARROW)
    triples = iter(triples)
    while (triple := _append_ids(triples, get, issue, columns)) is not None:
        # An id needs 8 bytes: drop what the triple appended, widen the
        # columns and read the triple again; its issued ids are found.
        n = min(map(len, columns))
        columns = tuple(array("Q", column[:n]) for column in columns)
        triples = chain([triple], triples)
    # Before the directory is touched: such a store could not be opened.
    for role, column in zip(("subject", "predicate"), columns):
        if (i := _odd(column).find(1)) >= 0:
            raise ValueError(f"triple {i + 1}: a literal cannot be a {role}: {dictionary.token(column[i])}")
    evens, odds = dictionary.id_ranges()
    top = max(evens.stop, odds.stop) - 2  # the largest id
    width = top.bit_length()

    # Each parity's tokens in token order, which is the UTF-8 byte order that
    # lookups bisect in, and the ids they were issued, in that order. The
    # lists are sorted in place and read through the token dict before it is
    # freed, so no list of positions is made.
    even, odd = dictionary.added()
    code = "I" if top >> 32 == 0 else "Q"
    issued = []
    for tokens in (even, odd):
        tokens.sort()
        issued.append(array(code, map(ids.__getitem__, tokens)))
    ids.clear()
    # Each id read so far, renumbered so that each parity's ids follow token
    # order.
    new_id = array(code, [0]) * (top + 1)
    for first, old in zip((2, 1), issued):
        deque(map(new_id.__setitem__, old, range(first, first + 2 * len(old), 2)), maxlen=0)
    del issued
    # The token strings are freed before the keys are made.
    tables = [*_term_sections(even), *_term_sections(odd)]
    read = len(columns[0])
    keys = _sorted_keys(columns, width, new_id.__getitem__)
    del new_id
    # Row i counts the keys of subject 2 * (i + 1), their top bits.
    counts = [0] * len(evens)
    for key in keys:
        counts[(key >> 2 * width + 1) - 1] += 1
    report = LoadReport(len(keys), len(evens) + len(odds), read - len(keys), len(odds))
    rows = _count_section(counts)
    del counts
    mask = (1 << width) - 1
    p = _int_section(map(and_, map(rshift, keys, repeat(width)), repeat(mask)), top)
    o = _int_section(map(and_, keys, repeat(mask)), top)
    del keys
    sections = [*tables, rows, p, o]
    config.path.mkdir(parents=True, exist_ok=True)
    # The old delta goes first: a crash between the two steps leaves the
    # old base without derivations, never a delta beside a base it was not
    # derived from.
    if _remove(config.path / "delta"):
        _sync_dir(config.path)
    _write_file(config.path / "base", sections)
    return report


def _append_ids(triples: Iterator[tuple[str, str, str]], get: Callable[[str], int | None],
                issue: Callable[[str, bool], int], columns: tuple[array, array, array]) -> tuple[str, str, str] | None:
    """Append the ids of each triple to the three columns, issuing those of
    new tokens; the triple whose id does not fit the columns' items, if one
    does not."""
    add_s, add_p, add_o = (column.append for column in columns)
    try:
        for s, p, o in triples:
            # Ids start at 1, so a found id is never falsy.
            add_s(get(s) or issue(s, s[0] == '"'))
            add_p(get(p) or issue(p, p[0] == '"'))
            add_o(get(o) or issue(o, o[0] == '"'))
    except OverflowError:
        return s, p, o
    return None


def _sorted_keys(columns: tuple[array, array, array], width: int,
                 renumber: Callable[[int], int]) -> list[int]:
    """The distinct triples of three id columns, ids renumbered, as ascending
    keys ``s << 2 * width | p << width | o``, which ``load_triples`` counts its
    rows from; every renumbered id must fit in ``width`` bits. Empties the columns."""
    s, p, o = (map(renumber, column) for column in columns)
    keys = sorted(map(or_, map(lshift, s, repeat(2 * width)), map(or_, map(lshift, p, repeat(width)), o)))
    for column in columns:
        del column[:]
    # Sorted, a duplicate is equal to the key after it; a load without
    # duplicates makes no second list.
    if countOf(map(eq, keys, islice(keys, 1, None)), True):
        keys = list(compress(keys, chain(map(ne, keys, islice(keys, 1, None)), (True,))))
    return keys


def create_store(config: StoreConfig, triples: Iterable[Triple]) -> Store:
    load_triples(config, ((format_term(t.subject), format_term(t.predicate), format_term(t.object)) for t in triples))
    return open_store(config.path)


def save_delta(store: Store, delta: list[tuple[int, int, int]]) -> None:
    """Persist derived triples and the terms minted for them as ``delta``.

    ``base`` is never rewritten; an empty delta removes the ``delta`` file.
    """
    path = store.config.path / "delta"
    if not delta:
        # An old delta would otherwise outlive the derivations it held.
        if _remove(path):
            _sync_dir(path.parent)
        return
    # The store stays in use: its token lists are copied, not emptied.
    even, odd = map(list, store.dictionary.added())
    s, p, o = zip(*delta)
    _write_file(path, [
        _int_section([store.base_crc]),
        *_term_sections(even),
        *_term_sections(odd),
        _int_section(s),
        _int_section(p),
        _int_section(o),
    ])


# -- on-disk format ------------------------------------------------------


def _int_section(values: Iterable[int], top: int = MAX_ID) -> array:
    """Little-endian integers, 4 bytes each unless a value needs 8. ``top``
    bounds the values; below 2**32, no 8-byte copy is made."""
    column = array("Q" if top >> 32 else "I", values)
    if column.typecode == "Q":
        try:
            column = array("I", column)
        except OverflowError:  # a value needs 8 bytes
            pass
    if not _LITTLE:
        column.byteswap()
    return column


def _count_section(counts: list[int]) -> array:
    """Counts 1 byte each while every count is below 256, else as
    ``_int_section`` writes them."""
    return array("B", counts) if max(counts, default=0) < 256 else _int_section(counts)


def _term_sections(tokens: list[str]) -> list[Section]:
    """Block starts, then the tokens' UTF-8 bytes in blocks of ``BLOCK``
    tokens, each block its first token, a newline, and, if it holds others,
    their front-coded body as one raw deflate stream (see ``TermTable``): no
    copy of the whole table is made. Empties ``tokens`` from the end, a block
    at a time, as the blocks are made.

    No Python step runs per byte or per token. Each token of a block is
    padded with newlines to the block's widest token, at most
    ``_MAX_SHARED`` bytes (a longer one is cut there), read as one
    big-endian int and XORed with the int before it; the bit length of that
    XOR gives, through ``_SHARED``, the bytes the two share. A token never
    holds a newline, so the count never runs past the end of either token."""
    blocks = []
    for i in reversed(range(0, len(tokens), BLOCK)):
        block = list(map(str.encode, tokens[i:]))
        del tokens[i:]
        if len(block) == 1:
            blocks.append(block[0] + b"\n")
            continue
        longest = max(map(len, block))
        width = min(longest, _MAX_SHARED)
        padded = map(bytes.ljust, block, repeat(width), repeat(b"\n"))
        if longest > width:
            padded = map(getitem, padded, repeat(slice(width)))
        ints = list(map(int.from_bytes, padded, repeat("big")))
        bits = map(int.bit_length, map(xor, ints, islice(ints, 1, None)))
        shared = bytes(map(_SHARED[8 * (_MAX_SHARED - width) :].__getitem__, bits))
        suffixes = map(getitem, islice(block, 1, None), map(_PAST.__getitem__, shared))
        deflater = zlib.compressobj(1, zlib.DEFLATED, RAW)
        body = deflater.compress(bytes([len(shared)]) + shared + b"\n".join(suffixes)) + deflater.flush()
        blocks.append(block[0] + b"\n" + body)
    blocks.reverse()
    return [_int_section(accumulate(map(len, blocks), initial=0)), blocks]


def _deflate(column: array) -> list[bytes]:
    """A little-endian column as it is stored: its byte planes, plane k
    holding byte k of every item, deflated one after another into one raw
    deflate stream at level 1. One plane is copied at a time."""
    raw = memoryview(column).cast("B")
    step = column.itemsize
    planes = [raw] if step == 1 else (_plane(raw, k, step) for k in range(step))
    deflater = zlib.compressobj(1, zlib.DEFLATED, RAW)
    return [*map(deflater.compress, planes), deflater.flush()]


def _write_file(path: Path, sections: list[Section]) -> None:
    """Write a header, the section table and the sections, each integer
    column deflated (``_deflate``), to a temporary file, make it durable,
    then rename it to ``path`` and make the rename durable."""
    bodies = [(_deflate(body), body.itemsize) if isinstance(body, array) else (body, 1) for body in sections]
    offset = _HEADER.size + _ENTRY.size * len(sections)
    entries = []
    for chunks, itemsize in bodies:
        length = crc = 0
        for chunk in chunks:
            length += len(chunk)
            crc = zlib.crc32(chunk, crc)
        entries.append(_ENTRY.pack(offset, length, itemsize, crc))
        offset += length
    table = b"".join(entries)
    crc = zlib.crc32(table, zlib.crc32(_COUNT.pack(len(sections))))
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, crc, len(sections)) + table)
            for chunks, _ in bodies:
                for chunk in chunks:
                    f.write(chunk)
            # Otherwise a rename that survives a power loss may name a
            # file whose bytes did not.
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        _remove(tmp)
        raise
    _sync_dir(path.parent)


def _sync_dir(path: Path) -> None:
    """Make the renames and unlinks done in directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _remove(path: Path) -> bool:
    """Unlink ``path``; False if it did not exist."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        return False
    return True


@dataclass(frozen=True)
class _File:
    """A read file whose header and section CRCs hold."""

    path: Path
    data: bytes
    sections: dict[str, tuple[int, int, int]]  # name -> (offset, length, itemsize)
    crc: int

    def ints(self, name: str, most: int | None = None) -> memoryview:
        """An integer section's items, read-only: its byte planes inflated
        (see ``inflate``) and interleaved, plane k giving byte k of every
        little-endian item. A big-endian host lays the planes in reverse,
        which swaps each item's bytes. With ``most``, the count of items the
        section should hold, the inflate stops one item past it, so the
        caller's count check names a count one off, and a section that holds
        more is refused before the rest of it is decoded."""
        offset, length, itemsize = self.sections[name]
        expected = f"; expected one deflate stream of the byte planes of {itemsize}-byte items"
        limit = None
        if most is not None:
            limit = min((most + 1) * itemsize, sys.maxsize - 1)
            expected += f", at most {most} of them"
        data = inflate(memoryview(self.data)[offset : offset + length],
                       lambda found: self.fail(name, found + expected), limit)
        n, extra = divmod(len(data), itemsize)
        if extra:
            raise self.fail(name, f"inflates to {len(data)} bytes; expected a whole number of {itemsize}-byte items")
        if itemsize > 1:
            planes = memoryview(data)
            data = bytearray(len(planes))
            for k in range(itemsize):
                j = k if _LITTLE else itemsize - 1 - k
                data[k::itemsize] = planes[n * j : n * (j + 1)]
        return memoryview(data).toreadonly().cast(_CODES[itemsize])

    def table(self, parity: str, ordered: bool = False) -> TermTable:
        """The term table, its heads read and its last block decoded: that
        block's token count gives the table's length. An ``ordered`` table's
        order is checked (see ``TermTable``)."""
        at, length, _ = self.sections[parity + "_tok"]
        # A block is at least a byte of head and a newline.
        starts = self.ints(parity + "_blk", length // 2 + 1)
        if len(starts) < 1 or starts[0] != 0 or starts[-1] != length:
            raise self.fail(parity + "_blk", f"expected block starts from 0 to {length},"
                                             f" the length of {parity}_tok at byte offset {at}")
        return TermTable(starts, self.data, at, f"{self.path}: section {parity}_tok", ordered)

    def fail(self, name: str, what: str) -> StoreCorrupt:
        return StoreCorrupt(f"{self.path}: section {name} at byte offset {self.sections[name][0]}: {what}")


def _read_file(path: Path, names: tuple[str, ...]) -> _File:
    """The file's bytes, once its magic, version, section table and every
    section's CRC hold."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise StoreCorrupt(f"{path}: missing store file") from None
    if len(data) < 8:
        raise StoreCorrupt(f"{path}: truncated header: {len(data)} bytes at byte offset 0")
    magic, version = struct.unpack_from("<6sH", data)
    if magic != MAGIC:
        raise StoreCorrupt(f"{path}: bad magic {magic!r} at byte offset 0")
    if version != FORMAT_VERSION:
        raise StoreCorrupt(
            f"{path}: unsupported format version {version} (this build reads version"
            f" {FORMAT_VERSION}; reload the store from N-Triples)"
        )
    end = _HEADER.size + _ENTRY.size * len(names)
    if len(data) < end:
        raise StoreCorrupt(f"{path}: truncated section table: {len(data)} bytes, the table ends at byte offset {end}")
    _, _, expected, count = _HEADER.unpack_from(data)
    found = zlib.crc32(memoryview(data)[_HEADER.size - _COUNT.size : end])
    if count != len(names) or found != expected:
        raise StoreCorrupt(
            f"{path}: bad section table at byte offset {_HEADER.size - _COUNT.size}: {count} sections"
            f" (expected {len(names)}), header says CRC {expected:#010x}, table has {found:#010x}"
        )
    sections = {}
    offset = end
    for i, name in enumerate(names):
        at, length, itemsize, crc = _ENTRY.unpack_from(data, _HEADER.size + _ENTRY.size * i)
        if at != offset or at + length > len(data):
            raise StoreCorrupt(
                f"{path}: section {name} spans bytes {at} to {at + length}; expected it at byte"
                f" offset {offset}, within the {len(data)}-byte file"
            )
        if itemsize not in _ITEMSIZES.get(name, (4, 8)):
            raise StoreCorrupt(f"{path}: section {name} at byte offset {at}: bad itemsize {itemsize} for {length} bytes")
        body_crc = zlib.crc32(memoryview(data)[at : at + length])
        if body_crc != crc:
            raise StoreCorrupt(
                f"{path}: CRC mismatch in section {name}, {length} bytes at byte offset {at}:"
                f" header says {crc:#010x}, section has {body_crc:#010x}"
            )
        sections[name] = (at, length, itemsize)
        offset = at + length
    if offset != len(data):
        raise StoreCorrupt(f"{path}: {len(data) - offset} bytes past the last section at byte offset {offset}")
    return _File(path, data, sections, expected)


def _check_tables(f: _File, tables: tuple[TermTable, TermTable]) -> None:
    """Check the kind of the first and last token of each table, which in
    ``base`` bound the others, and parse the last: a layout mismatch fails
    here. The first is its first block's head, so no block is inflated."""
    for parity, table in zip(("even", "odd"), tables):
        if len(table):
            last = len(table) - 1
            token = table.raw(last)
            _check_kind(f, parity, 0, table.heads[0])
            _check_kind(f, parity, last, token)
            try:
                parse_term(token.decode("utf-8"))
            except ValueError as exc:
                raise f.fail(parity + "_tok", f"last token does not parse: {exc}") from None


def _check_kind(f: _File, parity: str, i: int, token: bytes) -> None:
    """StoreCorrupt unless token ``i`` of the ``parity`` table is of its
    kind: the odd table's are literals, which start with ``"``, and the even
    table's sort above them."""
    if token[:1] == b'"' if parity == "odd" else token[:1] > b'"':
        return
    expected = "a literal, which starts with" if parity == "odd" else "a non-literal, which starts above"
    raise f.fail(parity + "_tok", f"token {i} starts with {token[:1]!r}; expected {expected} b'\"'")


def _plane(raw: memoryview, k: int, step: int) -> bytes:
    """Byte k of each ``step``-byte item of ``raw``, copied a chunk at a
    time: no Python step per item."""
    size = _CHUNK * step
    # A strided slice of bytes is 3-4 times as fast as one of a memoryview.
    return b"".join(raw[i : i + size].tobytes()[k::step] for i in range(0, len(raw), size))


def _odd(column: Sequence[int]) -> bytes:
    """1 for each odd id of a column of native integers, 0 for each even one,
    read off the ids' low bytes."""
    view = memoryview(column)
    step = view.itemsize
    return _plane(view.cast("B"), 0 if _LITTLE else step - 1, step).translate(_ODD)


def _check_ids(f: _File, name: str, column: Sequence[int], dictionary: Dictionary, literals: bool = True) -> None:
    """StoreCorrupt naming the first id of section ``name`` that was never
    issued, or, unless ``literals``, is a literal."""
    evens, odds = dictionary.id_ranges()
    odd = _odd(column)
    if literals:
        ok = max(compress(column, odd), default=0) < odds.stop
    else:
        ok = 1 not in odd
    if ok and min(column, default=1) >= 1 and max(compress(column, odd.translate(_NOT)), default=0) < evens.stop:
        return
    i, x = next((i, x) for i, x in enumerate(column) if x not in evens and (not literals or x not in odds))
    raise f.fail(name, f"id {x} was never issued{'' if literals else ' as a non-literal'}, at item {i}")


def _columns(f: _File, names: str, most: int | None = None) -> list[Sequence[int]]:
    """The triple columns ``names``, which must be of one length, the first
    of at most ``most`` items (see ``_File.ints``)."""
    first = f.ints(names[0], most)
    columns = [first, *(f.ints(name, len(first)) for name in names[1:])]
    for name, column in zip(names, columns):
        if len(column) != len(first):
            raise f.fail(name, f"{len(column)} ids, expected {len(first)}")
    return columns


def open_store(path: Path | str) -> Store:
    """Open an existing store directory; raises StoreCorrupt on any mismatch."""
    base = _read_file(Path(path) / "base", _BASE_SECTIONS)
    tables = (base.table("even", ordered=True), base.table("odd", ordered=True))
    _check_tables(base, tables)
    dictionary = Dictionary(tables)
    counts = base.ints("rows", len(tables[0]))
    if len(counts) != len(tables[0]):
        raise base.fail("rows", f"{len(counts)} row counts, expected {len(tables[0])}, one per even id")
    total = sum(counts)
    p, o = _columns(base, "po", total)
    # A count cannot move a start back, so counts that sum to the columns'
    # length never give a row another subject's triples nor one past them.
    if total != len(p):
        raise base.fail("rows", f"row counts sum to {total}, expected {len(p)}, the length of p and o")
    rows = array("I" if total >> 32 == 0 else "Q", accumulate(counts, initial=0))
    # Base triples come from parsed statements, whose predicate is never a
    # literal (nor is the subject, which only even ids' rows imply); derived
    # ones may have a literal anywhere (RANGE over a literal-valued property
    # gives a literal subject).
    _check_ids(base, "p", p, dictionary, literals=False)
    _check_ids(base, "o", o, dictionary)
    return Store(StoreConfig(path), dictionary, rows, p, o, base_crc=base.crc)


def read_delta(store: Store) -> list[tuple[int, int, int]]:
    """The derived triples of the store's ``delta``, in derivation order, or
    [] when it has none; raises StoreCorrupt on any mismatch. Issues the terms
    the delta minted into ``store.dictionary``, so call it once per store."""
    path = store.config.path / "delta"
    if not path.exists():
        return []
    f = _read_file(path, _DELTA_SECTIONS)
    recorded = list(f.ints("base", 1))
    if recorded != [store.base_crc]:
        raise f.fail("base", f"written for another base: it records {', '.join(map(hex, recorded))},"
                             f" base's section table has CRC {store.base_crc:#010x}")
    minted = (f.table("even"), f.table("odd"))
    _check_tables(f, minted)
    for literal, table in enumerate(minted):
        for i in range(len(table)):
            token = table.raw(i)
            _check_kind(f, ("even", "odd")[literal], i, token)
            try:
                store.dictionary.issue(token.decode("utf-8"), bool(literal))
            except UnicodeDecodeError as exc:
                raise f.fail(("even_tok", "odd_tok")[literal], f"token {i}: {exc}") from None
    columns = _columns(f, "spo")
    for name, column in zip("spo", columns):
        _check_ids(f, name, column, store.dictionary)
    return list(zip(*columns))
