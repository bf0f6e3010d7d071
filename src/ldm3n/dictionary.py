"""Bidirectional term <-> id encoding with parity-typed ids.

Literals get odd ids (1, 3, 5, ...) and every other term gets even ids
(2, 4, 6, ...), so a single parity check tells traversal whether an id can
ever have outgoing pairs. Id 0 is reserved as the "no node" sentinel and is
never issued. Blank nodes can be subjects, so they count as non-literals.

Terms are keyed by their N-Triples token. An opened store's terms stay in
its term tables, deflated in blocks, until one is asked for; terms issued
after the tables (while loading, or minted by entailment) are held in memory.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from heapq import merge
from typing import Callable, Iterator, Sequence

from .errors import CapacityExhausted, StoreCorrupt, UnknownId
from .terms import Literal, Term, format_term, parse_term

MAX_ID = 2**64 - 1
# Tokens per zlib block of a term table.
_BLOCK_BITS = 6
BLOCK = 1 << _BLOCK_BITS


def is_literal_id(term_id: int) -> bool:
    """True iff the id encodes a literal (odd parity). Requires id >= 1."""
    if term_id < 1:
        raise ValueError(f"id {term_id} was never issued (0 is the sentinel)")
    return term_id & 1 == 1


def id_index(term_id: int) -> int:
    """Position of an id among the ids of its parity: 2 and 1 are 0, 4 and 3 are 1."""
    return term_id // 2 - 1 + (term_id & 1)


class TermTable:
    """Tokens of one parity, in id order, in zlib blocks of ``BLOCK`` tokens.

    Block b holds tokens ``BLOCK * b`` up to ``BLOCK * (b + 1)``, joined by
    ``\\n`` (a canonical token never holds a raw newline) and deflated on
    its own, at ``data[at + starts[b] : at + starts[b + 1]]``. No count is
    stored: every block but the last holds ``BLOCK`` tokens, and the last,
    which the table inflates when it is made, holds the rest. A block is
    inflated and split the first time one of its tokens is read, checked,
    and kept as its list of tokens; a block that does not inflate, or splits
    into the wrong number of tokens or into an empty one, raises
    StoreCorrupt naming ``where`` (the file and section), the block's byte
    offset and what was expected.
    """

    def __init__(self, starts: Sequence[int] = (0,), data: bytes = b"", at: int = 0, where: str = ""):
        self.starts = starts
        self.data = data
        self.at = at
        self.where = where
        self._blocks: list[list[bytes] | None] = [None] * (len(starts) - 1)
        self._len = 0
        if self._blocks:
            self._len = BLOCK * (len(self._blocks) - 1) + len(self._inflate(len(self._blocks) - 1))

    def __len__(self) -> int:
        return self._len

    def raw(self, i: int) -> bytes:
        block = self._blocks[i >> _BLOCK_BITS]
        if block is None:
            block = self._inflate(i >> _BLOCK_BITS)
        return block[i & (BLOCK - 1)]

    def _inflate(self, b: int) -> list[bytes]:
        last = b == len(self._blocks) - 1
        start = self.at + self.starts[b]
        try:
            block = zlib.decompress(memoryview(self.data)[start : self.at + self.starts[b + 1]]).split(b"\n")
        except zlib.error as exc:
            found = f"does not inflate ({exc})"
        else:
            if (len(block) <= BLOCK if last else len(block) == BLOCK) and all(block):
                self._blocks[b] = block
                return block
            found = f"splits into {len(block)} tokens"
            if not all(block):
                found += f", of which token {BLOCK * b + block.index(b'')} is empty"
        expected = f"1 to {BLOCK}" if last else BLOCK
        raise StoreCorrupt(f"{self.where}: block {b} at byte offset {start} {found};"
                           f" expected {expected} non-empty tokens from token {BLOCK * b}")


def _token_key(tables: tuple[TermTable, TermTable]) -> Callable[[int], bytes]:
    """The token bytes of a table id, read through the tables' block caches:
    the key that lookups bisect ``by_token`` with."""
    even, odd = (t.raw for t in tables)

    def key(term_id: int) -> bytes:
        if term_id & 1:
            return odd(term_id >> 1)
        return even((term_id >> 1) - 1)

    return key


class Dictionary:
    """Exact two-way map between terms and dense parity-typed integer ids.

    Encoding is idempotent and deterministic: feeding the same term sequence
    to a fresh dictionary always yields the same assignment. Terms of the
    tables are found by bisecting ``by_token``, the ids sorted by token
    bytes. Mutable only while loading or entailing; otherwise it is shared
    read-only by query workers.
    """

    def __init__(self, tables: tuple[TermTable, TermTable] | None = None, by_token: Sequence[int] = ()):
        self._tables = tables or (TermTable(), TermTable())
        self._sizes = (len(self._tables[0]), len(self._tables[1]))
        self._by_token = by_token
        self._key = _token_key(self._tables)
        self._added: dict[str, int] = {}
        self._added_tokens: tuple[list[str], list[str]] = ([], [])
        self._next_even = 2 * self._sizes[0] + 2
        self._next_odd = 2 * self._sizes[1] + 1

    def __len__(self) -> int:
        return (self._next_even - 2) // 2 + (self._next_odd - 1) // 2

    def encode(self, term: Term) -> int:
        """Return the id for ``term``, issuing the next one of its parity if new."""
        token = format_term(term)
        existing = self._find(token)
        if existing is None:
            return self.issue(token, isinstance(term, Literal))
        return existing

    def issue(self, token: str, literal: bool) -> int:
        """Issue the next id of the parity for a token not yet in the dictionary."""
        if literal:
            new_id = self._next_odd
            if new_id > MAX_ID:
                raise CapacityExhausted("odd id counter exhausted")
            self._next_odd += 2
        else:
            new_id = self._next_even
            if new_id > MAX_ID:
                raise CapacityExhausted("even id counter exhausted")
            self._next_even += 2
        self._added[token] = new_id
        self._added_tokens[new_id & 1].append(token)
        return new_id

    def token(self, term_id: int) -> str:
        """The N-Triples token of an id, unparsed; UnknownId if never issued."""
        parity = term_id & 1
        i = id_index(term_id)
        if i >= 0:
            n = self._sizes[parity]
            if i < n:
                return self._tables[parity].raw(i).decode("utf-8")
            added = self._added_tokens[parity]
            if i - n < len(added):
                return added[i - n]
        raise UnknownId(f"id {term_id} was never issued")

    def decode(self, term_id: int) -> Term:
        """Return the unique term with this id; UnknownId if never issued."""
        return parse_term(self.token(term_id))

    def lookup(self, term: Term) -> int | None:
        """Non-mutating encode: the id if the term is known, else None."""
        return self._find(format_term(term))

    def _find(self, token: str) -> int | None:
        found = self._added.get(token)
        if found is None and self._by_token:
            key = token.encode("utf-8")
            by_token = self._by_token
            i = bisect_left(by_token, key, key=self._key)
            if i < len(by_token) and self._key(by_token[i]) == key:
                found = by_token[i]
        return found

    def in_table(self, term_id: int) -> bool:
        """True iff an issued id's token lives in the tables, not in memory."""
        return id_index(term_id) < self._sizes[term_id & 1]

    def is_issued(self, term_id: int) -> bool:
        return 1 <= term_id < (self._next_odd if term_id & 1 else self._next_even)

    def id_ranges(self) -> tuple[range, range]:
        """The issued even ids and the issued odd ids."""
        return range(2, self._next_even, 2), range(1, self._next_odd, 2)

    def ids(self) -> Iterator[int]:
        """Every issued id, ascending."""
        return merge(*reversed(self.id_ranges()))

    def added(self) -> tuple[list[str], list[str]]:
        """Tokens issued after the tables, even ids then odd ids, each in id order."""
        return self._added_tokens

    def added_ids(self) -> dict[str, int]:
        """Token -> id of the terms issued after the tables; read-only while
        the dictionary is in use."""
        return self._added

    def literal_count(self) -> int:
        return (self._next_odd - 1) // 2
