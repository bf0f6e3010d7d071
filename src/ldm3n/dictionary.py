"""Bidirectional term <-> id encoding with parity-typed ids.

Literals get odd ids (1, 3, 5, ...) and every other term gets even ids
(2, 4, 6, ...), so the parity check ``id & 1`` tells traversal whether an id
can ever have outgoing pairs. Id 0 is reserved as the "no node" sentinel and is
never issued. Blank nodes can be subjects, so they count as non-literals.

Terms are keyed by their N-Triples token. An opened store's terms stay in
its term tables, deflated in blocks, until one is asked for; terms issued
after the tables (while loading, or minted by entailment) are held in memory.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, bisect_right
from heapq import merge
from itertools import accumulate, islice
from operator import le, lt
from typing import Callable, Iterator, Sequence

from .errors import CapacityExhausted, StoreCorrupt, UnknownId
from .terms import Literal, Term, format_term, parse_term

MAX_ID = 2**64 - 1
# Tokens per block of a term table.
_BLOCK_BITS = 6
BLOCK = 1 << _BLOCK_BITS
# The wbits of a raw deflate stream: no zlib header and no Adler-32 trailer,
# since the CRC of the section that holds the stream covers its bytes.
RAW = -15


def inflate(data: bytes | memoryview, fail: Callable[[str], StoreCorrupt], most: int | None = None) -> bytes:
    """What ``data`` inflates to, which must be one whole raw deflate stream
    (``RAW``) and nothing after it, unlike ``zlib.decompress``, which ignores
    what follows the stream; otherwise raises ``fail(found)``, where
    ``found`` says what is wrong. With ``most``, no more than ``most + 1``
    bytes are ever decoded, and a stream that holds more than ``most`` is
    refused."""
    inflater = zlib.decompressobj(RAW)
    try:
        out = inflater.decompress(data, 0 if most is None else most + 1)
    except zlib.error as exc:
        raise fail(f"does not inflate ({exc})") from None
    if most is not None and len(out) > most:
        raise fail(f"inflates to more than {most} bytes")
    if not inflater.eof:
        raise fail("does not inflate (the deflate stream is cut short)")
    if inflater.unused_data:
        raise fail(f"holds {len(inflater.unused_data)} bytes past the end of its deflate stream")
    return out


def id_index(term_id: int) -> int:
    """Position of an id among the ids of its parity: 2 and 1 are 0, 4 and 3 are 1."""
    return term_id // 2 - 1 + (term_id & 1)


def _extend(token: bytes, coded: tuple[int, bytes]) -> bytes:
    """The token after ``token``, from its shared count and its suffix."""
    return token[: coded[0]] + coded[1]


class TermTable:
    """Tokens of one parity, in id order, in blocks of ``BLOCK`` tokens.

    Block b holds tokens ``BLOCK * b`` up to ``BLOCK * (b + 1)`` at
    ``data[at + starts[b] : at + starts[b + 1]]``: its first token, the
    block's head, in the clear, then a newline, then, if the block holds
    other tokens, one raw deflate stream of its body, front-coded: one byte
    holding n - 1, the count of its other tokens; n - 1 bytes, each the
    count of leading bytes a token shares with the token before it, at most
    255; and the n - 1 suffixes, each the rest of its token, joined by
    newlines (a canonical token never holds a raw newline). The shared counts
    sit ahead of the suffixes, so a count of 10, a newline's byte, never
    meets the split. Every block but the last holds ``BLOCK`` tokens, and
    the last, which the table decodes when it is made, holds the rest. The
    heads are read when the table is made, so ``find`` bisects them without
    inflating anything and then decodes one block. A block is decoded the
    first time one of its tokens is read, checked, and kept as its list of
    tokens. An ``ordered`` table (``base``'s, in token order) also checks that
    its heads ascend strictly when it is made, and that each block's tokens
    ascend strictly and end below the next block's head when it is decoded,
    so ``find`` bisects only heads and a block whose order it has checked.
    A block without a head, or that does not inflate, holds bytes past its
    deflate stream, counts other than its number of tokens, holds other than
    that many shared counts and suffixes, shares more bytes with a token than
    the token holds, decodes to an empty token, or is out of order, raises
    StoreCorrupt naming ``where`` (the file and section), the block's byte
    offset and what was expected.
    """

    def __init__(self, starts: Sequence[int] = (0,), data: bytes = b"", at: int = 0, where: str = "",
                 ordered: bool = False):
        self.starts = starts
        self.data = data
        self.at = at
        self.where = where
        self.ordered = ordered
        n = len(starts) - 1
        self.heads = [self._head(b) for b in range(n)]
        if ordered and not all(map(lt, self.heads, islice(self.heads, 1, None))):
            b = next(b for b in range(1, n) if self.heads[b] <= self.heads[b - 1])
            raise self._corrupt(b, f"its head does not sort above block {b - 1}'s head;"
                                   " expected the heads in strictly ascending byte order")
        self._blocks: list[list[bytes] | None] = [None] * n
        self._len = BLOCK * (n - 1) + len(self._decode(n - 1)) if n else 0

    def __len__(self) -> int:
        return self._len

    def raw(self, i: int) -> bytes:
        block = self._blocks[i >> _BLOCK_BITS]
        if block is None:
            block = self._decode(i >> _BLOCK_BITS)
        return block[i & (BLOCK - 1)]

    def find(self, token: bytes) -> int | None:
        """The position of ``token`` in an ordered table, or None; decodes at
        most one block."""
        b = bisect_right(self.heads, token) - 1
        if b < 0:
            return None
        block = self._blocks[b]
        if block is None:
            block = self._decode(b)
        i = bisect_left(block, token)
        return (b << _BLOCK_BITS) + i if i < len(block) and block[i] == token else None

    def _corrupt(self, b: int, what: str) -> StoreCorrupt:
        return StoreCorrupt(f"{self.where}: block {b} at byte offset {self.at + self.starts[b]} {what}")

    def _head(self, b: int) -> bytes:
        start = self.at + self.starts[b]
        end = self.data.find(b"\n", start, self.at + self.starts[b + 1])
        if end <= start:
            raise self._corrupt(b, "has no head; expected a non-empty token, then a newline")
        return self.data[start:end]

    def _decode(self, b: int) -> list[bytes]:
        last = b == len(self._blocks) - 1
        first = BLOCK * b
        expected = f"; expected {f'1 to {BLOCK}' if last else BLOCK} non-empty tokens from token {first}"
        head = self.heads[b]
        rest = memoryview(self.data)[self.at + self.starts[b] + len(head) + 1 : self.at + self.starts[b + 1]]
        block = [head]
        if rest:
            body = inflate(rest, lambda found: self._corrupt(b, found + expected))
            if not body:
                raise self._corrupt(b, "inflates to no count byte" + expected)
            n = body[0]
            if n != BLOCK - 1 and not last or n >= BLOCK:
                raise self._corrupt(b, f"counts {n + 1} tokens" + expected)
            shared = body[1 : 1 + n]
            suffixes = body[1 + n :].split(b"\n")
            if len(shared) != n or len(suffixes) != n:
                raise self._corrupt(b, f"counts {n + 1} tokens but holds {len(shared)} shared counts and"
                                       f" {len(suffixes)} suffixes" + expected)
            block = list(accumulate(zip(shared, suffixes), _extend, initial=head))
            if not all(map(le, shared, map(len, block))):
                i = next(i for i in range(n) if shared[i] > len(block[i]))
                raise self._corrupt(b, f"token {first + i + 1} shares {shared[i]} bytes with token {first + i},"
                                       f" which holds {len(block[i])}; expected at most {len(block[i])}")
            if not all(block):
                raise self._corrupt(b, f"token {first + block.index(b'')} is empty" + expected)
        if self.ordered:
            self._check_order(b, block)
        self._blocks[b] = block
        return block

    def _check_order(self, b: int, block: list[bytes]) -> None:
        if not all(map(lt, block, islice(block, 1, None))):
            i = next(i for i in range(1, len(block)) if block[i] <= block[i - 1])
            raise self._corrupt(b, f"token {BLOCK * b + i} does not sort above token {BLOCK * b + i - 1};"
                                   " expected the tokens in strictly ascending byte order")
        if b + 1 < len(self.heads) and block[-1] >= self.heads[b + 1]:
            raise self._corrupt(b, f"token {BLOCK * b + len(block) - 1}, its last, does not sort below"
                                   f" block {b + 1}'s head; expected the tokens in strictly ascending byte order")


class Dictionary:
    """Exact two-way map between terms and dense parity-typed integer ids.

    Encoding is idempotent and deterministic: feeding the same term sequence
    to a fresh dictionary always yields the same assignment. Terms of the
    tables, which ``load`` writes in token order, are found in the table of
    their parity with ``TermTable.find``. Mutable only while loading or
    entailing; otherwise it is shared read-only by query workers.
    """

    def __init__(self, tables: tuple[TermTable, TermTable] | None = None):
        self._tables = tables or (TermTable(), TermTable())
        self._sizes = (len(self._tables[0]), len(self._tables[1]))
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
        """The id of a token issued in memory or held in the tables: only
        literals start with ``"``, so the first character picks the table."""
        found = self._added.get(token)
        if found is None:
            odd = token.startswith('"')
            if self._sizes[odd] and (i := self._tables[odd].find(token.encode("utf-8"))) is not None:
                found = 2 * i + 2 - odd
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
